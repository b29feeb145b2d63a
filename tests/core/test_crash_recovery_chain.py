"""Kill-and-resume on a file-backed depth-4 chain.

The two-service world of ``test_crash_recovery.py`` has one covered hop;
a chain ``svc-0 -> svc-1 -> svc-2 -> svc-3`` (each role a membership
dependant of the one before, each service on its own SQLite file) has
three, each journalling its sub-cascade write-behind while the origin's
synced entry covers it.  A process kill loses every hop's entry, so at
load only the origin has its part applied and holds the one pending
entry; replaying it must re-drive every hop and converge with an
uninterrupted twin, for a crash at every publish boundary and for a real
SIGKILL after ``revoke()`` returned.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core import (
    OasisService,
    Presentation,
    PrincipalId,
    ServiceRegistry,
)
from repro.core.state import ServiceStateCodec
from repro.db import SqliteRecordStore
from repro.events import EventBroker

from test_crash_recovery import SimulatedCrash
from test_power_cut import chain_policies, crash_publishes_after

DEPTH = 4
PRINCIPALS = ("p0", "p1", "p2")


class ChainWorld:
    """The depth-4 chain, every service on its own file."""

    def __init__(self, tmp_path, tag):
        self.paths = [str(tmp_path / f"{tag}-svc-{level}.db")
                      for level in range(DEPTH)]
        self.open()
        self.chains = {}
        for principal in PRINCIPALS:
            pid = PrincipalId(principal)
            chain = [self.services[0].activate_role(pid, "role",
                                                    [principal])]
            for service in self.services[1:]:
                chain.append(service.activate_role(
                    pid, "role", None, [Presentation(chain[-1])]))
            self.chains[principal] = chain

    @classmethod
    def reopen(cls, tmp_path, tag):
        world = cls.__new__(cls)
        world.paths = [str(tmp_path / f"{tag}-svc-{level}.db")
                       for level in range(DEPTH)]
        world.open()
        return world

    def open(self):
        self.broker, registry = EventBroker(), ServiceRegistry()
        self.services = [
            OasisService(policy, self.broker, registry,
                         store=SqliteRecordStore(
                             path, codec=ServiceStateCodec()))
            for path, policy in zip(self.paths, chain_policies(DEPTH))]

    def revoke(self):
        return self.services[0].revoke(self.chains["p0"][0].ref, "logout")

    def checkpoint(self):
        for service in self.services:
            service.checkpoint()

    def crash(self):
        for service in self.services:
            service.store.close(flush=False)

    def shutdown(self):
        for service in self.services:
            service.store.close()

    def statuses(self):
        return [{record.ref: (record.status, record.revoked_reason)
                 for record in service._records.values()}
                for service in self.services]


@pytest.fixture
def twin_statuses(tmp_path):
    world = ChainWorld(tmp_path, "twin")
    assert world.revoke()
    yield world.statuses()
    world.shutdown()


@pytest.mark.parametrize("allowed", range(DEPTH))
def test_crash_at_every_publish_boundary_converges(tmp_path, allowed,
                                                   twin_statuses):
    world = ChainWorld(tmp_path, "crashed")
    revoked = [certificate.ref for certificate in world.chains["p0"]]
    world.checkpoint()
    crash_publishes_after(world.broker, allowed)
    with pytest.raises(SimulatedCrash):
        world.revoke()
    world.crash()

    world = ChainWorld.reopen(tmp_path, "crashed")
    # Before any replay only the origin has its part applied: the hops
    # that journalled theirs — svc-1 .. svc-<allowed> — did so
    # write-behind, and the origin's pending entry re-drives them.
    assert not world.services[0].credential_record(revoked[0]).active
    assert [service.replay_pending()
            for service in reversed(world.services)] == [0, 0, 0, 1]
    for level in range(DEPTH):
        assert not world.services[level].is_active(revoked[level])
    assert world.statuses() == twin_statuses
    world.shutdown()


def revoke_and_hang(directory, report):
    """Child body: build the file-backed chain, revoke p0's root, report,
    and never close — the parent SIGKILLs this process with every store
    open and no marker written."""
    world = ChainWorld(directory, "killed")
    world.checkpoint()
    assert world.revoke()
    report.send({"revoked": [cert.ref for cert in world.chains["p0"]],
                 "live": world.chains["p1"][-1]})
    time.sleep(600)


def test_sigkill_after_revoke_returned_stays_revoked(tmp_path):
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=revoke_and_hang, args=(tmp_path, sender))
    child.start()
    try:
        sender.close()
        assert receiver.poll(60), "child never reported its revoke"
        report = receiver.recv()
    finally:
        receiver.close()
        os.kill(child.pid, signal.SIGKILL)
        child.join(30)
    assert child.exitcode == -signal.SIGKILL

    world = ChainWorld.reopen(tmp_path, "killed")
    # The origin's entry was committed and stays pending; every hop's
    # write-behind entry died with the child, so the replay re-drives
    # them.
    assert not world.services[0].credential_record(
        report["revoked"][0]).active
    assert [service.replay_pending()
            for service in reversed(world.services)] == [0, 0, 0, 1]
    for service, ref in zip(world.services, report["revoked"]):
        assert not service.is_active(ref)
    assert world.services[-1].is_active(report["live"].ref)
    world.shutdown()
    world = ChainWorld.reopen(tmp_path, "killed")
    assert sum(service.replay_pending() for service in world.services) == 0
    world.shutdown()
