"""Power cuts: a revocation survives losing everything not yet fsynced.

An in-process revocation pays one fsync (docs/persistence.md): the origin
syncs its journal entry, the hops it covers append theirs write-behind,
and every ``cascade-done`` marker of the drain is held until each store
the drain touched has synced after its entry.  A power cut, like a
process kill (``test_crash_recovery.py``), loses every entry that was
never synced.  :class:`PowerCutStore` models that, and the sweep below
cuts power at every publish boundary,
right after ``revoke()`` returns, and after each service's checkpoint;
resuming every service and replaying must converge with an
uninterrupted twin.
"""

import json

import pytest

from repro.core import (
    ActivationRule,
    OasisService,
    PrerequisiteRole,
    Presentation,
    PrincipalId,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.core.state import Drain, ServiceStateCodec
from repro.db import MemoryRecordStore
from repro.events import EventBroker

from test_crash_recovery import SimulatedCrash, login_policy, resource_policy

PRINCIPALS = ("p0", "p1", "p2")


class PowerCutStore(MemoryRecordStore):
    """A memory store that remembers what it last synced.

    As on ``SqliteRecordStore``, records reach stable storage only at a
    flush (the write-behind buffer), and the log at every durable append,
    :meth:`sync` or flush; a plain append is in memory only.
    :meth:`power_cut` rolls both back to the last synced state.
    """

    def __init__(self):
        super().__init__(ServiceStateCodec())
        self._synced_records = {}
        self._synced_log = ([], 0)

    def log_append(self, entry, durable=False):
        self.log_appends += 1
        self._log_seq += 1
        self._log.append((self._log_seq, entry))
        if durable:
            self.durable_commits += 1
            self.sync()
        return self._log_seq

    def sync(self):
        self._synced_log = (list(self._log), self._log_seq)
        self.synced += 1

    def flush(self):
        super().flush()
        encode = self.codec.encode
        self._synced_records = {
            bucket: {key: json.dumps(encode(bucket, value), default=str)
                     for key, value in rows.items()}
            for bucket, rows in self._buckets.items()}
        self._synced_log = (list(self._log), self._log_seq)

    def power_cut(self):
        self.abandon_held()
        decode = self.codec.decode
        self._buckets = {
            bucket: {key: decode(bucket, json.loads(text))
                     for key, text in rows.items()}
            for bucket, rows in self._synced_records.items()}
        log, self._log_seq = self._synced_log
        self._log = list(log)


def crash_publishes_after(broker, allowed):
    """Let ``allowed`` publish_batch calls through, then 'crash'."""
    original = broker.publish_batch
    calls = []

    def dying_publish(events):
        calls.append(None)
        if len(calls) > allowed:
            raise SimulatedCrash()
        return original(events)

    broker.publish_batch = dying_publish


def chain_policies(depth=4):
    policies = []
    previous = None
    for level in range(depth):
        policy = ServicePolicy(ServiceId("cut", f"svc-{level}"))
        role = RoleTemplate(policy.define_role("role", 1), (Var("u"),))
        conditions = () if previous is None else (
            PrerequisiteRole(previous, membership=True),)
        policy.add_activation_rule(ActivationRule(role, conditions))
        previous = role
        policies.append(policy)
    return policies


#: Each world: its policies, and the activations every principal makes —
#: ``(service index, role)``, each presenting the previous certificate.
WORLDS = {
    "login-resource": (lambda: [login_policy(), resource_policy()],
                       [(0, "root"), (1, "mid"), (1, "leaf")]),
    "chain-4": (chain_policies, [(level, "role") for level in range(4)]),
}


class PowerWorld:
    def __init__(self, name):
        self.make_policies, self.steps = WORLDS[name]
        self.stores = [PowerCutStore() for _ in self.make_policies()]
        broker, registry = EventBroker(), ServiceRegistry()
        self.services = [
            OasisService(policy, broker, registry, store=store)
            for policy, store in zip(self.make_policies(), self.stores)]
        self.roots = []
        for principal in PRINCIPALS:
            pid = PrincipalId(principal)
            (first, role), *rest = self.steps
            held = self.services[first].activate_role(pid, role,
                                                      [principal])
            self.roots.append(held)
            for index, role in rest:
                held = self.services[index].activate_role(
                    pid, role, None, [Presentation(held)])
        for service in self.services:
            service.checkpoint()

    @property
    def broker(self):
        return self.services[0].broker

    def revoke(self):
        return self.services[0].revoke(self.roots[0].ref, "logout")

    def power_cut_and_resume(self):
        for store in self.stores:
            store.power_cut()
        broker, registry = EventBroker(), ServiceRegistry()
        self.services = [
            OasisService(policy, broker, registry, store=store)
            for policy, store in zip(self.make_policies(), self.stores)]
        for service in self.services:
            service.replay_pending()

    def statuses(self):
        return [{record.ref: (record.status, record.revoked_reason)
                 for record in service._records.values()}
                for service in self.services]


def publish_count(name):
    world = PowerWorld(name)
    original = world.broker.publish_batch
    calls = []
    world.broker.publish_batch = lambda events: calls.append(None) or \
        original(events)
    world.revoke()
    return len(calls)


def cut_points(name):
    """Every place the sweep cuts power: before the n-th publish, after
    ``revoke()`` returns, and after one service's checkpoint."""
    points = [("publish", n) for n in range(publish_count(name))]
    points.append(("returned", None))
    points += [("checkpoint", index)
               for index in range(len(WORLDS[name][0]()))]
    return points


def diverging(name):
    """The cut points after which the resumed world differs from the
    uninterrupted twin's."""
    twin = PowerWorld(name)
    assert twin.revoke()
    expected = twin.statuses()
    failures = []
    for kind, arg in cut_points(name):
        world = PowerWorld(name)
        if kind == "publish":
            crash_publishes_after(world.broker, arg)
            with pytest.raises(SimulatedCrash):
                world.revoke()
        else:
            assert world.revoke()
            if kind == "checkpoint":
                world.services[arg].checkpoint()
        world.power_cut_and_resume()
        if world.statuses() != expected:
            failures.append((kind, arg))
    return failures


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_power_cut_anywhere_converges(name):
    assert diverging(name) == []


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_markers_released_before_hops_sync_lose_a_revocation(
        name, monkeypatch):
    """The mutant writes held markers without syncing the touched
    stores: the origin's checkpoint then makes its entry look done while
    a hop's entry is still unsynced, and the cut loses the hop's
    revocation for good."""

    def hasty_release(drain):
        drain.abandon()
        drain._write_markers()

    monkeypatch.setattr(Drain, "release", hasty_release)
    assert ("checkpoint", 0) in diverging(name)


def test_one_fsync_per_revocation_and_a_pending_origin():
    """The origin pays the only fsync of the cascade, and its entry stays
    pending until the hops it covers have synced."""
    world = PowerWorld("chain-4")
    before = [store.durable_commits for store in world.stores]
    assert world.revoke()
    paid = [store.durable_commits - count
            for store, count in zip(world.stores, before)]
    assert paid == [1, 0, 0, 0]
    origin = world.stores[0]
    ops = [entry["op"] for _, entry in origin.log_entries()]
    assert ops[-1] == "cascade"
    # One drain, held on every store it involves.
    assert len({drain for store in world.stores
                for drain in store.held}) == 1
    assert all(store.held for store in world.stores)
    world.services[2].checkpoint()
    assert not any(store.held for store in world.stores)
    ops = [entry["op"] for _, entry in origin.log_entries()]
    assert ops[-2:] == ["cascade", "cascade-done"]
