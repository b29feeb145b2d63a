"""Kill-and-resume: crash-consistent revocation over the SQLite backend.

The protocol under test (docs/persistence.md): a cascade's events are
durably journalled *before* anything reaches the broker, and marked done
only after the batch drains — with a marker that is not itself durable
but rides the next commit.  Killing the process anywhere in between (or
right after, before the marker committed) and resuming from the store
must converge to exactly the final credential and audit state of an
uninterrupted run — revocation is "the essence of active security" and
must never be lost, while in-flight activations may die (certificate
checking fails closed).
"""

import hashlib
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import (
    ActivationRule,
    AuthorizationRule,
    OasisService,
    PrerequisiteRole,
    Presentation,
    PrincipalId,
    RoleName,
    RoleTemplate,
    ServiceId,
    ServicePolicy,
    ServiceRegistry,
    Var,
)
from repro.core.access_log import AccessKind
from repro.core.exceptions import CredentialInvalid, CredentialRevoked
from repro.core.state import ServiceStateCodec, ref_payload
from repro.crypto import ServiceSecret
from repro.crypto.hmac_sig import canonical_encode
from repro.db import SqliteRecordStore
from repro.events import EventBroker
from repro.net.sim import SimNetwork
from repro.netd.worlds import NodeContext
from repro.policy import parse_policy

N_PRINCIPALS = 4


class SimulatedCrash(Exception):
    """Stands in for the process dying mid-publish."""


def login_policy():
    policy = ServicePolicy(ServiceId("crash", "login"))
    root = policy.define_role("root", 1)
    policy.add_activation_rule(
        ActivationRule(RoleTemplate(root, (Var("u"),))))
    return policy


def resource_policy():
    policy = ServicePolicy(ServiceId("crash", "resource"))
    root_template = RoleTemplate(
        RoleName(ServiceId("crash", "login"), "root"), (Var("u"),))
    mid = policy.define_role("mid", 1)
    mid_template = RoleTemplate(mid, (Var("u"),))
    policy.add_activation_rule(ActivationRule(
        mid_template, (PrerequisiteRole(root_template, membership=True),)))
    leaf = policy.define_role("leaf", 1)
    leaf_template = RoleTemplate(leaf, (Var("u"),))
    policy.add_activation_rule(ActivationRule(
        leaf_template, (PrerequisiteRole(mid_template, membership=True),)))
    policy.add_authorization_rule(AuthorizationRule(
        "use", (Var("u"),), (PrerequisiteRole(leaf_template),)))
    return policy


def desk_policy():
    """One service that both issues ``root`` and guards ``use`` with it."""
    policy = ServicePolicy(ServiceId("crash", "desk"))
    root = RoleTemplate(policy.define_role("root", 1), (Var("u"),))
    policy.add_activation_rule(ActivationRule(root))
    policy.add_authorization_rule(AuthorizationRule(
        "use", (Var("u"),), (PrerequisiteRole(root),)))
    return policy


class World:
    """login (root) -> resource (mid -> leaf), both SQLite-file backed."""

    def __init__(self, tmp_path, tag, login_secret, resource_secret,
                 flush_every=1024):
        self.paths = self.store_paths(tmp_path, tag)
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.login = OasisService(
            login_policy(), self.broker, self.registry,
            secret=login_secret,
            store=SqliteRecordStore(self.paths["login"],
                                    codec=ServiceStateCodec(),
                                    flush_every=flush_every))
        self.resource = OasisService(
            resource_policy(), self.broker, self.registry,
            secret=resource_secret,
            store=SqliteRecordStore(self.paths["resource"],
                                    codec=ServiceStateCodec(),
                                    flush_every=flush_every))
        self.resource.register_method("use", lambda user: f"ok[{user}]")
        self.roots, self.mids, self.leaves = [], [], []
        for index in range(N_PRINCIPALS):
            pid = PrincipalId(f"p{index}")
            root = self.login.activate_role(pid, "root", [pid.value], [],
                                            session_id=f"s{index}")
            mid = self.resource.activate_role(
                pid, "mid", None, [Presentation(root)],
                session_id=f"s{index}")
            leaf = self.resource.activate_role(
                pid, "leaf", None, [Presentation(mid)],
                session_id=f"s{index}")
            self.roots.append(root)
            self.mids.append(mid)
            self.leaves.append(leaf)

    @staticmethod
    def store_paths(tmp_path, tag):
        return {"login": str(tmp_path / f"{tag}-login.db"),
                "resource": str(tmp_path / f"{tag}-resource.db")}

    @classmethod
    def reopen(cls, tmp_path, tag):
        """Resume over the files another process's World left behind."""
        world = cls.__new__(cls)
        world.paths = cls.store_paths(tmp_path, tag)
        world.resume()
        return world

    def journal_ops(self):
        """The ``op`` of every log entry on disk, per service — read
        through a second connection, so only what was committed shows."""
        ops = {}
        for name, path in self.paths.items():
            reader = SqliteRecordStore(path)
            ops[name] = [entry["op"] for _, entry in reader.log_entries()]
            reader.close(flush=False)
        return ops

    def checkpoint(self):
        """Periodic durability point: records issued so far reach disk.
        The crash window in the tests below is the *revocation* — its
        record flips stay write-behind (lost), only the journal commits."""
        self.login.checkpoint()
        self.resource.checkpoint()

    def crash(self):
        """Kill the process: abandon write-behind buffers, keep only what
        was durably committed."""
        self.login.store.close(flush=False)
        self.resource.store.close(flush=False)

    def shutdown(self):
        self.login.store.close()
        self.resource.store.close()

    def resume(self):
        """A fresh process: new broker/registry, services rebuilt from
        their stores."""
        self.broker = EventBroker()
        self.registry = ServiceRegistry()
        self.login = OasisService(
            login_policy(), self.broker, self.registry,
            store=SqliteRecordStore(self.paths["login"],
                                    codec=ServiceStateCodec()))
        self.resource = OasisService(
            resource_policy(), self.broker, self.registry,
            store=SqliteRecordStore(self.paths["resource"],
                                    codec=ServiceStateCodec()))
        self.resource.register_method("use", lambda user: f"ok[{user}]")

    def crash_publishes_after(self, allowed):
        """Let ``allowed`` publish_batch calls through, then 'crash'."""
        original = self.broker.publish_batch
        state = {"calls": 0}

        def dying_publish(events):
            state["calls"] += 1
            if state["calls"] > allowed:
                raise SimulatedCrash()
            return original(events)

        self.broker.publish_batch = dying_publish

    def revocation_audit(self, service):
        return [(rec.principal, rec.subject, rec.reason)
                for rec in service.access_log
                if rec.kind == AccessKind.REVOCATION]

    def statuses(self, service):
        return {record.ref: (record.status, record.revoked_reason)
                for record in service._records.values()}


@pytest.fixture
def secrets():
    return ServiceSecret.generate(), ServiceSecret.generate()


@pytest.fixture
def uninterrupted(tmp_path, secrets):
    world = World(tmp_path, "twin", *secrets)
    world.login.revoke(world.roots[0].ref, "logout")
    yield world
    world.shutdown()


def assert_converged(resumed, twin):
    """The resumed world's final credential and audit state equals the
    uninterrupted twin's."""
    assert resumed.statuses(resumed.login) == twin.statuses(twin.login)
    assert resumed.statuses(resumed.resource) == \
        twin.statuses(twin.resource)
    assert resumed.revocation_audit(resumed.login) == \
        twin.revocation_audit(twin.login)
    assert resumed.revocation_audit(resumed.resource) == \
        twin.revocation_audit(twin.resource)


def revoke_and_hang(directory, report):
    """Child body of the SIGKILL drill: build a file-backed world, lose
    one write-behind install, revoke p0's chain, report, and never close
    — the parent kills this process with the stores still open."""
    world = World(directory, "killed", ServiceSecret.generate(),
                  ServiceSecret.generate())
    world.checkpoint()
    lost = world.login.activate_role(PrincipalId("lost"), "root",
                                     ["lost"], [])
    world.login.revoke(world.roots[0].ref, "logout")
    report.send({"revoked": (world.roots[0], world.mids[0],
                             world.leaves[0]),
                 "live_leaf": world.leaves[1],
                 "lost_serial": lost.ref.serial})
    time.sleep(600)


class TestKillAndResume:
    def test_crash_before_publish_reemits_cascade(self, tmp_path, secrets,
                                                  uninterrupted):
        """Crash after the journal commit, before ANY event reached the
        broker: the revocation survives, the cascade completes on replay."""
        world = World(tmp_path, "crashed", *secrets)
        world.checkpoint()
        world.crash_publishes_after(0)
        with pytest.raises(SimulatedCrash):
            world.login.revoke(world.roots[0].ref, "logout")
        world.crash()

        world.resume()
        # The journalled revocation was applied during load — even before
        # replay, the dead credential answers with its reason.
        record = world.login.credential_record(world.roots[0].ref)
        assert record is not None and not record.active
        assert record.revoked_reason == "logout"
        # Re-emission pushes the cut cascade through the resumed broker;
        # the resource service collapses mid+leaf exactly as live.
        assert world.login.replay_pending() == 1
        assert world.resource.replay_pending() == 0
        assert_converged(world, uninterrupted)
        world.shutdown()

    def test_crash_mid_cascade_converges(self, tmp_path, secrets,
                                         uninterrupted):
        """Crash deeper in: the root's events published and the resource
        service journalled its own sub-cascade, but died before publishing
        it.  That entry was a covered hop's — write-behind — so the kill
        lost it; the origin's synced entry is still pending, and its
        re-emission re-drives the hop."""
        world = World(tmp_path, "crashed", *secrets)
        world.checkpoint()
        world.crash_publishes_after(1)
        with pytest.raises(SimulatedCrash):
            world.login.revoke(world.roots[0].ref, "logout")
        world.crash()
        assert world.journal_ops() == {
            "login": ["serial-reserve", "cascade"],
            "resource": ["serial-reserve"]}

        world.resume()
        assert world.resource.replay_pending() == 0
        assert world.login.replay_pending() == 1
        with pytest.raises(CredentialRevoked):
            world.resource.invoke(
                PrincipalId("p0"), "use", ["p0"],
                credentials=[Presentation(world.leaves[0])])
        assert_converged(world, uninterrupted)
        world.shutdown()

    def test_crash_after_completed_cascade_loses_only_the_marker(
            self, tmp_path, secrets, uninterrupted):
        """``revoke()`` returned, then the process died before anything
        else committed: the origin's (login's) ``cascade`` entry is on
        disk; the covered hop's (resource's) entry and every
        ``cascade-done`` marker were still write-behind and died with the
        process.  Resume re-applies the origin's entry, its re-emission
        re-drives the hop — idempotent where it had published — and once
        the markers land nothing is pending."""
        world = World(tmp_path, "crashed", *secrets)
        world.checkpoint()
        assert world.login.revoke(world.roots[0].ref, "logout") is True
        # One fsync each for the serial watermark; the cascade's only
        # other one is the origin's (login) — resource is a covered hop.
        assert world.login.store.stats()["ops"]["durable_commits"] == 2
        assert world.resource.store.stats()["ops"]["durable_commits"] == 1
        world.crash()
        assert world.journal_ops() == {
            "login": ["serial-reserve", "cascade"],
            "resource": ["serial-reserve"]}

        world.resume()
        assert not world.login.credential_record(world.roots[0].ref).active
        # The hop's revocation was lost with its entry: the origin's
        # synced entry is still pending, and re-driving it revokes the
        # hop again.
        assert world.resource.credential_record(world.leaves[0].ref).active
        assert world.resource.replay_pending() == 0
        assert world.login.replay_pending() == 1
        assert not world.resource.credential_record(
            world.leaves[0].ref).active
        assert_converged(world, uninterrupted)
        world.shutdown()
        assert world.journal_ops() == {"login": ["serial-reserve"],
                                       "resource": ["serial-reserve"]}

        world.resume()
        assert world.login.replay_pending() == 0
        assert world.resource.replay_pending() == 0
        assert world.statuses(world.login) == \
            uninterrupted.statuses(uninterrupted.login)
        assert world.statuses(world.resource) == \
            uninterrupted.statuses(uninterrupted.resource)
        world.shutdown()

    def test_sigkilled_process_stays_revoked_after_resume(self, tmp_path):
        """The real thing: a child process revokes on file-backed stores
        and is SIGKILLed with them open (``-wal``/``-shm`` left behind).
        Resuming from the same paths in this process recovers the WAL:
        the origin's revocation is on disk, its pending entry re-drives
        the covered hop whose write-behind entry died with the child,
        revoked stays revoked at every service, the untouched chain keeps
        working, and the serial watermark covers the install that died."""
        context = multiprocessing.get_context("spawn")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=revoke_and_hang,
                                args=(tmp_path, sender))
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
        paths = World.store_paths(tmp_path, "killed")
        for path in paths.values():
            assert os.path.exists(path + "-wal")

        world = World.reopen(tmp_path, "killed")
        root, mid, leaf = report["revoked"]
        assert not world.login.credential_record(root.ref).active
        assert world.resource.replay_pending() == 0
        assert world.login.replay_pending() == 1
        assert not world.resource.credential_record(mid.ref).active
        assert not world.resource.credential_record(leaf.ref).active
        with pytest.raises(CredentialRevoked):
            world.resource.invoke(PrincipalId("p0"), "use", ["p0"],
                                  credentials=[Presentation(leaf)])
        assert world.resource.invoke(
            PrincipalId("p1"), "use", ["p1"],
            credentials=[Presentation(report["live_leaf"])]) == "ok[p1]"
        fresh = world.login.activate_role(PrincipalId("new"), "root",
                                          ["new"], [])
        assert fresh.ref.serial > report["lost_serial"]
        world.shutdown()
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(path) for path in paths.values())

    def test_no_access_after_revocation_survives_restart(self, tmp_path,
                                                         secrets):
        """The property the protocol exists for: once revoked, never again
        usable — across any crash point and restart."""
        world = World(tmp_path, "prop", *secrets)
        world.checkpoint()
        world.crash_publishes_after(0)
        with pytest.raises(SimulatedCrash):
            world.login.revoke(world.roots[0].ref, "logout")
        world.crash()
        world.resume()
        world.login.replay_pending()
        world.resource.replay_pending()
        with pytest.raises(CredentialRevoked):
            world.resource.invoke(
                PrincipalId("p0"), "use", ["p0"],
                credentials=[Presentation(world.leaves[0])])
        # Unaffected principals keep working: the restored secret verifies
        # certificates signed before the crash.
        assert world.resource.invoke(
            PrincipalId("p1"), "use", ["p1"],
            credentials=[Presentation(world.leaves[1])]) == "ok[p1]"
        world.shutdown()

    def test_resumed_allocator_never_reissues_serials(self, tmp_path,
                                                      secrets):
        """Write-behind installs may be lost, but their serials are
        watermarked: post-resume issuance starts past everything that may
        have escaped in a signed certificate."""
        world = World(tmp_path, "serials", *secrets)
        escaped = [root.ref.serial for root in world.roots]
        # None of the records were flushed; this install dies entirely.
        lost = world.login.activate_role(PrincipalId("lost"), "root",
                                         ["lost"], [])
        world.crash()
        world.resume()
        # The lost credential fails closed...
        with pytest.raises(CredentialInvalid):
            world.resource.activate_role(PrincipalId("lost"), "mid", None,
                                         [Presentation(lost)])
        # ...and its serial is never handed out again.
        fresh = world.login.activate_role(PrincipalId("new"), "root",
                                          ["new"], [])
        assert fresh.ref.serial > lost.ref.serial
        assert fresh.ref.serial > max(escaped)
        world.shutdown()

    @pytest.mark.parametrize("route", ["explicit-store", "state-dir"])
    def test_constructing_over_a_used_store_resumes_it(self, tmp_path,
                                                       route):
        """Building a service on a store an earlier run used is resuming
        it, whichever way the store arrives: the plain constructor hands
        out no serial of that run again, so its revoked certificate stays
        revoked instead of naming a fresh credential."""
        def build():
            if route == "state-dir":
                service = NodeContext(
                    "desk", EventBroker(), ServiceRegistry(), None,
                    state_dir=str(tmp_path)).service(desk_policy())
            else:
                service = OasisService(
                    desk_policy(), EventBroker(), ServiceRegistry(),
                    store=SqliteRecordStore(str(tmp_path / "desk.db"),
                                            codec=ServiceStateCodec()))
            service.register_method("use", lambda user: f"ok[{user}]")
            return service

        first = build()
        revoked = first.activate_role(PrincipalId("u"), "root", ["u"], [])
        first.revoke(revoked.ref, "logout")
        watermark = first._serials_reserved
        first.store.close()

        second = build()
        fresh = second.activate_role(PrincipalId("u"), "root", ["u"], [])
        assert fresh.ref.serial > watermark >= revoked.ref.serial
        with pytest.raises(CredentialRevoked):
            second.invoke(PrincipalId("u"), "use", ["u"],
                          credentials=[Presentation(revoked)])
        assert second.invoke(PrincipalId("u"), "use", ["u"],
                             credentials=[Presentation(fresh)]) == "ok[u]"
        second.store.close()

    def test_journal_precedes_record_flips_in_store(self, tmp_path,
                                                    secrets):
        """Ordering invariant: during a cascade, the durable ``cascade``
        journal entry reaches the store before ANY revoked record does.

        ``flush_every=1`` makes every mirrored put commit durably at
        once, so any put of a REVOKED record ahead of the journal append
        would be exactly the unreplayable window: a crash there leaves a
        durably revoked parent whose dependents can never be cascaded.
        """
        world = World(tmp_path, "order", *secrets, flush_every=1)
        trail = []
        store = world.login.store
        original_put, original_append = store.put, store.log_append

        def spying_put(bucket, key, value):
            if bucket == "records" and not value.active:
                trail.append(("put-revoked", key))
            return original_put(bucket, key, value)

        def spying_append(entry, durable=False):
            trail.append(("log", entry.get("op")))
            return original_append(entry, durable=durable)

        store.put = spying_put
        store.log_append = spying_append
        world.login.revoke(world.roots[0].ref, "logout")
        flip_positions = [index for index, (kind, _) in enumerate(trail)
                          if kind == "put-revoked"]
        journal_position = trail.index(("log", "cascade"))
        assert flip_positions, "cascade mirrored no revoked record"
        assert journal_position < min(flip_positions)
        world.shutdown()

    def test_autoflush_mid_cascade_converges(self, tmp_path, secrets,
                                             uninterrupted):
        """A crash while the cascade's record flips are auto-flushing
        durably (buffer full at every put) still converges: the journal
        committed first, so every durable flip is covered by a
        replayable entry."""
        world = World(tmp_path, "autoflush", *secrets, flush_every=1)
        world.crash_publishes_after(0)
        with pytest.raises(SimulatedCrash):
            world.login.revoke(world.roots[0].ref, "logout")
        world.crash()

        world.resume()
        assert world.login.replay_pending() == 1
        world.resource.replay_pending()
        assert_converged(world, uninterrupted)
        world.shutdown()

    def test_crash_at_journal_write_leaves_no_durable_trace(self, tmp_path,
                                                            secrets):
        """Dying inside the journal append itself aborts atomically: no
        record flip was mirrored yet, so resume sees the pre-revocation
        world (the caller saw revoke() raise and knows it never took)."""
        world = World(tmp_path, "atomic", *secrets)
        world.checkpoint()
        store = world.login.store

        def dying_append(entry, durable=False):
            raise SimulatedCrash()

        store.log_append = dying_append
        with pytest.raises(SimulatedCrash):
            world.login.revoke(world.roots[0].ref, "logout")
        world.crash()

        world.resume()
        assert world.login.replay_pending() == 0
        record = world.login.credential_record(world.roots[0].ref)
        assert record is not None and record.active
        assert world.resource.invoke(
            PrincipalId("p0"), "use", ["p0"],
            credentials=[Presentation(world.leaves[0])]) == "ok[p0]"
        world.shutdown()

    def test_resume_against_same_network(self, tmp_path, secrets):
        """A service resumed on the network its crashed instance used
        answers callbacks for the certificates that instance issued: the
        route is the certificate's issuer, found in the new registry."""
        network = SimNetwork()
        path = str(tmp_path / "net-login.db")
        login = OasisService(
            login_policy(), EventBroker(), ServiceRegistry(),
            network=network, secret=secrets[0],
            store=SqliteRecordStore(path, codec=ServiceStateCodec()))
        root = login.activate_role(PrincipalId("p0"), "root", ["p0"], [])
        login.checkpoint()
        login.store.close(flush=False)

        broker, registry = EventBroker(), ServiceRegistry()
        resumed = OasisService(
            login_policy(), broker, registry, network=network,
            store=SqliteRecordStore(path, codec=ServiceStateCodec()))
        resource = OasisService(resource_policy(), broker, registry,
                                network=network, store=None)
        resource.activate_role(PrincipalId("p0"), "mid", None,
                               [Presentation(root)])
        assert network.stats.calls == 1
        assert resumed.stats.callbacks_served == 1
        resumed.store.close()

    def test_sessions_survive_restart(self, tmp_path, secrets):
        """Session liveness is derived from the records, so it rides the
        store for free."""
        world = World(tmp_path, "sessions", *secrets)
        world.login.checkpoint()
        before = world.login.live_sessions()
        assert before == {f"s{i}" for i in range(N_PRINCIPALS)}
        world.crash()
        world.resume()
        assert world.login.live_sessions() == before
        creds = world.login.session_credentials("s1")
        assert [record.ref for record in creds] == [world.roots[1].ref]
        world.shutdown()


ISSUER = "service a/login\nrole user(u)\nactivate user(u)\n"
HOLDER = ("service a/desk\nrole reader(u)\n"
          "activate reader(u) <- a/login:user(u)*\n"
          "authorize read(u) <- a/login:user(u)\n")


class TestHolderDownWhileRevoked:
    """An issuer revokes while a holder's process is down.  The holder
    heard nothing, and nothing replays what it missed: it must not trust
    any validation it made before it went down."""

    @pytest.fixture
    def fleet(self, tmp_path):
        """``a/login`` stays up; ``a/desk`` runs on a SQLite file."""
        self.broker, registry = EventBroker(), ServiceRegistry()
        self.login = OasisService(parse_policy(ISSUER), self.broker,
                                  registry)
        self.path = str(tmp_path / "desk.db")
        yield self.login, self.holder(registry)
        self.store.close()

    def holder(self, registry):
        self.store = SqliteRecordStore(self.path, codec=ServiceStateCodec())
        desk = OasisService(parse_policy(HOLDER), self.broker, registry,
                            store=self.store)
        desk.register_method("read", lambda user: f"read[{user}]")
        return desk

    def take_down(self, desk):
        """The holder's process stops after a checkpoint: no event
        reaches it any more."""
        desk.checkpoint()
        for subscription in desk._service_subs:
            subscription.cancel()
        self.store.close()

    def resume(self):
        """A new holder process on the same file, beside the same
        issuer."""
        registry = ServiceRegistry()
        registry.register(self.login)
        return self.holder(registry)

    def assert_refused_by_callback(self, desk, user):
        callbacks = desk.stats.callbacks_made
        with pytest.raises(CredentialRevoked):
            desk.invoke(PrincipalId("ann"), "read", ["ann"],
                        [Presentation(user)])
        assert desk.stats.callbacks_made == callbacks + 1
        assert desk.validation_cache_size == 0

    def test_a_validation_cached_before_going_down_is_not_trusted(
            self, fleet):
        login, desk = fleet
        user = login.activate_role(PrincipalId("ann"), "user", ["ann"])
        assert desk.invoke(PrincipalId("ann"), "read", ["ann"],
                           [Presentation(user)]) == "read[ann]"
        assert desk.validation_cache_size == 1
        self.take_down(desk)
        login.revoke(user.ref, "logout")
        self.assert_refused_by_callback(self.resume(), user)

    def test_a_stored_validation_row_is_not_restored(self, fleet):
        """A file that an earlier release left holding a persisted cache
        entry, bound to the certificate by its digest, is read as if the
        row were not there."""
        login, desk = fleet
        user = login.activate_role(PrincipalId("ann"), "user", ["ann"])
        self.take_down(desk)
        # SHA-256 of what the RMC asserts; an RMC has no secret generation.
        digest = hashlib.sha256(canonical_encode((
            str(user.issuer), user.protected_fields(), 0,
            user.signature))).hexdigest()
        store = SqliteRecordStore(self.path, codec=ServiceStateCodec())
        store.put("validation", user.ref.qualified, {
            "ref": ref_payload(user.ref), "entries": [["ann", None, digest]]})
        store.close()
        login.revoke(user.ref, "logout")
        self.assert_refused_by_callback(self.resume(), user)

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
        "no event replay for a subscriber that was down: the resumed "
        "holder never hears the revocation (ROADMAP item 4, replay after "
        "a cursor)"))
    def test_a_dependent_of_a_credential_revoked_while_down_is_revoked(
            self, fleet):
        login, desk = fleet
        user = login.activate_role(PrincipalId("ann"), "user", ["ann"])
        reader = desk.activate_role(PrincipalId("ann"), "reader", None,
                                    [Presentation(user)])
        self.take_down(desk)
        login.revoke(user.ref, "logout")
        if self.resume().is_active(reader.ref):
            pytest.fail("the resumed reader RMC outlived its user RMC")
