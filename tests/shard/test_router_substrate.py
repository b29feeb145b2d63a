"""The router over the ``netd`` substrate: what is new now that a worker
is a ``repro serve --shard I/N`` process and the router a ``Supervisor``
of blocking clients — one error taxonomy, fan-outs that collect every
reply before routing the bus, chunked bulk frames, an outbox larger than
a frame, a refused op whose forwards still settle, loud boot failure, a
lost port race, workers that never outlive their coordinator, and what a
worker restart brings back."""

import gc
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.core.exceptions import CredentialRevoked
from repro.core.state import ServiceState, ref_payload
from repro.db import served_store_path
from repro.db.sqlite_store import SqliteRecordStore
from repro.events.messages import CREDENTIAL_REVOKED, Event
from repro.netd.client import OasisClient
from repro.netd.protocol import FrameTooLarge, OasisNetError, RpcError
from repro.shard import ShardRouter, router as router_module, shard_of_ref

import shard_worlds
from shard_worlds import graph_world_factory

NAMES = "A,B"


def issue(router, service, user, deps, session, shard):
    (certificate,) = router.issue_rmcs_bulk(
        service, [(user, "role", [user], deps, session)], shards=[shard])
    return certificate


@pytest.fixture
def router():
    with ShardRouter(2, graph_world_factory, (NAMES,)) as instance:
        yield instance


class TestErrorTaxonomy:
    def test_denial_is_the_class_the_service_raises(self, router):
        a = issue(router, "A", "u", [], "sa", shard=0)
        router.revoke(a.ref, "logout")
        with pytest.raises(CredentialRevoked):
            router.invoke("A", "u", "ping", ["u"], credentials=[a])

    def test_unknown_service_and_handler_carry_the_remote_type(self, router):
        with pytest.raises(RpcError) as info:
            router.audit("nope")
        assert info.value.error_type == "KeyError"
        with pytest.raises(RpcError) as info:
            router.call_handler("nope", shard=1)
        assert info.value.error_type == "KeyError"
        assert info.value.node == "w1"


class TestBusOverReplies:
    def test_worker_stats_keep_their_bus_block(self, router):
        a = issue(router, "A", "u", [], "sa", shard=0)
        issue(router, "B", "u", [a.ref], "sb", shard=1)
        stats = router.worker_stats()
        assert all(set(worker["bus"]) == {
            "batches_sent", "events_sent", "batches_received",
            "events_received"} for worker in stats.values())
        assert all("outbox" not in worker for worker in stats.values())
        assert [worker["shard"] for worker in stats.values()] == [0, 1]

    def test_one_bulk_call_links_both_ways(self, router):
        """One bulk call lays an edge each way across the boundary, and
        each cascades on its own."""
        a = issue(router, "A", "u", [], "sa", shard=0)
        b = issue(router, "A", "u", [], "sb", shard=1)
        c, d = router.issue_rmcs_bulk(
            "B", [("u", "role", ["u"], [b.ref], "sc"),
                  ("u", "role", ["u"], [a.ref], "sd")], shards=[0, 1])
        router.revoke(a.ref, "logout")
        assert router.is_active(d.ref) is False
        assert router.is_active(c.ref) is True
        router.revoke(b.ref, "logout")
        assert router.is_active(c.ref) is False

    def test_bulk_calls_longer_than_a_chunk_keep_entry_order(
            self, router, monkeypatch):
        monkeypatch.setattr(router_module, "BULK_CHUNK", 3)
        users = [f"u{index}" for index in range(10)]
        pins = [index % 2 for index in range(10)]
        before = list(router.requests_routed)
        certificates = router.issue_rmcs_bulk(
            "A", [(user, "role", [user], [], f"s-{user}")
                  for user in users], shards=pins)
        assert [cert.role.parameters[0] for cert in certificates] == users
        assert [shard_of_ref(cert.ref, 2) for cert in certificates] == pins
        assert len({cert.ref for cert in certificates}) == 10
        # Five entries a worker, three a frame.
        assert [after - was for was, after
                in zip(before, router.requests_routed)] == [2, 2]


class TestOutboxLargerThanAFrame:
    def test_every_forwarded_event_arrives(self, router):
        """3,001 revocations collapse into ONE cascade batch of 6.5 MB
        (the reason rides every event): more than ``MAX_FRAME``, so it
        crosses in pieces — as does the batch of 3,000 the other shard
        mints in return — and all of it settles before ``revoke``
        returns."""
        count = 3_000
        root = issue(router, "A", "u", [], "sa", shard=0)
        children = router.issue_rmcs_bulk(
            "A", [(f"u{n}", "role", [f"u{n}"], [root.ref], f"c{n}")
                  for n in range(count)], shards=[0] * count)
        router.issue_rmcs_bulk(
            "B", [(f"u{n}", "role", [f"u{n}"], [child.ref], f"g{n}")
                  for n, child in enumerate(children)], shards=[1] * count)
        assert router.live_credential_count() == 2 * count + 1

        assert router.revoke(root.ref, "r" * 2_000) is True
        assert router.live_credential_count() == 0
        assert router.cross_shard_events_routed == 2 * count + 1
        # w0's one batch crosses in two pieces; w1 mints a batch per
        # piece, and the first — longer reasons — needs two pieces too.
        assert router.cross_shard_batches_routed == 2 + 3
        stats = router.worker_stats()
        assert [stats[shard]["bus"]["batches_sent"]
                for shard in (0, 1)] == [1, 2]

    def test_a_message_no_frame_can_carry_is_loud_not_a_loop(self):
        class Stuck:
            peer = "w0"

            def call(self, op, **fields):
                assert op == "bus.cascade" and fields["events"] == []
                return {"delivered": 0, "outbox": [], "more": True}

        with pytest.raises(FrameTooLarge, match="w0"):
            ShardRouter._collect(Stuck(), {"more": True}, [])


class TestRefusedOp:
    def test_forwards_of_a_failed_handler_settle_before_its_error(self):
        with ShardRouter(2, shard_worlds.faulty_graph_factory,
                         (NAMES,)) as router:
            a = issue(router, "A", "u", [], "sa", shard=0)
            b = issue(router, "B", "u", [a.ref], "sb", shard=1)
            with pytest.raises(RpcError) as info:
                router.call_handler("revoke_then_fail",
                                    ref_payload(a.ref), shard=0)
            assert info.value.error_type == "RuntimeError"
            # ``a``'s batch out, and ``b``'s back.
            assert router.cross_shard_batches_routed == 2
            assert router.is_active(a.ref) is False
            assert router.is_active(b.ref) is False

    def test_an_event_whose_listener_raised_still_reaches_the_holder(self):
        """The owner's broker subscriber raises while ``a``'s revocation
        is delivered; the event was published all the same, so the
        refused op's outbox carries it to ``b``'s shard."""
        with ShardRouter(2, shard_worlds.faulty_graph_factory,
                         (NAMES,)) as router:
            a = issue(router, "A", "u", [], "sa", shard=0)
            b = issue(router, "B", "u", [a.ref], "sb", shard=1)
            with pytest.raises(RpcError) as info:
                router.call_handler("revoke_past_a_failing_listener",
                                    ref_payload(a.ref), shard=0)
            assert info.value.error_type == "RuntimeError"
            assert router.is_active(a.ref) is False
            assert router.is_active(b.ref) is False


class TestBootFailure:
    def test_a_worker_that_cannot_build_its_world_is_loud(self, monkeypatch):
        spawned = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        with pytest.raises(RuntimeError, match="w1 exited"):
            ShardRouter(2, shard_worlds.unbuildable_on_shard_one, (NAMES,))
        assert len(spawned) == 4  # both workers, twice (see below)
        assert all(process.poll() is not None for process in spawned)

    def test_a_worker_that_lost_the_race_for_its_port_is_started_again(
            self, monkeypatch):
        """``free_port()`` is racy by nature: a worker that finds its
        port taken exits before it is ready, and the fleet gets one more
        go on fresh ports."""
        pick = router_module.free_port
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            taken = squatter.getsockname()[1]
            picks = iter([taken])
            monkeypatch.setattr(router_module, "free_port",
                                lambda: next(picks, None) or pick())
            with ShardRouter(2, graph_world_factory, (NAMES,)) as router:
                assert taken not in [spec.port for spec
                                     in router.fleet.specs.values()]
                assert sorted(router.worker_stats()) == [0, 1]


#: A coordinator in a process of its own: says where its workers listen,
#: then idles until it is killed.
COORDINATOR = """
import time
from repro.shard import ShardRouter
from shard_worlds import graph_world_factory
router = ShardRouter(2, graph_world_factory, ("A,B",))
print("PORTS", *(spec.port for spec in router.fleet.specs.values()),
      flush=True)
time.sleep(120)
"""


class TestWorkerLifetime:
    """A worker never outlives its coordinator."""

    def test_a_router_dropped_without_close_stops_its_workers(self):
        router = ShardRouter(2, graph_world_factory, (NAMES,))
        workers = list(router.fleet._procs.values())
        assert all(worker.poll() is None for worker in workers)
        del router
        gc.collect()
        assert all(worker.poll() is not None for worker in workers)

    def test_workers_follow_a_killed_coordinator(self):
        """SIGKILL: no ``shutdown`` is sent, no finalizer runs — the
        workers notice that the process that started them is gone."""
        import repro
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((
            os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
            os.path.dirname(os.path.abspath(__file__)))))
        coordinator = subprocess.Popen(
            [sys.executable, "-c", COORDINATOR], env=env,
            stdout=subprocess.PIPE, text=True)
        try:
            for line in coordinator.stdout:  # the READY banners come first
                if line.startswith("PORTS"):
                    break
            ports = [int(port) for port in line.split()[1:]]
            assert len(ports) == 2
            clients = [OasisClient("127.0.0.1", port, timeout=5.0)
                       for port in ports]
            assert [client.ping()["node"] for client in clients] \
                == ["w0", "w1"]
        finally:
            coordinator.kill()
            coordinator.wait()
            coordinator.stdout.close()
        deadline = time.monotonic() + 15
        for client in clients:
            with pytest.raises(OasisNetError):
                while time.monotonic() < deadline:
                    client.ping()
                    time.sleep(0.1)
            client.close()


class TestWorkerRestart:
    """What ``fleet.kill`` + ``router.restart`` brings back (a router
    with a state directory; a checkpoint first — stores are
    write-behind).  No shard remembers who depends on what it owns, so a
    restarted owner cascades like one that never stopped."""

    @pytest.fixture
    def durable_router(self, tmp_path):
        with ShardRouter(2, graph_world_factory, (NAMES,),
                         state_dir=str(tmp_path)) as instance:
            yield instance

    def test_each_worker_keeps_its_stores_in_its_own_directory(
            self, durable_router, tmp_path):
        issue(durable_router, "A", "u", [], "sa", shard=0)
        durable_router.checkpoint()
        files = {worker: sorted(path.name for path
                                in (tmp_path / worker).glob("*.sqlite"))
                 for worker in ("w0", "w1")}
        assert files == {worker: ["graph%2FA.sqlite", "graph%2FB.sqlite"]
                         for worker in ("w0", "w1")}
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["w0", "w1"]

    def test_dependent_side_resumes_records_secret_and_serials(
            self, durable_router):
        router = durable_router
        a = issue(router, "A", "u", [], "sa", shard=0)
        b = issue(router, "B", "u", [a.ref], "sb", shard=1)
        router.checkpoint()

        router.fleet.kill("w1")
        with pytest.raises(OasisNetError):  # dead is an error, not a hang
            router.is_active(b.ref)
        router.restart(1)

        assert router.is_active(b.ref) is True
        # Same signing secret: the old certificate still verifies.
        assert router.invoke("B", "u", "ping", ["u"],
                             credentials=[b]) == "pong[u]"
        fresh = issue(router, "B", "v", [], "sv", shard=1)
        assert fresh.ref != b.ref and shard_of_ref(fresh.ref, 2) == 1
        # The restarted worker rebuilt its reverse index from its
        # records: the owner's cascade still reaches ``b``.
        router.revoke(a.ref, "logout")
        assert router.is_active(b.ref) is False
        assert router.is_active(fresh.ref) is True

    def test_owner_side_still_cascades_after_restart(self, durable_router):
        router = durable_router
        a = issue(router, "A", "u", [], "sa", shard=0)
        b = issue(router, "B", "u", [a.ref], "sb", shard=1)
        router.checkpoint()
        router.fleet.kill("w0")
        router.restart(0)
        assert router.revoke(a.ref, "logout") is True
        assert router.is_active(b.ref) is False

    def test_a_restarted_owners_boot_replay_reaches_the_other_shard(
            self, durable_router, tmp_path):
        """A cascade journalled on w0 but cut before it was published is
        replayed while w0 boots; ``router.restart`` fetches those events
        and hands them to w1, where ``b`` depends on ``a`` — before any
        other op reaches w0."""
        router = durable_router
        a = issue(router, "A", "u", [], "sa", shard=0)
        b = issue(router, "B", "u", [a.ref], "sb", shard=1)
        router.checkpoint()
        router.fleet.kill("w0")

        store = SqliteRecordStore(
            served_store_path(str(tmp_path / "w0"), "graph/A"))
        try:
            ServiceState(a.ref.service, store).log_cascade([Event.make(
                CREDENTIAL_REVOKED, credential_ref=a.ref.qualified,
                reason="cut by the crash")])
        finally:
            store.close()
        router.restart(0)

        assert router.is_active(b.ref) is False
        assert router.is_active(a.ref) is False
