"""Non-tree cascade graphs split across a shard boundary.

Ports the diamond / cross-edge graphs of
``tests/core/test_cascade_graphs.py`` to a 2-shard universe where the
graph edges deliberately span the boundary, and again to 3 shards, where
every batch a shard mints fans out to two others: the cascade must
converge (every transitively dependent credential dead), revoke each
credential exactly once (no double revocation through the two diamond
paths, no ping-pong between shards, nothing on a shard that holds no
dependent), and — with observability on — stitch into a single
coordinator-side trace tree.

Worker placement is pinned through ``issue_rmcs_bulk(..., shards=...)``;
the workers' rejection-sampling allocators then mint serials the pinned
shard actually owns, so routing by ref hash finds every record.
"""

import pytest

from repro.events import EventBroker
from repro.events.messages import CREDENTIAL_REVOKED, Event
from repro.netd.client import OasisClient
from repro.netd.protocol import RpcError
from repro.obs.runtime import Observability
from repro.shard import Outbox, ShardRouter, ShardWorker
from shard_worlds import graph_world_factory

DIAMOND = ["A", "B", "C", "D"]


def issue(router, service, user, deps, session, shard):
    (certificate,) = router.issue_rmcs_bulk(
        service, [(user, "role", [user], deps, session)], shards=[shard])
    return certificate


def build_diamond(router):
    """A and D on shard 0, B and C on shard 1 — all four edges cross."""
    a = issue(router, "A", "u", [], "sa", shard=0)
    b = issue(router, "B", "u", [a.ref], "sb", shard=1)
    c = issue(router, "C", "u", [a.ref], "sc", shard=1)
    d = issue(router, "D", "u", [b.ref, c.ref], "sd", shard=0)
    return a, b, c, d


def revocation_counts(router, names):
    """subject -> number of REVOCATION audit records, across all shards
    and services (each credential must appear exactly once)."""
    counts = {}
    for name in names:
        for records in router.audit(name, kind="revocation").values():
            for _ts, _kind, _principal, subject, *_explained in records:
                counts[subject] = counts.get(subject, 0) + 1
    return counts


class TestDiamondAcrossBoundary:
    #: Shards 0 and 1 hold the graph; any further shard is a bystander.
    SHARDS = 2

    @pytest.fixture
    def router(self):
        with ShardRouter(self.SHARDS, graph_world_factory,
                         (",".join(DIAMOND),)) as instance:
            yield instance

    def test_collapse_converges_and_revokes_exactly_once(self, router):
        a, b, c, d = build_diamond(router)
        survivor = issue(router, "A", "v", [], "sv", shard=1)

        assert router.revoke(a.ref, "logout") is True

        for certificate in (a, b, c, d):
            assert router.is_active(certificate.ref) is False
        assert router.is_active(survivor.ref) is True

        counts = revocation_counts(router, DIAMOND)
        assert set(counts) == {cert.ref.qualified
                               for cert in (a, b, c, d)}
        assert all(count == 1 for count in counts.values())

        workers = router.worker_stats()
        assert sum(stats["revocations"]
                   for stats in workers.values()) == 4
        # A bystander heard every batch and revoked nothing.
        for shard in range(2, self.SHARDS):
            assert workers[shard]["revocations"] == 0
            assert workers[shard]["bus"]["batches_received"] >= 3
            for name in DIAMOND:
                assert router.audit(name, kind="revocation")[shard] == []

    def test_reason_composes_along_one_path(self, router):
        a, _b, _c, d = build_diamond(router)
        router.revoke(a.ref, "logout")
        record = router.credential_record(d.ref)
        assert record is not None and record["status"] == "revoked"
        assert "membership dependency" in record["reason"]
        assert "logout" in record["reason"]

    def test_second_revoke_is_a_noop(self, router):
        a, *_rest = build_diamond(router)
        router.revoke(a.ref, "logout")
        batches = router.cross_shard_batches_routed
        assert router.revoke(a.ref, "again") is False
        assert router.cross_shard_batches_routed == batches

    def test_cross_edge_graph_converges(self, router):
        # r -> m, then l1 depends on BOTH r and m (a cross edge skipping
        # a level) and l2 on m alone; the shard split alternates.
        r = issue(router, "A", "u", [], "s-r", shard=0)
        m = issue(router, "B", "u", [r.ref], "s-m", shard=1)
        l1 = issue(router, "C", "u", [r.ref, m.ref], "s-l1", shard=0)
        l2 = issue(router, "D", "u", [m.ref], "s-l2", shard=1)

        router.revoke(r.ref, "logout")

        for certificate in (r, m, l1, l2):
            assert router.is_active(certificate.ref) is False
        counts = revocation_counts(router, DIAMOND)
        assert all(count == 1 for count in counts.values())
        assert len(counts) == 4


class TestDiamondAcrossThreeShards(TestDiamondAcrossBoundary):
    """The same graphs beside a third shard that holds none of them:
    each batch goes to two shards, one of which has nothing to do."""

    SHARDS = 3


class TestSinglePublish:
    def test_one_published_revocation_lands_in_the_outbox(self):
        """``EventBroker.publish`` — the one-event path, which heartbeats
        take — is tapped like a cascade batch: a locally minted
        revocation lands in the outbox, one another shard sent (it
        carries ``net_origin``) does not."""
        broker = EventBroker()
        outbox = Outbox(broker, 0, 2)
        event = Event.make(CREDENTIAL_REVOKED, credential_ref="graph/A#7",
                           reason="logout")
        broker.publish(event)
        broker.publish(event.with_attributes(net_origin="w1"))
        assert outbox.minted == [event.to_payload()]
        assert broker.published_count == 2

    def test_a_worker_encodes_each_minted_event_once(self, monkeypatch):
        """The outbox is a worker's one broker tap: its server attaches
        no event pump beside it, so a published event becomes one
        payload, not one queued and one dropped."""
        encoded = []
        to_payload = Event.to_payload

        def counting(event):
            encoded.append(event.topic)
            return to_payload(event)

        monkeypatch.setattr(Event, "to_payload", counting)
        broker = EventBroker()
        outbox = Outbox(broker, 0, 2)
        worker = ShardWorker("w0", {}, outbox=outbox).start()
        try:
            worker.submit(broker.publish, Event.make(
                CREDENTIAL_REVOKED, credential_ref="graph/A#7",
                reason="logout"))
        finally:
            worker.close()
        assert encoded == [CREDENTIAL_REVOKED]
        assert len(outbox.minted) == 1

    def test_an_event_no_frame_can_encode_stays_on_its_shard(self):
        """As with ``EventPump``: a non-JSON attribute makes an event
        process-local, not a failed publish."""
        broker = EventBroker()
        outbox = Outbox(broker, 0, 2)
        broker.publish(Event.make("local.note", handle=object()))
        assert outbox.minted == []


class TestNoSilentSubscription:
    def test_a_worker_refuses_subscribe_events(self):
        """Nothing subscribes to a worker's broker — its outbox carries
        what it mints — so it refuses a subscription it would never push
        to, rather than answering ``subscribed``."""
        worker = ShardWorker("w0", {}, outbox=Outbox(EventBroker(), 0, 2))
        worker.start()
        client = OasisClient("127.0.0.1", worker.port, peer="w0")
        try:
            client.connect()
            with pytest.raises(RpcError, match="pushes nothing"):
                client.call("subscribe_events")
            assert worker.pump.subscriber_count == 0
        finally:
            client.close()
            worker.close()


class TestDeepCrossShardTrace:
    DEPTH = 16
    SHARDS = 2

    def test_depth16_chain_stitches_into_one_trace_tree(self):
        with ShardRouter(self.SHARDS, graph_world_factory, ("chain",),
                         observed=True) as router:
            chain = []
            for index in range(self.DEPTH + 1):
                deps = [chain[-1].ref] if chain else []
                chain.append(issue(router, "chain", "u", deps,
                                   f"s{index}", shard=index % self.SHARDS))

            router.revoke(chain[0].ref, "logout")

            for certificate in chain:
                assert router.is_active(certificate.ref) is False
            # One coalesced batch per revocation, each to every other
            # shard: the chain changes shard at every link, so each
            # batch holds one event.
            hops = (self.DEPTH + 1) * (self.SHARDS - 1)
            assert router.cross_shard_batches_routed == hops
            assert router.cross_shard_events_routed == hops

            spans = router.spans()
            roots = [span for span in spans
                     if span["parent_id"] is None
                     and span["name"] == "revoke"]
            assert len(roots) == 1
            trace_id = roots[0]["trace_id"]
            assert trace_id.startswith("w0.")  # minted by shard 0

            tracer = router.stitch(trace_id)
            forest = tracer.tree(trace_id)
            assert len(forest) == 1  # fully stitched: a single root

            def measure(node):
                depths = [measure(child) for child in node.children]
                return 1 + max(depths, default=0)

            def count(node):
                return 1 + sum(count(child) for child in node.children)

            # Every link in the chain adds a nested cascade span under
            # the root revoke, across worker boundaries.
            assert measure(forest[0]) > self.DEPTH
            assert count(forest[0]) > self.DEPTH


class TestDeepCrossShardTraceOnThreeShards(TestDeepCrossShardTrace):
    SHARDS = 3


class TestMergedMetrics:
    def test_shard_families_merge_at_coordinator(self):
        pipeline = Observability()
        with ShardRouter(2, graph_world_factory, (",".join(DIAMOND),),
                         pipeline=pipeline) as router:
            a, *_rest = build_diamond(router)
            router.revoke(a.ref, "logout")
            families = {family["name"]: family
                        for family in pipeline.metrics.collect()}

            expected = {"oasis_shard_requests_total",
                        "oasis_shard_revocations_total",
                        "oasis_shard_live_credentials",
                        "oasis_shard_events_published_total",
                        "oasis_shard_cross_shard_traffic_total",
                        "oasis_shard_router_bus_total"}
            assert expected <= set(families)

            revocations = families["oasis_shard_revocations_total"]
            assert sum(sample["value"]
                       for sample in revocations["samples"]) == 4
            per_shard = {sample["labels"]["shard"]
                         for sample in revocations["samples"]}
            assert per_shard == {"0", "1"}

            bus = families["oasis_shard_router_bus_total"]
            by_kind = {sample["labels"]["kind"]: sample["value"]
                       for sample in bus["samples"]}
            assert by_kind == {
                "cascade_batches": router.cross_shard_batches_routed,
                "cascade_events": router.cross_shard_events_routed}
