"""Cross-process event channel semantics: one push frame per publishing
call, origin tagging, ping-pong suppression, span context preservation,
slow and dead subscribers."""

import socket
import threading
import time

from repro.core.policy import ServicePolicy
from repro.core.rules import ActivationRule, PrerequisiteRole
from repro.core.terms import Var
from repro.core.types import RoleTemplate, ServiceId
from repro.events import CREDENTIAL_REVOKED, Event, EventBroker
from repro.netd.events import NET_ORIGIN, EventChannel, EventPump
from repro.netd.protocol import encode_frame
from repro.netd.worlds import World, bench_world

from netd_helpers import Node, Peer


class Collector:
    """Thread-safe event sink for channel delivery callbacks."""

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()
        self.arrived = threading.Event()

    def __call__(self, events):
        with self._lock:
            self.events.extend(events)
        self.arrived.set()

    def wait(self, count, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if len(self.events) >= count:
                    return list(self.events)
            time.sleep(0.02)
        with self._lock:
            return list(self.events)


class TestEventPump:
    def test_local_events_forwarded(self):
        broker = EventBroker()
        pump = EventPump("origin-node")
        pump.attach(broker)
        pushes = []
        done = threading.Event()

        def sender(push):
            pushes.append(push)
            done.set()
        pump.subscribe(sender)
        broker.publish(Event.make(CREDENTIAL_REVOKED,
                                  credential_ref="svc#1", reason="test"))
        pump.flush()
        assert done.wait(5)
        assert pushes[0]["push"] == "events"
        assert pushes[0]["origin"] == "origin-node"
        assert pushes[0]["events"][0]["topic"] == CREDENTIAL_REVOKED
        pump.detach()

    def test_batch_coalesced_into_one_push(self):
        broker = EventBroker()
        pump = EventPump("n")
        pump.attach(broker)
        pushes = []
        done = threading.Event()

        def sender(push):
            pushes.append(push)
            done.set()
        pump.subscribe(sender)
        broker.publish_batch([
            Event.make(CREDENTIAL_REVOKED, credential_ref=f"svc#{i}")
            for i in range(10)])
        pump.flush()
        assert done.wait(5)
        # One flush for the whole batch: the publishing call's end is
        # the batch boundary.
        assert sum(len(p["events"]) for p in pushes) == 10
        assert pump.pushed_batches == 1
        assert len(pushes[0]["events"]) == 10
        pump.detach()

    def test_remote_origin_events_not_reforwarded(self):
        """An event that *arrived* over the wire must not be pushed back
        out — that would ping-pong between mutually subscribed nodes."""
        broker = EventBroker()
        pump = EventPump("n")
        pump.attach(broker)
        pushes = []

        def sender(push):
            pushes.append(push)
        pump.subscribe(sender)
        remote = Event.make(CREDENTIAL_REVOKED, credential_ref="svc#1")
        remote = remote.with_attributes(**{NET_ORIGIN: "elsewhere"})
        broker.publish(remote)
        local = Event.make(CREDENTIAL_REVOKED, credential_ref="svc#2")
        broker.publish(local)
        pump.flush()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not pushes:
            time.sleep(0.02)
        forwarded = [e for p in pushes for e in p["events"]]
        assert [e["attributes"] for e in forwarded] == \
            [[["credential_ref", "svc#2"]]]
        assert pump.skipped_events == 1
        pump.detach()

    def test_event_too_large_for_any_frame_skipped_alone(self):
        broker = EventBroker()
        pump = EventPump("n")
        pump.max_frame = 512
        pump.attach(broker)
        sent = []
        done = threading.Event()

        def sender(push):  # what a connection does: frame, then write
            encode_frame(push, pump.max_frame)
            sent.extend(event["attributes"][0][1]
                        for event in push["events"])
            done.set()
        pump.subscribe(sender)
        broker.publish_batch([
            Event.make(CREDENTIAL_REVOKED, credential_ref="svc#1"),
            Event.make(CREDENTIAL_REVOKED, credential_ref="x" * 1000),
            Event.make(CREDENTIAL_REVOKED, credential_ref="svc#2"),
            Event.make(CREDENTIAL_REVOKED, credential_ref="y" * 1000)])
        pump.flush()
        broker.publish(Event.make(CREDENTIAL_REVOKED, credential_ref="svc#3"))
        pump.flush()
        pump.detach(5)
        assert done.is_set()
        assert sent == ["svc#1", "svc#2", "svc#3"]
        assert pump.subscriber_count == 1

    def test_non_json_attrs_skipped_not_crashed(self):
        broker = EventBroker()
        pump = EventPump("n")
        pump.attach(broker)
        broker.publish(Event.make(CREDENTIAL_REVOKED, ref=object()))
        assert pump.skipped_events == 1
        pump.detach()


class TestEventChannel:
    def test_channel_delivers_with_origin_and_span_context(self):
        """Events published at a served node arrive at the subscriber
        tagged with the origin and with span attrs intact."""
        node = Node("issuer", bench_world)
        sink = Collector()
        try:
            channel = EventChannel("issuer", "127.0.0.1", node.port, sink)
            channel.start()
            channel.wait_connected(5)  # raises on timeout
            node.server.submit(
                node.broker.publish,
                Event.make(CREDENTIAL_REVOKED, credential_ref="svc#9",
                           reason="test", trace_id="issuer.t1",
                           span_id="issuer.s1"))
            events = sink.wait(1)
            assert len(events) == 1
            event = events[0]
            assert event.get(NET_ORIGIN) == "issuer"
            assert event.get("trace_id") == "issuer.t1"
            assert event.get("span_id") == "issuer.s1"
            assert event.get("credential_ref") == "svc#9"
            assert channel.delivered_events == 1
            channel.stop()
        finally:
            node.close()

    def test_real_revocation_travels_channel(self):
        """End to end on one node pair: revoke at the issuer, observe the
        CREDENTIAL_REVOKED event at the subscriber."""
        node = Node("issuer2", bench_world)
        sink = Collector()
        try:
            channel = EventChannel("issuer2", "127.0.0.1", node.port,
                                   sink)
            channel.start()
            channel.wait_connected(5)  # raises on timeout
            client = node.client()
            rmc = client.activate("svc", "alice", "user", ["alice"])
            client.revoke(rmc.ref, "bye")
            events = sink.wait(1)
            assert any(e.topic == CREDENTIAL_REVOKED
                       and e.get("credential_ref") == str(rmc.ref)
                       for e in events)
            client.close()
            channel.stop()
        finally:
            node.close()

    def test_stop_returns_promptly_while_blocked_in_recv(self):
        node = Node("quiet", bench_world)
        try:
            channel = EventChannel("quiet", "127.0.0.1", node.port,
                                   Collector())
            channel.start()
            channel.wait_connected(5)
            started = time.monotonic()
            channel.stop()  # nothing will ever arrive to wake the recv
            assert time.monotonic() - started < 1
            assert not channel.connected.is_set()
        finally:
            node.close()


DEPTH = 3


def chain_world(ctx):
    """One service whose roles ``r0 <- r1 <- r2`` depend on each other
    by membership: revoking an ``r0`` publishes DEPTH events in one op."""
    policy = ServicePolicy(ServiceId("bench", "svc"))
    roles = [policy.define_role(f"r{level}", 1) for level in range(DEPTH)]
    policy.add_activation_rule(
        ActivationRule(RoleTemplate(roles[0], (Var("u"),))))
    for lower, upper in zip(roles, roles[1:]):
        policy.add_activation_rule(ActivationRule(
            RoleTemplate(upper, (Var("u"),)),
            (PrerequisiteRole(RoleTemplate(lower, (Var("u"),)),
                              membership=True),)))
    return World({"svc": ctx.service(policy)})


def activate_chain(client, who):
    """``who``'s r0..r2 at a :func:`chain_world` node, root first."""
    chain = []
    for level in range(DEPTH):
        chain.append(client.activate("svc", who, f"r{level}", [who],
                                     credentials=chain[-1:]))
    return chain


def subscribe_raw(port, rcvbuf=None):
    """A subscribed connection the test reads (or does not) by hand."""
    sock = socket.socket()
    if rcvbuf is not None:  # before connect: it sizes the TCP window
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(5)
    sock.connect(("127.0.0.1", port))
    peer = Peer(sock)
    peer.send_frame({"id": 0, "op": "subscribe_events"})
    assert peer.read_frame() == {"id": 0, "ok": True,
                                 "value": {"subscribed": True}}
    return sock


def flood(node):
    """16 MiB of pushes: far past what the socket buffers between the
    node and a subscriber that reads none of them can hold."""
    blob = "x" * 16384
    batch = [Event.make(CREDENTIAL_REVOKED, credential_ref=f"f#{i}",
                        blob=blob) for i in range(64)]
    for _ in range(16):
        node.server.submit(node.broker.publish_batch, batch)


def wait_until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and not condition():
        time.sleep(0.02)
    return condition()


class TestPumpOverSockets:
    """The pump's batch boundary, ordering and fault handling as a
    subscriber sees them on the wire."""

    def test_one_push_frame_per_cascade_in_order(self):
        node = Node("chain", chain_world)
        batches = []
        channel = EventChannel("chain", "127.0.0.1", node.port,
                               batches.append)
        try:
            channel.start()
            channel.wait_connected(5)
            client = node.client()
            first = activate_chain(client, "alice")
            second = activate_chain(client, "bob")
            before = client.stats()["pump"]
            client.revoke(first[0].ref, "one")
            client.revoke(second[0].ref, "two")
            assert wait_until(lambda: len(batches) >= 2)
            # One frame per revoke, each carrying its whole cascade,
            # in the order the revokes held the lock.
            assert [[event.get("credential_ref") for event in batch]
                    for batch in batches] == [
                [str(rmc.ref) for rmc in first],
                [str(rmc.ref) for rmc in second]]
            after = client.stats()["pump"]
            assert after["pushed_batches"] - before["pushed_batches"] == 2
            assert after["pushed_events"] - before["pushed_events"] \
                == 2 * DEPTH
            client.close()
        finally:
            channel.stop()
            node.close()

    def test_subscriber_that_never_reads_delays_no_rpc(self):
        node = Node("firehose", bench_world)
        stuck = subscribe_raw(node.port, rcvbuf=2048)
        try:
            flood(node)
            client = node.client(timeout=2.0)
            started = time.monotonic()
            for index in range(50):
                who = f"u{index}"
                rmc = client.activate("svc", who, "user", [who])
                assert client.revoke(rmc.ref, "bye")
                assert client.ping()["node"] == "firehose"
            assert time.monotonic() - started < 2
            assert client.stats()["pump"]["subscribers"] == 1
            client.close()
            # The failed send on the dead socket drops the subscriber.
            stuck.close()
            assert wait_until(
                lambda: node.server.pump.subscriber_count == 0)
        finally:
            stuck.close()
            node.close()

    def test_close_gives_up_on_a_subscriber_that_never_reads(
            self, monkeypatch):
        monkeypatch.setattr("repro.netd.server._CLOSE_GRACE", 0.2)
        node = Node("drain", bench_world)
        stuck = subscribe_raw(node.port, rcvbuf=2048)
        try:
            flood(node)
            started = time.monotonic()
            node.close()  # the pusher is stuck mid-send to `stuck`
            assert time.monotonic() - started < 2
        finally:
            stuck.close()

    def test_subscriber_that_hung_up_is_forgotten(self):
        node = Node("fickle", bench_world)
        try:
            gone = subscribe_raw(node.port)
            stays = subscribe_raw(node.port)
            assert node.server.pump.subscriber_count == 2
            gone.close()
            assert wait_until(
                lambda: node.server.pump.subscriber_count == 1)
            stays.close()
        finally:
            node.close()

    def test_batch_larger_than_a_frame_crosses_in_order(self):
        """A cascade batch too large for one ``max_frame`` push crosses
        as several frames, in order — and the subscriber stays
        subscribed for every later revocation."""
        node = Node("bulky", bench_world, max_frame=2048)
        sink = Collector()
        channel = EventChannel("bulky", "127.0.0.1", node.port, sink,
                               max_frame=2048)
        try:
            channel.start()
            channel.wait_connected(5)
            node.server.submit(
                node.broker.publish,
                Event.make(CREDENTIAL_REVOKED, credential_ref="svc#first"))
            assert [event.get("credential_ref")
                    for event in sink.wait(1)] == ["svc#first"]
            node.server.submit(node.broker.publish_batch, [
                Event.make(CREDENTIAL_REVOKED, credential_ref=f"svc#{index}",
                           reason=f"{index:03d}".ljust(50, "x"))
                for index in range(200)])
            assert [event.get("credential_ref")
                    for event in sink.wait(201)] == \
                ["svc#first"] + [f"svc#{index}" for index in range(200)]
            assert node.server.pump.subscriber_count == 1
            node.server.submit(
                node.broker.publish,
                Event.make(CREDENTIAL_REVOKED, credential_ref="svc#last"))
            assert sink.wait(202)[-1].get("credential_ref") == "svc#last"
        finally:
            channel.stop()
            node.close()

    def test_close_pushes_what_is_queued_first(self):
        node = Node("parting", bench_world)
        sink = Collector()
        channel = EventChannel("parting", "127.0.0.1", node.port, sink)
        try:
            channel.start()
            channel.wait_connected(5)
            for index in range(20):
                node.server.submit(
                    node.broker.publish,
                    Event.make(CREDENTIAL_REVOKED,
                               credential_ref=f"svc#{index}"))
            node.close()
            assert [event.get("credential_ref")
                    for event in sink.wait(20)] == \
                [f"svc#{index}" for index in range(20)]
        finally:
            channel.stop()
            node.close()
