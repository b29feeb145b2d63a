"""Transport fault injection: every failure mode surfaces as a typed
error (mirroring the shard transport's contract), never a hang.

* peer closes the connection mid-RPC  -> ConnectionLost
* peer accepts but never responds    -> RpcTimeout
* peer drip-feeds / answers off-script -> RpcTimeout / ProtocolError
* peer answers a callback without a true verdict -> credential invalid
* event channel peer restarts        -> reconnect + resubscribe
"""

import gc
import logging
import socket
import struct
import threading
import time
import warnings

import pytest

from repro.core.exceptions import CredentialInvalid
from repro.core.policy import ServicePolicy
from repro.core.rules import ActivationRule, PrerequisiteRole
from repro.core.service import (OasisService, Presentation,
                                ServiceRegistry)
from repro.core.terms import Var
from repro.core.types import PrincipalId, RoleTemplate, ServiceId
from repro.events import CREDENTIAL_REVOKED, Event, EventBroker
from repro.netd.client import OasisClient, RemoteNetwork
from repro.netd.events import EventChannel
from repro.netd.protocol import (
    ConnectionLost,
    OasisNetError,
    ProtocolError,
    RpcTimeout,
    encode_frame,
)
from repro.netd.worlds import NodeContext, bench_world

from netd_helpers import FaultyServer, Node, Peer
from test_events import Collector


#: Frame bodies the JSON decoder raises on with something other than a
#: decode error: nesting past the recursion limit, and an integer past
#: the interpreter's digit limit.
DEEP_BODY = b'{"push": "events", "events": ' + b"[" * 200_000
HUGE_INT_BODY = b'{"push": "events", "events": [' + b"9" * 5_000 + b"]}"


def raw_frame(body):
    return struct.pack(">I", len(body)) + body


class TestClientFaults:
    def test_peer_closing_mid_rpc_raises_connection_lost(self):
        def slam(peer):
            peer.read_frame()  # swallow the request...
            # ...and hang up without answering (the script's return)

        faulty = FaultyServer(slam).start()
        try:
            client = OasisClient("127.0.0.1", faulty.port, peer="evil",
                                 timeout=5.0).connect()
            with pytest.raises(ConnectionLost):
                client.ping()
            client.close()
        finally:
            faulty.stop()

    def test_stalled_peer_raises_timeout_not_hang(self):
        def stall(peer):
            peer.read_frame()
            peer.hold()  # never answer

        faulty = FaultyServer(stall).start()
        try:
            client = OasisClient("127.0.0.1", faulty.port, peer="tar",
                                 timeout=0.5).connect()
            started = time.monotonic()
            with pytest.raises(RpcTimeout):
                client.ping()
            assert time.monotonic() - started < 5
            client.close()
        finally:
            faulty.stop()

    def test_connect_refused_is_typed(self):
        # Nothing listens on the probe port (it was bound and released).
        from repro.netd.deploy import free_port
        client = OasisClient("127.0.0.1", free_port(), peer="ghost",
                             timeout=2.0)
        with pytest.raises(OasisNetError):
            client.connect()

    def test_oversized_response_rejected(self):
        def blast(peer):
            peer.read_frame()
            peer.send_frame({"id": 1, "ok": True,
                             "value": {"blob": "x" * 4096}})

        faulty = FaultyServer(blast).start()
        try:
            client = OasisClient("127.0.0.1", faulty.port, peer="fat",
                                 timeout=5.0,
                                 max_frame=256).connect()
            with pytest.raises((ProtocolError, ConnectionLost)):
                client.ping()
            client.close()
        finally:
            faulty.stop()

    @staticmethod
    def assert_rejected_without_dying(node, body):
        with socket.create_connection(("127.0.0.1", node.port),
                                      timeout=5) as sock:
            sock.sendall(raw_frame(body))
            reply = Peer(sock).read_frame()
        assert reply is not None and reply["ok"] is False
        # Server is still alive for well-formed clients.
        client = node.client()
        assert client.ping()["node"] == "bench"
        client.close()

    def test_server_rejects_malformed_frame_without_dying(self, bench_node):
        """A garbage frame kills that connection only; the server keeps
        serving others."""
        self.assert_rejected_without_dying(bench_node, b"nope")

    def test_server_rejects_deeply_nested_frame_without_dying(self,
                                                              bench_node):
        """A body past the decoder's recursion limit is a protocol error
        too, not a dead connection thread."""
        self.assert_rejected_without_dying(bench_node, DEEP_BODY)

    def test_drip_feeding_peer_hits_whole_call_deadline(self):
        """One byte every 0.2 s keeps every ``recv`` inside a per-read
        timeout; the deadline is for the whole call."""
        connections = []

        def drip(peer):
            connections.append(peer)
            request = peer.read_frame()
            if len(connections) > 1:  # the reconnect gets a real answer
                peer.send_frame({"id": request["id"], "ok": True,
                                 "value": {"node": "drip"}})
                peer.hold()
                return
            reply = encode_frame({"id": request["id"], "ok": True,
                                  "value": {"pad": "x" * 64}})
            try:
                for index in range(len(reply)):
                    peer.sock.sendall(reply[index:index + 1])
                    time.sleep(0.2)
            except OSError:
                pass  # the client gave up, as it should

        faulty = FaultyServer(drip).start()
        try:
            client = OasisClient("127.0.0.1", faulty.port, peer="drip",
                                 timeout=0.5).connect()
            started = time.monotonic()
            with pytest.raises(RpcTimeout):
                client.ping()
            assert time.monotonic() - started < 2
            assert not client.connected
            assert client.ping() == {"node": "drip"}
            assert len(connections) == 2
            client.close()
        finally:
            faulty.stop()

    def test_wrong_reply_id_is_protocol_error_and_closes(self):
        def mislabel(peer):
            request = peer.read_frame()
            peer.send_frame({"id": request["id"] + 7, "ok": True,
                             "value": {"node": "other"}})
            peer.hold()  # hold the socket until the client closes

        faulty = FaultyServer(mislabel).start()
        try:
            client = OasisClient("127.0.0.1", faulty.port, peer="mislabel",
                                 timeout=5.0).connect()
            with pytest.raises(ProtocolError):
                client.ping()
            assert not client.connected
            client.close()
        finally:
            faulty.stop()

    def test_stray_push_is_skipped_not_returned(self):
        def chatter(peer):
            request = peer.read_frame()
            peer.send_frame({"push": "events", "origin": "chatter",
                             "events": []})
            peer.send_frame({"id": request["id"], "ok": True,
                             "value": {"node": "chatter"}})
            peer.hold()

        faulty = FaultyServer(chatter).start()
        try:
            client = OasisClient("127.0.0.1", faulty.port, peer="chatter",
                                 timeout=5.0).connect()
            assert client.ping() == {"node": "chatter"}
            client.close()
        finally:
            faulty.stop()

    def test_threads_sharing_a_client_get_their_own_replies(self,
                                                            bench_node):
        client = bench_node.client()
        live = client.activate("svc", "alice", "user", ["alice"])
        dead = client.activate("svc", "bob", "user", ["bob"])
        client.revoke(dead.ref, "gone")
        wrong = []

        def hammer(ref, expected):
            for _ in range(200):
                if client.ping()["node"] != "bench":
                    wrong.append("ping")
                if client.is_active(ref) is not expected:
                    wrong.append(("is_active", expected))

        threads = [threading.Thread(target=hammer, args=(live.ref, True)),
                   threading.Thread(target=hammer, args=(dead.ref, False))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        client.close()

    def test_close_twice_and_drop_leave_no_resource_warning(self,
                                                            bench_node):
        def stall(peer):
            peer.hold()

        faulty = FaultyServer(stall).start()
        try:
            gc.collect()  # earlier tests' garbage is not this test's
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                client = bench_node.client()
                client.ping()
                client.close()
                client.close()
                # A deadline miss has already closed the socket: dropping
                # that client without close() leaks nothing either.
                timed_out = OasisClient("127.0.0.1", faulty.port,
                                        peer="tar", timeout=0.2)
                with pytest.raises(RpcTimeout):
                    timed_out.ping()
                del client, timed_out
                gc.collect()
            assert [str(w.message) for w in caught
                    if issubclass(w.category, ResourceWarning)
                    and "socket.socket" in str(w.message)] == []
        finally:
            faulty.stop()


ISSUER = ServiceId("bench", "svc")


class TestCallbackVerdict:
    """Only a ``true`` verdict validates a foreign certificate: a peer
    that answers the callback without raising has not vouched for it."""

    @pytest.mark.parametrize("verdict", [{"entries": [False]}, {}],
                             ids=["valid-false", "no-verdict"])
    def test_unvouched_certificate_is_denied_and_not_cached(self, verdict):
        def liar(peer):
            """Lists the issuer among its services, then answers every
            ``validate_many`` with the scripted reply."""
            while True:
                request = peer.read_frame()
                if request is None:
                    return
                if request["op"] == "services":
                    value = {"node": "liar", "services": [
                        {"key": "svc", "domain": ISSUER.domain,
                         "name": ISSUER.name}]}
                else:
                    assert request["op"] == "validate_many"
                    value = verdict
                peer.send_frame({"id": request["id"], "ok": True,
                                 "value": value})

        # The real issuer, somewhere the consumer cannot see.
        issuer = bench_world(NodeContext(
            "issuer", EventBroker(), ServiceRegistry(),
            RemoteNetwork("issuer"))).services["svc"]
        alice = PrincipalId("alice")
        foreign = issuer.activate_role(alice, "user", ["alice"])

        faulty = FaultyServer(liar).start()
        network = RemoteNetwork(
            "consumer", peers={"liar": ("127.0.0.1", faulty.port)},
            timeout=5.0)
        try:
            policy = ServicePolicy(ServiceId("consumer", "door"))
            guest = policy.define_role("guest", 1)
            policy.add_activation_rule(ActivationRule(
                RoleTemplate(guest, (Var("u"),)),
                (PrerequisiteRole(RoleTemplate(foreign.role.role_name,
                                               (Var("u"),))),)))
            broker = EventBroker()
            consumer = OasisService(policy, broker,
                                    ServiceRegistry(), network=network)
            subscriptions = broker.stats()["subscriptions"]
            with pytest.raises(CredentialInvalid):
                consumer.activate_role(alice, "guest", ["alice"],
                                       [Presentation(foreign)])
            assert consumer.stats.callbacks_made == 1
            assert not consumer._validation_cache
            assert broker.stats()["subscriptions"] == subscriptions
            assert not consumer.active_credentials()
        finally:
            network.close()
            faulty.stop()


class TestEventChannelReconnect:
    def test_reconnect_and_resubscribe_after_peer_restart(self):
        node = Node("flappy", bench_world)
        port = node.port
        sink = Collector()
        channel = EventChannel("flappy", "127.0.0.1", port, sink,
                               reconnect_delay=0.05)
        try:
            channel.start()
            channel.wait_connected(5)
            node.server.submit(
                node.broker.publish,
                Event.make(CREDENTIAL_REVOKED,
                           credential_ref="svc#1"))
            assert len(sink.wait(1)) >= 1

            # Kill the server, then bring a fresh one up on the SAME port
            # (a restarted process).  The channel must reconnect and
            # resubscribe by itself.
            node.close()
            node2 = Node("flappy", bench_world, port=port)
            try:
                deadline = time.monotonic() + 10
                while (time.monotonic() < deadline
                       and channel.subscribes < 2):
                    time.sleep(0.05)
                assert channel.subscribes >= 2, \
                    "channel did not resubscribe after restart"
                node2.server.submit(
                    node2.broker.publish,
                    Event.make(CREDENTIAL_REVOKED,
                               credential_ref="svc#2"))
                events = sink.wait(2)
                assert any(e.get("credential_ref") == "svc#2"
                           for e in events)
            finally:
                node2.close()
        finally:
            channel.stop()


def push(*refs):
    return {"push": "events", "origin": "script",
            "events": [Event.make(CREDENTIAL_REVOKED,
                                  credential_ref=ref).to_payload()
                       for ref in refs]}


class TestEventChannelFaults:
    """Scripted publishers: the subscription survives what a peer (or a
    local handler) can do wrong."""

    def run_channel(self, behaviour, sink, count, deliver=None):
        faulty = FaultyServer(behaviour).start()
        channel = EventChannel("script", "127.0.0.1", faulty.port,
                               deliver or sink, reconnect_delay=0.05)
        try:
            channel.start()
            events = sink.wait(count)
            return channel, [event.get("credential_ref")
                             for event in events]
        finally:
            channel.stop()
            faulty.stop()

    def assert_session_ends_not_the_channel(self, frame):
        sessions = []

        def garbler(peer):
            sessions.append(peer)
            request = peer.read_frame()
            peer.send_frame({"id": request["id"], "ok": True,
                             "value": {"subscribed": True}})
            if len(sessions) == 1:
                # Let the reply be read on its own: a bad frame discards
                # the good ones decoded from the same read.
                time.sleep(0.1)
                peer.sock.sendall(frame)
            else:
                peer.send_frame(push("svc#2"))
            peer.hold()

        channel, refs = self.run_channel(garbler, Collector(), 1)
        assert refs == ["svc#2"]
        assert channel.subscribes == 2  # it reconnected by itself

    def test_malformed_push_ends_the_session_not_the_channel(self):
        self.assert_session_ends_not_the_channel(encode_frame(
            {"push": "events", "origin": "script",
             "events": [{"no": "topic"}, 7]}))

    @pytest.mark.parametrize("body", [DEEP_BODY, HUGE_INT_BODY],
                             ids=["deep-nesting", "huge-integer"])
    def test_undecodable_push_ends_the_session_not_the_channel(self, body):
        self.assert_session_ends_not_the_channel(raw_frame(body))

    def test_any_session_error_reconnects_the_channel(self, monkeypatch,
                                                     caplog):
        def steady(peer):
            request = peer.read_frame()
            peer.send_frame({"id": request["id"], "ok": True,
                             "value": {"subscribed": True}})
            peer.send_frame(push("svc#1"))
            peer.hold()

        republish = EventChannel._republish
        failures = []

        def flaky(channel, frame):
            if not failures:
                failures.append(frame)
                raise RuntimeError("session bug")
            republish(channel, frame)

        monkeypatch.setattr(EventChannel, "_republish", flaky)
        with caplog.at_level(logging.ERROR, logger="repro.netd.events"):
            channel, refs = self.run_channel(steady, Collector(), 1)
        assert refs == ["svc#1"]
        assert channel.subscribes == 2  # logged, then reconnected
        (record,) = [record for record in caplog.records
                     if record.name == "repro.netd.events"]
        assert "session bug" in str(record.exc_info[1])

    def test_push_overtaking_the_subscription_reply_is_delivered(self):
        def eager(peer):
            request = peer.read_frame()
            peer.send_frame(push("svc#1"))
            peer.send_frame({"id": request["id"], "ok": True,
                             "value": {"subscribed": True}})
            peer.send_frame(push("svc#2"))
            peer.hold()

        channel, refs = self.run_channel(eager, Collector(), 2)
        assert refs == ["svc#1", "svc#2"]
        assert channel.subscribes == 1

    def test_failing_local_delivery_does_not_end_the_subscription(
            self, caplog):
        def steady(peer):
            request = peer.read_frame()
            peer.send_frame({"id": request["id"], "ok": True,
                             "value": {"subscribed": True}})
            peer.send_frame(push("svc#1"))
            peer.send_frame(push("svc#2"))
            peer.hold()

        sink = Collector()

        def deliver(events):
            if events[0].get("credential_ref") == "svc#1":
                raise RuntimeError("handler bug")
            sink(events)

        with caplog.at_level(logging.ERROR, logger="repro.netd.events"):
            channel, refs = self.run_channel(steady, sink, 1,
                                             deliver=deliver)
        assert refs == ["svc#2"]  # the next batch still arrived
        assert channel.subscribes == 1
        # Logged once, naming the peer and the batch size.
        (record,) = [record for record in caplog.records
                     if record.name == "repro.netd.events"]
        assert record.levelno == logging.ERROR
        assert "peer script" in record.getMessage()
        assert "batch of 1 events" in record.getMessage()
        assert "handler bug" in str(record.exc_info[1])
