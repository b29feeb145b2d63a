"""OasisServer RPC surface: ops, handshake gating, remote errors,
the one-lock threading model, graceful shutdown — all over a real
loopback socket."""

import sys
import threading
import time

import pytest

from repro.core import wire
from repro.core.exceptions import (
    CredentialRevoked,
    InvocationDenied,
    UnknownRole,
)
from repro.crypto import generate_keypair
from repro.netd.protocol import (HandshakeError, OasisNetError, RpcError,
                                 remote_error)
from repro.netd.worlds import World, bench_world

from netd_helpers import Node


class TestBasicOps:
    def test_ping_names_node_and_services(self, bench_node):
        client = bench_node.client()
        pong = client.ping()
        assert pong["node"] == "bench"
        assert pong["services"] == ["svc"]
        client.close()

    def test_activate_invoke_revoke_cycle(self, bench_node):
        client = bench_node.client()
        rmc = client.activate("svc", "alice", "user", ["alice"])
        assert rmc.role.role_name.name == "user"
        assert client.is_active(rmc.ref)
        assert client.invoke("svc", "alice", "echo", ["hi"],
                             credentials=[rmc]) == "hi"
        assert client.revoke(rmc.ref, "done")
        assert not client.is_active(rmc.ref)
        client.close()

    def test_invoke_without_credentials_denied(self, bench_node):
        client = bench_node.client()
        with pytest.raises(InvocationDenied):
            client.invoke("svc", "mallory", "echo", ["hi"])
        client.close()

    def test_remote_domain_exception_reraised_as_itself(self, bench_node):
        client = bench_node.client()
        with pytest.raises(UnknownRole):
            client.activate("svc", "alice", "no_such_role", ["alice"])
        client.close()

    def test_unknown_op_is_rpc_error(self, bench_node):
        client = bench_node.client()
        with pytest.raises(RpcError) as info:
            client.call("definitely_not_an_op")
        assert info.value.node == "bench"
        client.close()

    def test_unknown_service_key(self, bench_node):
        client = bench_node.client()
        with pytest.raises(RpcError):
            client.activate("nope", "alice", "user", ["alice"])
        client.close()

    def test_stats_shape(self, bench_node):
        client = bench_node.client()
        client.activate("svc", "alice", "user", ["alice"])
        stats = client.stats()
        assert stats["node"] == "bench"
        assert stats["services"]["svc"]["rmcs_issued"] >= 1
        client.close()

    def test_record_roundtrip(self, bench_node):
        client = bench_node.client()
        rmc = client.activate("svc", "alice", "user", ["alice"])
        record = client.record(rmc.ref)
        assert record["status"] == "active"
        client.close()

    def test_sequential_requests_one_connection(self, bench_node):
        client = bench_node.client()
        refs = [client.activate("svc", f"u{i}", "user", [f"u{i}"]).ref
                for i in range(20)]
        assert len({str(r) for r in refs}) == 20
        client.close()


class TestHandshakeGating:
    def test_state_ops_refused_before_handshake(self):
        node = Node("gated", bench_world, require_handshake=True)
        try:
            client = node.client()
            client.ping()  # liveness is ungated
            with pytest.raises(HandshakeError):
                client.activate("svc", "alice", "user", ["alice"])
            client.close()
        finally:
            node.close()

    def test_handshake_unlocks_and_names_principal(self):
        node = Node("gated2", bench_world, require_handshake=True)
        try:
            client = node.client()
            keys = generate_keypair(bits=512)
            principal = client.handshake(keys)
            assert principal == f"key:{keys.public.fingerprint()}"
            rmc = client.activate("svc", "alice", "user", ["alice"])
            assert client.is_active(rmc.ref)
            client.close()
        finally:
            node.close()

    def test_identity_bound_to_hello_key(self):
        """The principal the server binds comes from the key presented
        at hello — a prover cannot claim a different identity, because
        the fingerprint is never read from the prove frame."""
        node = Node("gated3", bench_world, require_handshake=True)
        try:
            client = node.client()
            keys = generate_keypair(bits=512)
            assert client.handshake(keys) == \
                f"key:{keys.public.fingerprint()}"
            client.close()
        finally:
            node.close()


def validation(rmc, principal="alice"):
    """One ``validate_many`` entry; the node routes it by the
    certificate's issuer."""
    return {"cert": wire.certificate_text(rmc), "principal": principal,
            "holder": None}


class TestValidateOp:
    def test_validation_endpoint_reachable_over_wire(self, bench_node):
        """The ``validate_many`` op dispatches each entry into the
        service's callback validation handler — the path remote issuers
        use — and answers one verdict per entry, in order."""
        client = bench_node.client()
        rmc = client.activate("svc", "alice", "user", ["alice"])
        value = client.call("validate_many", entries=[
            validation(rmc), validation(rmc, principal="mallory")])
        (good, stolen) = value["entries"]
        assert good is True
        assert stolen["type"] == "SignatureInvalid"
        client.close()

    @pytest.mark.parametrize("answer", [1, "yes"])
    def test_only_the_literal_true_vouches(self, bench_node, monkeypatch,
                                           answer):
        """An issuer that answers something truthy has not said ``True``:
        the verdict crosses the wire as ``false``, never coerced."""
        monkeypatch.setattr(bench_node.world.services["svc"],
                            "_serve_validation", lambda *args: answer)
        client = bench_node.client()
        rmc = client.activate("svc", "alice", "user", ["alice"])
        value = client.call("validate_many", entries=[validation(rmc)])
        assert value == {"entries": [False]}
        client.close()

    def test_revoked_credential_fails_validation(self, bench_node):
        """A refusal rides its entry as a typed error, which the caller's
        network turns back into the core exception."""
        client = bench_node.client()
        rmc = client.activate("svc", "alice", "user", ["alice"])
        client.revoke(rmc.ref, "gone")
        (verdict,) = client.call("validate_many",
                                 entries=[validation(rmc)])["entries"]
        assert verdict["type"] == "CredentialRevoked"
        assert isinstance(remote_error("bench", verdict), CredentialRevoked)
        client.close()

    @pytest.mark.parametrize("cert", [{"kind": "rmc"}, "{not json", 7],
                             ids=["dict", "not-json", "number"])
    def test_a_malformed_entry_fails_only_itself(self, bench_node, cert):
        client = bench_node.client()
        rmc = client.activate("svc", "alice", "user", ["alice"])
        value = client.call("validate_many", entries=[
            dict(validation(rmc), cert=cert), validation(rmc)])
        (bad, good) = value["entries"]
        assert bad["type"] == "WireError"
        assert good is True
        client.close()

    def test_stats_count_decodes_and_callbacks(self, bench_node):
        client = bench_node.client()
        rmc = client.activate("svc", "alice", "user", ["alice"])
        before = client.stats()["wire"]
        for _ in range(3):
            client.invoke("svc", "alice", "echo", ["hi"], credentials=[rmc])
        stats = client.stats()
        # Issued here, so even the first presentation is a decode hit.
        assert stats["wire"]["hits"] == before["hits"] + 3
        assert stats["wire"]["misses"] == before["misses"]
        assert 0 < stats["wire"]["size"] <= wire.CERTIFICATE_CACHE_MAX
        assert stats["callbacks"] == {"rpcs": 0, "entries": 0}
        client.close()


class TestShutdown:
    def test_shutdown_op_stops_server(self):
        node = Node("bye", bench_world)
        waiter = threading.Thread(target=node.server.serve_until_shutdown)
        waiter.start()
        client = node.client()
        client.shutdown()
        waiter.join(timeout=10)  # serve loop exits on its own
        assert not waiter.is_alive()
        client.close()
        node.network.close()

    def test_graceful_close_surfaces_typed_error(self, bench_node):
        client = bench_node.client()
        client.activate("svc", "alice", "user", ["alice"])
        bench_node.server.close()
        # Connection is gone; a fresh call raises the transport's own
        # error instead of hanging.
        with pytest.raises(OasisNetError):
            client.ping()
        client.close()


def with_handlers(handlers):
    """``bench_world`` plus world-side ``handler`` ops (they run under
    the service lock like every state-touching op)."""
    def factory(ctx):
        return World(bench_world(ctx).services, handlers)
    return factory


class TestUnframableReply:
    """A reply that cannot be framed is the op's failure: a typed error
    on the same connection, not a dead connection thread."""

    @pytest.mark.parametrize("handler, error_type", [
        (lambda _payload: "x" * 5000, "FrameTooLarge"),
        (lambda _payload: {1, 2, 3}, "TypeError"),
        (lambda _payload: (lambda loop: loop.append(loop) or loop)([]),
         "RecursionError"),
    ], ids=["oversize", "not-json", "circular"])
    def test_typed_error_and_the_connection_stays_usable(
            self, handler, error_type):
        node = Node("framing", with_handlers({"bad": handler}),
                    max_frame=1024)
        try:
            client = node.client()
            sock = client._sock
            with pytest.raises(RpcError) as info:
                client.handler("bad")
            assert info.value.error_type == error_type
            assert client.ping()["node"] == "framing"
            assert client._sock is sock  # it never had to reconnect
            # Read in process: a ``stats`` reply carries process-wide
            # counters and may itself outgrow this node's 1 KiB frame.
            assert node.server.stats()["connections"] == 1
            client.close()
        finally:
            node.close()

    def test_error_reply_quoting_a_frame_sized_key_is_cut_to_fit(self):
        node = Node("framing", bench_world, max_frame=1024)
        try:
            client = node.client()
            sock = client._sock
            with pytest.raises(RpcError) as info:
                client.call("sessions", service="\U0001f511" * 80)
            assert info.value.error_type == "KeyError"
            assert client.ping()["node"] == "framing"
            assert client._sock is sock
            client.close()
        finally:
            node.close()


class TestConcurrency:
    """Connection threads share ONE service lock: hosted state is never
    entered twice at once, and only state-touching ops wait for it."""

    def test_four_connections_never_overlap_inside_the_services(self):
        inside, overlaps = [], []

        def probe(payload):
            inside.append(payload)
            if len(inside) > 1:
                overlaps.append(list(inside))
            time.sleep(0)  # invite a switch while "inside"
            inside.pop()
            return payload

        node = Node("busy", with_handlers({"probe": probe}))
        serials, wrong = [], []

        def session(index):
            client = node.client()
            for step in range(200):
                who = f"t{index}-u{step}"
                rmc = client.activate("svc", who, "user", [who])
                serials.append(str(rmc.ref))
                if rmc.role.parameters != (who,):
                    wrong.append(("activate", who))
                if client.invoke("svc", who, "echo", [who],
                                 credentials=[rmc]) != who:
                    wrong.append(("invoke", who))
                if client.is_active(rmc.ref) is not True:
                    wrong.append(("is_active", who))
                if client.handler("probe", who) != who:
                    wrong.append(("probe", who))
                if client.ping()["node"] != "busy":
                    wrong.append(("ping", who))
            client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            before = node.server.requests
            threads = [threading.Thread(target=session, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == [] and overlaps == []
            assert len(set(serials)) == 800
            client = node.client()
            # Every frame counted, the lock-free pings and this one too.
            assert client.stats()["requests"] == before + 4 * 200 * 5 + 1
            client.close()
        finally:
            sys.setswitchinterval(interval)
            node.close()

    def test_only_state_touching_ops_wait_for_a_busy_handler(self):
        entered, release = threading.Event(), threading.Event()
        order = []

        def block(_payload):
            entered.set()
            release.wait(10)
            order.append("handler")

        node = Node("held", with_handlers({"block": block}),
                    request_timeout=0.2)
        try:
            holder, prober, waiter = (node.client() for _ in range(3))
            ref = waiter.activate("svc", "alice", "user", ["alice"]).ref
            holding = threading.Thread(target=holder.handler,
                                       args=("block",))
            holding.start()
            assert entered.wait(5)
            # Liveness and route discovery answer while the op runs...
            assert prober.ping()["node"] == "held"
            assert prober.services()["node"] == "held"
            # ...a state-touching op gets a typed refusal once its wait
            # for the lock runs out, and its connection stays usable...
            with pytest.raises(RpcError) as info:
                waiter.is_active(ref)
            assert info.value.error_type == "TimeoutError"
            assert waiter.ping()["node"] == "held"
            # ...and a remote batch waits as long as it takes.
            batch = threading.Thread(
                target=node.server.submit, args=(order.append, "batch"))
            batch.start()
            batch.join(timeout=0.5)  # well past request_timeout
            assert batch.is_alive() and order == []
            release.set()
            for thread in (holding, batch):
                thread.join(timeout=5)
                assert not thread.is_alive()
            assert order == ["handler", "batch"]
            assert waiter.is_active(ref)
            for client in (holder, prober, waiter):
                client.close()
        finally:
            release.set()
            node.close()

    def test_close_returns_after_the_reply_in_flight_was_written(self):
        entered, release = threading.Event(), threading.Event()
        replies, closed = [], threading.Event()

        def slow(_payload):
            entered.set()
            release.wait(10)
            return "done"

        node = Node("closing", with_handlers({"slow": slow}))
        client = node.client()
        caller = threading.Thread(
            target=lambda: replies.append(client.handler("slow")))
        closer = threading.Thread(
            target=lambda: (node.server.close(), closed.set()))
        try:
            caller.start()
            assert entered.wait(5)
            closer.start()
            assert not closed.wait(0.3)  # close() waits for the op
            release.set()
            assert closed.wait(5)
            # Written before close() returned: the caller reads a reply,
            # not a dead connection.
            caller.join(timeout=5)
            assert not caller.is_alive()
            assert replies == ["done"]
        finally:
            release.set()
            client.close()
            node.close()
