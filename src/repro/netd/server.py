"""The OASIS socket server: services behind the Sect. 4.1 handshake.

One :class:`OasisServer` hosts the :class:`~repro.core.service.OasisService`
instances of one process behind the frame protocol of
:mod:`repro.netd.protocol`.  The service ops (``activate`` … ``checkpoint``)
are not defined here: :mod:`repro.netd.ops` is their single definition.
This module adds what is about the host, not a service — the lock-free
ops (``ping``, ``services``, ``subscribe_events``, ``shutdown``), the
handshake (``auth.*``), inbound callback ``validate_many`` and ``stats``.
:class:`~repro.shard.worker.ShardWorker` is the one subclass: the server
of a ``--shard I/N`` node.

Threading model (the part worth understanding) — threads on blocking
sockets, like :class:`~repro.netd.client.OasisClient`:

* An **accept thread** gives every connection its own **connection
  thread** running ``recv → decode → handle → send``.
* ONE lock is "the service worker": whatever touches shared state — a
  service op, the handshake's challenge store, a remote event batch
  entering the broker — runs under it on the calling thread, so every
  hosted service stays effectively single-threaded — same guarantee the
  in-process world gives them.  The lock-free ops touch nothing it
  protects: liveness and route discovery answer while an op runs.
* When a handler holding the lock needs the network itself — the
  records service validating a foreign certificate by callback to its
  issuer — it blocks *its own thread* in ``recv`` on that
  :class:`~repro.netd.client.OasisClient`'s socket.  Nested RPC cannot
  deadlock the process (the peer's reply needs only the *peer's* lock:
  the issuer validates from its own state and never calls back), and
  requests waiting behind the blocked handler are exactly the requests
  that must wait anyway (single-threaded state).
* Events published under the lock go to the
  :class:`~repro.netd.events.EventPump` before the lock is released and
  leave on the pump's own thread: a slow subscriber delays no RPC.

Backpressure and timeouts: frames on one connection are processed
strictly in order and the next read happens only after the response is
written, so a client gets per-connection backpressure for free; a slow
*reader* stalls only its own connection thread.  ``request_timeout``
bounds an RPC's wait *for the lock* (``TimeoutError``-typed error
response, connection still usable), not the handler's run time — the
client's whole-call deadline covers a handler that never returns.
Graceful shutdown stops accepting, lets the op in flight finish, pushes
what the pump has queued and lets replies in flight go out.

The challenge–response handshake (``auth.hello`` → ``auth.prove``)
proves possession of the private key for a presented public key and
pins the connection to the ``key:<fingerprint>`` identity.  With
``require_handshake=True`` every state-touching op is refused until the
proof succeeds; ``ping``/``auth.*``/``services`` stay open (liveness
probes and route discovery carry no authority).
"""

from __future__ import annotations

import socket
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, Optional, Set

from ..core import wire
from ..core.exceptions import CredentialInvalid
from ..core.service import OasisService
from ..crypto.challenge import ChallengeResponseServer
from ..crypto.rsa import RSAPublicKey
from ..events import EventBroker
from ..obs.runtime import Observability
from .events import EventPump
from .ops import ServiceOps
from .protocol import (
    MAX_FRAME,
    ConnectionLost,
    FrameDecoder,
    HandshakeError,
    ProtocolError,
    encode_frame,
    error_payload,
)

__all__ = ["OasisServer"]

#: Ops allowed before (or without) a successful handshake: liveness,
#: the handshake itself, and route discovery — none confer authority.
_UNGATED_OPS = frozenset({"ping", "auth.hello", "auth.prove", "services"})

#: How long :meth:`OasisServer.close` waits on a peer that does not read
#: (queued pushes, a reply in flight) before cutting it off.
_CLOSE_GRACE = 5.0


class _Connection:
    """Per-connection state: socket + thread + send lock + auth."""

    __slots__ = ("sock", "max_frame", "thread", "lock", "principal",
                 "closing")

    def __init__(self, sock: socket.socket, max_frame: int,
                 serve: Callable[["_Connection"], None], name: str) -> None:
        self.sock = sock
        self.max_frame = max_frame
        self.thread = threading.Thread(target=serve, args=(self,),
                                       name=name, daemon=True)
        # Replies come from the connection thread, pushes from the
        # pump's: one frame at a time on the wire.
        self.lock = threading.Lock()
        self.principal: Optional[str] = None
        self.closing = False

    def send(self, payload: Dict[str, Any]) -> None:
        self.write(encode_frame(payload, self.max_frame))

    def write(self, data: bytes) -> None:
        with self.lock:
            try:
                self.sock.sendall(data)
            except OSError as error:
                raise ConnectionLost(f"connection lost: {error}") from error

    def shutdown(self, how: int) -> None:
        self.closing = True  # for a peer whose requests keep coming
        try:
            self.sock.shutdown(how)
        except OSError:
            pass  # the peer (or the connection thread) got there first


class OasisServer:
    """Serve a set of OASIS services over TCP."""

    def __init__(self, node: str, services: Mapping[str, OasisService], *,
                 broker: Optional[EventBroker] = None,
                 network: Optional[Any] = None,
                 handlers: Optional[Mapping[str, Callable[[Any], Any]]]
                 = None,
                 host: str = "127.0.0.1", port: int = 0,
                 require_handshake: bool = False,
                 request_timeout: float = 30.0,
                 max_frame: int = MAX_FRAME,
                 pipeline: Optional[Observability] = None) -> None:
        self.node = node
        self.services: Dict[str, OasisService] = dict(services)
        self.broker = broker
        self.network = network
        self.handlers: Dict[str, Callable[[Any], Any]] = \
            dict(handlers or {})
        self.host = host
        self.port = port  # rewritten with the bound port on start()
        self.require_handshake = require_handshake
        self.request_timeout = request_timeout
        self.max_frame = max_frame
        self._ops = ServiceOps(node, self.services, self.handlers, pipeline)
        # The service worker: hosted services stay single-threaded.
        self._lock = threading.Lock()
        self._challenges = ChallengeResponseServer(clock=time.monotonic)
        # challenge_id -> key fingerprint: the identity a proof binds to
        # comes from the key presented at hello, never from the prover's
        # claim.  Bounded alongside the challenge store.
        self._challenge_keys: "OrderedDict[str, str]" = OrderedDict()
        self._listener: Optional[socket.socket] = None
        self._acceptor = threading.Thread(
            target=self._accept_loop, name=f"oasis-{node}-accept",
            daemon=True)
        self._connections: Set[_Connection] = set()
        self._closing = False
        self.pump = EventPump(node)
        self.pump.max_frame = max_frame
        # peer -> EventChannel, registered by the serve bootstrap before
        # start() so ping can report subscription liveness (readiness
        # gates on it: a node whose inbound event channel is still
        # reconnecting would silently miss cascade events published in
        # the gap).
        self.channels: Dict[str, Any] = {}
        self.shutdown_requested = threading.Event()
        self.requests = 0
        self._requests_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "OasisServer":
        if self.broker is not None:
            self.pump.attach(self.broker)
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        self._acceptor.start()
        return self

    def serve_until_shutdown(self) -> None:
        """Run until a client issues the ``shutdown`` op, then close."""
        self.shutdown_requested.wait()
        self.close()

    def close(self) -> None:
        """Graceful shutdown: stop accepting, finish the op in flight,
        push what is queued, let replies in flight go out, close every
        connection."""
        if self._closing:
            return
        self._closing = True
        if self._listener is not None:
            try:
                # close() alone neither wakes a thread blocked in accept()
                # nor frees the port on Linux.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # platforms that refuse it wake accept() on close()
            self._listener.close()
            self._acceptor.join()
        # Through the lock: the op in flight finishes (so the last
        # response's state mutations are not torn) and flushes first.
        self._locked(-1, self.pump.detach, _CLOSE_GRACE)
        for conn in list(self._connections):
            # EOF wakes the reader; a reply in flight still goes out.
            conn.shutdown(socket.SHUT_RD)
            conn.thread.join(_CLOSE_GRACE)
            conn.shutdown(socket.SHUT_RDWR)

    def _locked(self, wait: float, fn: Callable[..., Any],
                *args: Any) -> Any:
        """Run ``fn`` as the service worker: under THE lock, on the
        calling thread, waiting at most ``wait`` seconds for it (``-1``:
        without bound).  Events ``fn`` published leave as one push frame,
        queued before the next holder can publish."""
        if not self._lock.acquire(timeout=wait):
            raise TimeoutError(
                f"{self.node} stayed busy with another request for "
                f"{wait}s")
        try:
            return fn(*args)
        finally:
            try:
                self.pump.flush()
            finally:
                self._lock.release()

    def submit(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn`` as the service worker (used by the deploy layer to
        deliver remote event batches into the broker without racing the
        dispatch path).  Waits without bound: a remote batch is never
        dropped for arriving at a busy node."""
        return self._locked(-1, fn, *args)

    # -- connection handling ------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, _address = self._listener.accept()
            except OSError:
                if self._closing:
                    return
                time.sleep(0.1)  # out of descriptors, say: keep listening
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, self.max_frame, self._serve_connection,
                               f"oasis-{self.node}-conn")
            self._connections.add(conn)
            conn.thread.start()

    def _serve_connection(self, conn: _Connection) -> None:
        decoder = FrameDecoder(self.max_frame)
        try:
            while not conn.closing:
                try:
                    data = conn.sock.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except ProtocolError as error:
                    # Malformed bytes: one typed parting error, then the
                    # connection is unusable (framing is lost).
                    try:
                        conn.send({"id": None, "ok": False,
                                   "error": error_payload(error)})
                    except ConnectionLost:
                        pass
                    break
                for frame in frames:
                    self._handle_frame(conn, frame)
        finally:
            self.pump.unsubscribe(conn.send)
            self._connections.discard(conn)
            conn.shutdown(socket.SHUT_RDWR)  # wakes a push stuck in send
            conn.sock.close()

    def _handle_frame(self, conn: _Connection,
                      frame: Dict[str, Any]) -> None:
        with self._requests_lock:  # every connection thread counts here
            self.requests += 1
        request_id = frame.get("id")
        op = frame.get("op")
        try:
            if self.require_handshake and conn.principal is None \
                    and op not in _UNGATED_OPS:
                raise HandshakeError(
                    f"{self.node} requires a completed challenge-response "
                    f"handshake before {op!r}")
            value = self._dispatch(conn, frame, op)
            # Framed in here: a reply that is too large or not JSON is
            # the op's failure, answered like one.
            data = encode_frame({"id": request_id, "ok": True,
                                 "value": value}, self.max_frame)
            ok = True
        except Exception as error:  # noqa: BLE001 - crosses the wire
            payload = error_payload(error)
            # The message may quote the request (an unknown key as long
            # as a frame): cut it to what fits even if every character
            # escapes to 12 bytes.
            payload["message"] = payload["message"][:self.max_frame // 16]
            data = encode_frame({"id": request_id, "ok": False,
                                 "error": payload}, self.max_frame)
            ok = False
        try:
            conn.write(data)
        except ConnectionLost:
            return
        if op == "shutdown" and ok:
            self.shutdown_requested.set()

    def _dispatch(self, conn: _Connection, frame: Dict[str, Any],
                  op: Any) -> Any:
        # Lock-free ops: nothing the service lock protects is touched.
        if op == "ping":
            return {"node": self.node, "services": sorted(self.services),
                    "channels": {peer: channel.connected.is_set()
                                 for peer, channel
                                 in self.channels.items()}}
        if op == "services":
            return self._describe_services()
        if op == "subscribe_events":
            if self.broker is None:
                # A silent subscription would read as "no revocations".
                raise ValueError(
                    f"node {self.node!r} has no event broker: it pushes "
                    f"nothing to subscribers")
            self.pump.subscribe(conn.send)
            return {"subscribed": True}
        if op == "shutdown":
            return None
        # Everything else touches shared state (the services, the
        # challenge store): under the lock, bounded by the request timeout.
        return self._locked(self.request_timeout, self._execute, conn,
                            frame, op)

    # -- handshake ----------------------------------------------------------
    def _auth_hello(self, frame: Mapping[str, Any]) -> Dict[str, Any]:
        key = frame.get("key") or {}
        try:
            public = RSAPublicKey(n=int(key["n"]), e=int(key["e"]))
        except (KeyError, TypeError, ValueError) as error:
            raise HandshakeError(
                f"malformed public key in auth.hello: {error}") from None
        issued = self._challenges.issue(public)
        self._challenge_keys[issued.challenge_id] = public.fingerprint()
        while len(self._challenge_keys) > \
                ChallengeResponseServer.DEFAULT_MAX_PENDING:
            self._challenge_keys.popitem(last=False)
        return {"challenge_id": issued.challenge_id,
                "challenge": issued.encrypted_challenge.hex(),
                "nonce": issued.nonce.hex()}

    def _auth_prove(self, conn: _Connection,
                    frame: Mapping[str, Any]) -> Dict[str, Any]:
        try:
            challenge_id = str(frame["challenge_id"])
            response = bytes.fromhex(frame["response"])
        except (KeyError, TypeError, ValueError) as error:
            raise HandshakeError(
                f"malformed auth.prove: {error}") from None
        fingerprint = self._challenge_keys.pop(challenge_id, None)
        if not self._challenges.verify(challenge_id, response) \
                or fingerprint is None:
            raise HandshakeError("challenge-response proof failed")
        conn.principal = f"key:{fingerprint}"
        return {"principal": conn.principal}

    def _describe_services(self) -> Dict[str, Any]:
        """The ``services`` reply: also the callback route table a peer's
        :class:`~repro.netd.client.RemoteNetwork` builds."""
        return {
            "node": self.node,
            "services": [{"key": key, "domain": service.id.domain,
                          "name": service.id.name}
                         for key, service in self.services.items()],
        }

    # -- ops under the lock -------------------------------------------------
    def _execute(self, conn: _Connection, frame: Mapping[str, Any],
                 op: Any) -> Any:
        if op == "auth.hello":
            return self._auth_hello(frame)
        if op == "auth.prove":
            return self._auth_prove(conn, frame)
        if op == "validate_many":
            return self._op_validate_many(frame)
        if op == "stats":
            return self.stats()
        return self._ops.execute(op, frame)

    def _op_validate_many(self, frame: Mapping[str, Any]) -> Any:
        """Inbound Sect. 4 callback validations, one verdict per entry
        ``{cert, principal, holder}``: each goes to the hosted service
        whose id is the decoded certificate's ``issuer``, and that
        service's MAC check refuses a certificate whose issuer was
        edited.  A refusal — or an issuer this node does not host — is
        the entry's typed error, so the caller re-raises
        ``CredentialRevoked`` as itself."""
        hosted = self._ops._by_id
        verdicts: List[Any] = []
        for entry in frame["entries"]:
            try:
                certificate = wire.certificate_from_text(entry["cert"])
                issuer = hosted.get(certificate.issuer)
                if issuer is None:
                    raise CredentialInvalid(
                        f"cannot validate: {self.node} does not host "
                        f"issuer {certificate.issuer}")
                valid = issuer._serve_validation(
                    certificate, entry.get("principal"), entry.get("holder"))
            except Exception as error:  # noqa: BLE001 - crosses the wire
                verdicts.append(error_payload(error))
            else:
                # Only the literal ``True`` vouches, here as at the caller.
                verdicts.append(valid is True)
        return {"entries": verdicts}

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        service_stats = {key: service.stats.snapshot()
                         for key, service in self.services.items()}
        live = sum(len(service.active_credentials())
                   for service in self.services.values())
        return {
            "node": self.node,
            "requests": self.requests,
            "connections": len(self._connections),
            "live_credentials": live,
            "services": service_stats,
            "broker": self.broker.stats() if self.broker is not None
            else {},
            "pump": {
                "subscribers": self.pump.subscriber_count,
                "pushed_events": self.pump.pushed_events,
                "pushed_batches": self.pump.pushed_batches,
                "skipped_events": self.pump.skipped_events,
            },
            "handshake": {
                "pending": self._challenges.pending_count,
                "expired": self._challenges.expired_count,
                "evicted": self._challenges.evicted_count,
            },
            # Hit ratio of this process's certificate decode map, and the
            # batching factor of its outbound callbacks (entries / rpcs).
            "wire": wire.decode_stats(),
            "callbacks": {
                "rpcs": getattr(self.network, "callback_rpcs", 0),
                "entries": getattr(self.network, "callback_entries", 0),
            },
        }
