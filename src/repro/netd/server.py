"""The OASIS socket server: services behind the Sect. 4.1 handshake.

One :class:`OasisServer` hosts the :class:`~repro.core.service.OasisService`
instances of one process behind the frame protocol of
:mod:`repro.netd.protocol`.  The service ops (``activate`` … ``checkpoint``)
are not defined here: :mod:`repro.netd.ops` is their single definition,
shared with :class:`~repro.shard.worker.ShardWorker`.  This module adds
what only a socket server has — the loop-thread ops (``ping``,
``auth.*``, ``services``, ``subscribe_events``, ``shutdown``), inbound
callback ``validate`` and ``stats``.

Threading model (the part worth understanding):

* The **event loop** does I/O only: accepting, framing, responding,
  pushing event batches.  It never executes service code.
* All service-state-touching ops run on ONE worker thread (a
  single-slot executor), so every hosted service stays effectively
  single-threaded — same guarantee the in-process world gives them.
* When a handler on the worker thread needs the network itself — the
  records service validating a foreign certificate by callback to its
  issuer — it blocks the *worker thread* in ``recv`` on that
  :class:`~repro.netd.client.OasisClient`'s own socket.  The serving
  loop is a different thread and stays free, so nested RPC cannot
  deadlock the process (the peer's reply never needs this node's
  worker: the issuer validates from its own state), and requests queued
  behind the blocked worker are exactly the requests that must wait
  anyway (single-threaded state).  A served node therefore runs two
  threads — serving loop and service worker — and no client loop.

Backpressure and timeouts: frames on one connection are processed
strictly in order and the next read happens only after the response is
written and drained, so a client gets per-connection backpressure for
free; a slow *reader* stalls only its own connection (``drain``), and a
handler exceeding ``request_timeout`` gets an ``RpcTimeout``-typed error
response.  Graceful shutdown stops accepting, flushes the event pump,
and lets the worker finish the op in flight.

The challenge–response handshake (``auth.hello`` → ``auth.prove``)
proves possession of the private key for a presented public key and
pins the connection to the ``key:<fingerprint>`` identity.  With
``require_handshake=True`` every state-touching op is refused until the
proof succeeds; ``ping``/``auth.*``/``services`` stay open (liveness
probes and route discovery carry no authority).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, Optional, Set

from ..core import wire
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
    HandshakeError,
    ProtocolError,
    error_payload,
    read_frame,
    send_frame,
)

__all__ = ["OasisServer"]

#: Ops allowed before (or without) a successful handshake: liveness,
#: the handshake itself, and route discovery — none confer authority.
_UNGATED_OPS = frozenset({"ping", "auth.hello", "auth.prove", "services"})


class _Connection:
    """Per-connection state: writer + send lock + auth + subscription."""

    __slots__ = ("writer", "lock", "principal", "pump_key")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.principal: Optional[str] = None
        self.pump_key: Optional[int] = None

    async def send(self, payload: Dict[str, Any], max_frame: int) -> None:
        async with self.lock:
            await send_frame(self.writer, payload, max_frame)


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
        # ONE worker slot: hosted services stay single-threaded.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"oasis-{node}")
        self._challenges = ChallengeResponseServer(clock=time.monotonic)
        # challenge_id -> key fingerprint: the identity a proof binds to
        # comes from the key presented at hello, never from the prover's
        # claim.  Bounded alongside the challenge store.
        self._challenge_keys: "OrderedDict[str, str]" = OrderedDict()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: Set[_Connection] = set()
        self._closing = False
        self.pump: Optional[EventPump] = None
        # peer -> EventChannel, registered by the serve bootstrap so ping
        # can report subscription liveness (readiness gates on it: a node
        # whose inbound event channel is still reconnecting would silently
        # miss cascade events published in the gap).
        self.channels: Dict[str, Any] = {}
        self.shutdown_requested = asyncio.Event()
        self.requests = 0

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "OasisServer":
        self._loop = asyncio.get_running_loop()
        self.pump = EventPump(self.node, self._loop, self.max_frame)
        if self.broker is not None:
            self.pump.attach(self.broker)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_until_shutdown(self) -> None:
        """Run until a client issues the ``shutdown`` op, then close."""
        await self.shutdown_requested.wait()
        await self.close()

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, flush events, finish the
        op in flight, close every connection."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pump is not None:
            await self.pump.flush()
            self.pump.detach()
        for conn in list(self._connections):
            conn.writer.close()
        # The worker may still be inside a handler; let it finish so the
        # last response's state mutations are not torn.
        await asyncio.get_running_loop().run_in_executor(
            None, functools.partial(self._executor.shutdown, wait=True))

    def submit(self, fn: Callable[..., Any], *args: Any
               ) -> "concurrent.futures.Future[Any]":
        """Run ``fn`` on the service worker thread (used by the deploy
        layer to deliver remote event batches into the broker without
        racing the dispatch path)."""
        return self._executor.submit(fn, *args)

    # -- connection handling ------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        try:
            while not self._closing:
                try:
                    frame = await read_frame(reader, self.max_frame)
                except ProtocolError as error:
                    # Malformed bytes: one typed parting error, then the
                    # connection is unusable (framing is lost).
                    try:
                        await conn.send({"id": None, "ok": False,
                                         "error": error_payload(error)},
                                        self.max_frame)
                    except ConnectionLost:
                        pass
                    break
                except ConnectionLost:
                    break
                if frame is None:
                    break
                await self._handle_frame(conn, frame)
        finally:
            if conn.pump_key is not None and self.pump is not None:
                self.pump.unsubscribe(conn.pump_key)
            self._connections.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_frame(self, conn: _Connection,
                            frame: Dict[str, Any]) -> None:
        self.requests += 1
        request_id = frame.get("id")
        op = frame.get("op")
        try:
            if self.require_handshake and conn.principal is None \
                    and op not in _UNGATED_OPS:
                raise HandshakeError(
                    f"{self.node} requires a completed challenge-response "
                    f"handshake before {op!r}")
            value = await self._dispatch(conn, frame, op)
            response = {"id": request_id, "ok": True, "value": value}
        except Exception as error:  # noqa: BLE001 - crosses the wire
            response = {"id": request_id, "ok": False,
                        "error": error_payload(error)}
        try:
            await conn.send(response, self.max_frame)
        except ConnectionLost:
            return
        if op == "shutdown" and response["ok"]:
            self.shutdown_requested.set()

    async def _dispatch(self, conn: _Connection, frame: Dict[str, Any],
                        op: Any) -> Any:
        # Loop-thread ops: no service state touched.
        if op == "ping":
            return {"node": self.node, "services": sorted(self.services),
                    "channels": {peer: channel.connected.is_set()
                                 for peer, channel
                                 in self.channels.items()}}
        if op == "auth.hello":
            return self._auth_hello(frame)
        if op == "auth.prove":
            return self._auth_prove(conn, frame)
        if op == "services":
            return self._describe_services()
        if op == "subscribe_events":
            if self.pump is None:
                raise RuntimeError(f"{self.node} is not started")
            if conn.pump_key is None:
                conn.pump_key = self.pump.subscribe(
                    lambda push: conn.send(push, self.max_frame))
            return {"subscribed": True}
        if op == "shutdown":
            return None
        # Everything else mutates or reads service state: worker thread,
        # bounded by the request timeout.
        assert self._loop is not None
        future = self._loop.run_in_executor(
            self._executor, functools.partial(self._execute, frame, op))
        try:
            return await asyncio.wait_for(future, self.request_timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(
                f"{self.node} did not finish {op!r} within "
                f"{self.request_timeout}s") from None

    # -- handshake ----------------------------------------------------------
    def _auth_hello(self, frame: Dict[str, Any]) -> Dict[str, Any]:
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
                    frame: Dict[str, Any]) -> Dict[str, Any]:
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
        endpoints: List[Dict[str, str]] = []
        if self.network is not None:
            endpoints = self.network.local_endpoints()
        return {
            "node": self.node,
            "services": [{"key": key, "domain": service.id.domain,
                          "name": service.id.name}
                         for key, service in self.services.items()],
            "endpoints": endpoints,
        }

    # -- worker-thread ops --------------------------------------------------
    def _execute(self, frame: Mapping[str, Any], op: Any) -> Any:
        if op == "validate":
            return self._op_validate(frame)
        if op == "stats":
            return self.stats()
        return self._ops.execute(op, frame)

    def _op_validate(self, frame: Mapping[str, Any]) -> Any:
        """Inbound Sect. 4 callback validation: route to the local
        handler a hosted service registered on the RemoteNetwork."""
        if self.network is None:
            raise RuntimeError(f"{self.node} has no network attached")
        certificate = wire.decode_certificate(frame["cert"])
        valid = self.network.local_call(
            frame["domain"], frame["endpoint"], certificate,
            frame.get("principal"), frame.get("holder"))
        return {"valid": bool(valid)}

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        service_stats = {key: service.stats.snapshot()
                         for key, service in self.services.items()}
        live = sum(len(service.active_credentials())
                   for service in self.services.values())
        pump = self.pump
        return {
            "node": self.node,
            "requests": self.requests,
            "connections": len(self._connections),
            "live_credentials": live,
            "services": service_stats,
            "broker": self.broker.stats() if self.broker is not None
            else {},
            "pump": {
                "subscribers": pump.subscriber_count if pump else 0,
                "pushed_events": pump.pushed_events if pump else 0,
                "pushed_batches": pump.pushed_batches if pump else 0,
                "skipped_events": pump.skipped_events if pump else 0,
            },
            "handshake": {
                "pending": self._challenges.pending_count,
                "expired": self._challenges.expired_count,
                "evicted": self._challenges.evicted_count,
            },
        }
