"""Clients for the OASIS socket protocol.

Two layers:

* :class:`OasisClient` — one blocking TCP connection to an
  :class:`~repro.netd.server.OasisServer`, one request in flight: the
  paper's Sect. 4 caller ("validate a certificate presented as an
  argument via callback to the issuer"), and what every caller in the
  tree is.  Exposes the service surface scenario code already speaks
  (``activate`` / ``invoke`` / ``revoke`` / ``is_active`` …); requests
  are built by the encoders of :mod:`repro.netd.ops`, certificates
  decoded back into real :mod:`repro.core` objects.
* :class:`RemoteNetwork` — the network of a served process: an
  :class:`~repro.core.service.OasisService` constructed with
  ``network=RemoteNetwork(...)`` performs Sect. 4 callback validation
  against *remote* issuers — one ``validate_many`` RPC per issuing peer
  per request — through the same ``validate_many(caller, requests)``
  call :class:`~repro.net.sim.SimNetwork` answers.  The route is the
  certificate's issuer: issuers in the caller's registry answer without
  a socket, the rest go to the peer whose ``services`` reply lists that
  :class:`~repro.core.types.ServiceId` (discovered lazily and cached);
  an issuer no peer lists fails closed.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import wire
from ..core.credentials import CredentialRef
from ..core.state import ref_payload
from ..core.types import ServiceId
from ..crypto.challenge import ChallengeResponseClient, IssuedChallenge
from ..crypto.keys import KeyPair
from .ops import activation_payload, presentation_payloads
from .protocol import (
    MAX_FRAME,
    ConnectionLost,
    FrameDecoder,
    OasisNetError,
    ProtocolError,
    RpcTimeout,
    encode_frame,
    raise_remote_error,
    remote_error,
)

__all__ = ["OasisClient", "RemoteNetwork"]


def _remaining(deadline: float) -> float:
    """Seconds left of a whole-call deadline, for ``settimeout`` (which
    must never see 0: that means non-blocking)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise socket.timeout("deadline passed")
    return remaining


class OasisClient:
    """One blocking connection to an :class:`~repro.netd.server.OasisServer`.

    Connects lazily on the first call and again after any transport
    failure.  A lock admits one request at a time, so threads may share
    a client; each blocks only itself, which is what lets a handler on
    a served node make a nested callback-validation RPC while the
    node's other connection threads keep answering.
    """

    def __init__(self, host: str, port: int, *, peer: str = "server",
                 timeout: float = 10.0,
                 max_frame: int = MAX_FRAME) -> None:
        self.host = host
        self.port = port
        self.peer = peer
        self.timeout = timeout
        self.max_frame = max_frame
        #: ``key:<fingerprint>`` once :meth:`handshake` succeeded on the
        #: current connection.
        self.principal: Optional[str] = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._decoder = FrameDecoder(max_frame)

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> "OasisClient":
        with self._lock:
            if self._sock is None:
                self._open(self.timeout)
        return self

    def close(self) -> None:
        with self._lock:
            self._drop()

    def __enter__(self) -> "OasisClient":
        return self.connect()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _open(self, timeout: float) -> socket.socket:
        try:
            sock = socket.create_connection((self.host, self.port), timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as error:
            raise ConnectionLost(
                f"cannot connect to {self.peer} at "
                f"{self.host}:{self.port}: {error}") from error
        self._sock = sock
        return sock

    def _drop(self) -> None:
        """Close the connection and forget everything bound to it."""
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()
        self._decoder = FrameDecoder(self.max_frame)
        self.principal = None

    # -- raw + auth ---------------------------------------------------------
    def call(self, op: str, *, _timeout: Optional[float] = None,
             **fields: Any) -> Any:
        """One RPC; returns the response value or raises.

        Transport failures raise :class:`~repro.netd.protocol`
        errors; remote handler failures re-raise as core exceptions or
        :class:`~repro.netd.protocol.RpcError`.  ``timeout`` bounds the
        whole call (connect, send, every ``recv``).  Any transport
        failure closes the connection — after a deadline miss or a
        framing error, frames on it can no longer be trusted to match
        requests that may still be executing remotely — and the next
        call reconnects.
        """
        timeout = self.timeout if _timeout is None else _timeout
        deadline = time.monotonic() + timeout
        request_id = next(self._ids)
        message = {"id": request_id, "op": op}
        message.update(fields)
        request = encode_frame(message, self.max_frame)
        with self._lock:
            try:
                sock = self._sock or self._open(timeout)
                sock.settimeout(_remaining(deadline))
                sock.sendall(request)
                response = self._read_reply(sock, deadline)
                if response.get("id") != request_id:
                    raise ProtocolError(
                        f"{self.peer} answered request {request_id} "
                        f"({op!r}) with id {response.get('id')!r}")
            except socket.timeout:  # before OSError: distinct on 3.9
                self._drop()
                raise RpcTimeout(
                    f"{self.peer} did not answer {op!r} within {timeout}s"
                ) from None
            except OasisNetError:
                self._drop()
                raise
            except OSError as error:
                self._drop()
                raise ConnectionLost(
                    f"connection to {self.peer} failed: {error}") from error
        if response.get("ok"):
            return response.get("value")
        raise_remote_error(self.peer, response.get("error"))

    def _read_reply(self, sock: socket.socket,
                    deadline: float) -> Dict[str, Any]:
        """The next non-push frame.  Nothing subscribes on this
        connection (event pushes have their own, see
        :class:`~repro.netd.events.EventChannel`), so a ``push`` frame
        is a stray and is skipped."""
        while True:
            sock.settimeout(_remaining(deadline))
            data = sock.recv(65536)
            if not data:
                raise ConnectionLost(f"{self.peer} closed the connection")
            for frame in self._decoder.feed(data):
                if "push" not in frame:
                    return frame

    def handshake(self, keypair: KeyPair) -> str:
        """Prove possession of ``keypair``'s private key (Sect. 4.1).

        Returns the key-derived principal identity the server will
        associate with this connection (``key:<fingerprint>``)."""
        public = keypair.public
        issued = self.call("auth.hello",
                           key={"n": str(public.n), "e": str(public.e)})
        response = ChallengeResponseClient(keypair).respond(IssuedChallenge(
            challenge_id=issued["challenge_id"],
            encrypted_challenge=bytes.fromhex(issued["challenge"]),
            nonce=bytes.fromhex(issued["nonce"])))
        proved = self.call("auth.prove",
                           challenge_id=issued["challenge_id"],
                           response=response.hex())
        self.principal = proved["principal"]
        return self.principal

    # -- service surface ----------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.call("ping")

    def services(self) -> Dict[str, Any]:
        return self.call("services")

    def activate(self, service: str, principal: str, role: str,
                 parameters: Optional[Sequence[Any]] = None,
                 credentials: Sequence[Any] = (),
                 environment: Optional[Dict[str, Any]] = None,
                 session: Optional[str] = None) -> Any:
        value = self.call(
            "activate", service=service,
            request=activation_payload(principal, role, parameters,
                                       credentials, environment, session))
        return wire.certificate_from_text(value["cert"])

    def activate_bulk(self, service: str,
                      requests: Sequence[Dict[str, Any]]) -> List[Any]:
        value = self.call("activate_bulk", service=service,
                          requests=list(requests))
        return [wire.certificate_from_text(cert) for cert in value["certs"]]

    def appoint(self, service: str, appointer: str, name: str,
                parameters: Sequence[Any],
                credentials: Sequence[Any] = (),
                holder: Optional[str] = None,
                expires_at: Optional[float] = None) -> Any:
        value = self.call(
            "appoint", service=service, appointer=appointer, name=name,
            parameters=list(parameters),
            credentials=presentation_payloads(credentials),
            holder=holder, expires_at=expires_at)
        return wire.certificate_from_text(value["cert"])

    def invoke(self, service: str, principal: str, method: str,
               arguments: Sequence[Any] = (),
               credentials: Sequence[Any] = ()) -> Any:
        value = self.call(
            "invoke", service=service, principal=principal, method=method,
            arguments=list(arguments),
            credentials=presentation_payloads(credentials))
        return value["result"]

    def revoke(self, ref: CredentialRef, reason: str = "revoked") -> bool:
        value = self.call("revoke", ref=ref_payload(ref), reason=reason)
        return bool(value["revoked"])

    def is_active(self, ref: CredentialRef) -> bool:
        value = self.call("is_active", ref=ref_payload(ref))
        return bool(value["active"])

    def record(self, ref: CredentialRef) -> Dict[str, Any]:
        return self.call("record", ref=ref_payload(ref))

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def spans(self, trace_id: Optional[str] = None,
              name: Optional[str] = None) -> List[Dict[str, Any]]:
        return self.call("spans", trace_id=trace_id, name=name)["spans"]

    def handler(self, name: str, payload: Any = None) -> Any:
        return self.call("handler", name=name, payload=payload)["result"]

    def checkpoint(self) -> None:
        self.call("checkpoint")

    def shutdown(self) -> None:
        """Ask the served process to exit gracefully."""
        self.call("shutdown")


class RemoteNetwork:
    """Callback validation over TCP, for the services of one process.

    A served process hands this to every hosted
    :class:`~repro.core.service.OasisService` as its ``network``.  Foreign
    issuers are reached through per-peer :class:`OasisClient` connections
    with lazily discovered ``ServiceId -> peer`` routes; the server side
    of a callback is ``OasisServer``'s ``validate_many`` op.
    """

    def __init__(self, node: str = "client",
                 peers: Optional[Mapping[str, Tuple[str, int]]] = None,
                 timeout: float = 10.0,
                 max_frame: int = MAX_FRAME) -> None:
        self.node = node
        self._peers: Dict[str, Tuple[str, int]] = dict(peers or {})
        self._timeout = timeout
        self._max_frame = max_frame
        self._clients: Dict[str, OasisClient] = {}
        self._routes: Dict[ServiceId, str] = {}
        #: ``validate_many`` RPCs sent, and the validations they carried.
        self.callback_rpcs = 0
        self.callback_entries = 0

    def validate_many(self, caller: Any,
                      requests: Sequence[Tuple[Any, str, Optional[str]]]
                      ) -> List[Any]:
        """The callback validations of one request, each ``(certificate,
        principal_value, holder)``: one outcome per request, in order —
        the issuer's verdict, or the exception the issuer or the
        transport raised.

        Issuers in ``caller.registry`` answer without touching a socket;
        the rest travel as ONE ``validate_many`` RPC per peer.  An issuer
        no peer lists, a peer that cannot be reached, and a peer that
        answers with one verdict too few or too many fail the entries
        concerned (the service fails those closed)."""
        registry = caller.registry
        outcomes: List[Any] = [None] * len(requests)
        batches: Dict[str, List[int]] = {}
        for index, request in enumerate(requests):
            issuer = request[0].issuer
            if issuer in registry:
                outcomes[index] = registry.validate(*request)
                continue
            peer = self._route(issuer)
            if peer is None:
                outcomes[index] = OasisNetError(
                    f"{self.node}: no peer hosts issuer {issuer}")
            else:
                batches.setdefault(peer, []).append(index)
        for peer, indices in batches.items():
            entries = []
            for index in indices:
                certificate, principal, holder = requests[index]
                entries.append({"cert": wire.certificate_text(certificate),
                                "principal": principal, "holder": holder})
            self.callback_rpcs += 1
            self.callback_entries += len(entries)
            try:
                value = self._client(peer).call("validate_many",
                                                entries=entries)
                verdicts = value.get("entries") \
                    if isinstance(value, dict) else None
                if not isinstance(verdicts, list) \
                        or len(verdicts) != len(entries):
                    raise ProtocolError(
                        f"{peer} answered {len(entries)} validations "
                        f"with {value!r}")
            except Exception as failure:  # noqa: BLE001 - every outcome
                verdicts = [failure] * len(entries)
            for index, verdict in zip(indices, verdicts):
                # An error object is the issuer's refusal, typed.
                outcomes[index] = remote_error(peer, verdict) \
                    if isinstance(verdict, dict) else verdict
        return outcomes

    def _route(self, issuer: ServiceId) -> Optional[str]:
        route = self._routes.get(issuer)
        if route is not None:
            return route
        # Lazy discovery: ask every configured peer what it hosts; the
        # first peer to list a service keeps it.  A miss is NOT
        # negative-cached — at boot a peer may register its services
        # moments after we first ask.
        for peer in self._peers:
            try:
                advertised = self._client(peer).services()
            except OasisNetError:
                continue
            for entry in advertised.get("services", ()):
                self._routes.setdefault(
                    ServiceId(entry["domain"], entry["name"]), peer)
        return self._routes.get(issuer)

    def _client(self, peer: str) -> OasisClient:
        client = self._clients.get(peer)
        if client is None:
            host, port = self._peers[peer]
            client = OasisClient(host, port, peer=peer,
                                 timeout=self._timeout,
                                 max_frame=self._max_frame)
            self._clients[peer] = client
        return client

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()
