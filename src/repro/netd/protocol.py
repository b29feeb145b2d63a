"""Length-prefixed JSON framing and the typed transport errors.

Wire format
===========

Every message is one *frame*::

    +----------------+----------------------------+
    | length (4B BE) | UTF-8 JSON object (length) |
    +----------------+----------------------------+

The body is always a JSON *object* (never a bare list/scalar) so every
frame has room for an envelope.  Three envelope shapes travel over one
connection:

* **request** — ``{"id": <int>, "op": <str>, ...fields}``
* **response** — ``{"id": <int>, "ok": true, "value": ...}`` or
  ``{"id": <int>, "ok": false, "error": {"type": ..., "message": ...}}``
* **push** — ``{"push": "events", "origin": <node>, "events": [...]}``
  (server → client only, on connections that issued ``subscribe_events``)

Certificates cross as one JSON string each, the memoised
:func:`repro.core.wire.certificate_text` token, and events as
:meth:`repro.events.messages.Event.to_payload` dicts (the encoding the
persistence journal already round-trips), so nothing process-local ever
crosses the boundary.

Malformed input is rejected *here*, with :class:`ProtocolError` — a
truncated length prefix, an oversized frame (DoS guard; the limit is
``max_frame``), a body that is not valid UTF-8 JSON, or a body that is
not an object.  :class:`FrameDecoder` is deliberately incremental and
side-effect-free, and with :func:`encode_frame` it is the only framing
code there is: client, server, event channel and the fuzz suite all read
through it.

Error taxonomy
==============

:class:`OasisNetError` subclasses :class:`repro.net.sim.NetworkError` on
purpose: the service core's fail-closed branch (``_accept_verdict``
refusing a ``NetworkError`` outcome) then treats a dead socket exactly
like a partitioned simulated link — "issuer unreachable" stays a policy
decision owned by the service, not the transport.  :class:`RpcError` is the one
exception that is *not* a transport failure: the remote handler raised,
and the type name rides back so callers can branch on the outcome.
Well-known core exception types are re-raised
as themselves by :func:`raise_remote_error` — a remote
``ActivationDenied`` is an ``ActivationDenied`` at the client, which is
what lets scenario code run unchanged against sockets.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Deque, Dict, List, Mapping

from ..core import exceptions as _core_exceptions
from ..net.sim import NetworkError

__all__ = [
    "MAX_FRAME",
    "OasisNetError",
    "ProtocolError",
    "FrameTooLarge",
    "ConnectionLost",
    "RpcTimeout",
    "HandshakeError",
    "RpcError",
    "encode_frame",
    "FrameDecoder",
    "error_payload",
    "remote_error",
    "raise_remote_error",
]

#: Default maximum frame body size.  Large enough for a multi-thousand
#: event coalesced cascade batch, small enough that one hostile frame
#: cannot balloon a server's memory.
MAX_FRAME = 4 * 1024 * 1024

_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size


class OasisNetError(NetworkError):
    """A socket-transport failure (subclasses ``NetworkError`` so the
    service core's fail-closed validation branch applies unchanged)."""


class ProtocolError(OasisNetError):
    """The peer sent bytes that are not a valid frame."""


class FrameTooLarge(ProtocolError):
    """A frame announced a body larger than the negotiated maximum."""


class ConnectionLost(OasisNetError):
    """The connection died before a response arrived (peer killed
    mid-RPC, reset, or EOF inside a frame)."""


class RpcTimeout(OasisNetError):
    """The peer did not answer within the client's deadline (slow or
    stalled peer; the connection is closed afterwards — frames on it can
    no longer be matched to requests reliably)."""


class HandshakeError(OasisNetError):
    """The challenge–response handshake failed or is required but
    missing."""


class RpcError(RuntimeError):
    """A remote handler raised; not a transport failure.

    ``error_type`` preserves the remote exception class name so callers
    can branch on the outcome without sharing exception objects across
    the wire.
    """

    def __init__(self, node: str, error_type: str, message: str) -> None:
        super().__init__(f"{node}: {error_type}: {message}")
        self.node = node
        self.error_type = error_type
        self.detail = message


# -- encoding ------------------------------------------------------------------

#: Compact separators: frames are a hot path (every RPC is two) and the
#: payloads are machine-built, so pretty-printing only costs bytes.  One
#: encoder for the process — ``json.dumps`` with arguments builds a new one
#: per call.  No circular-reference bookkeeping: a payload that refers to
#: itself still fails (``RecursionError``), as the op's failure.
_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def encode_frame(payload: Dict[str, Any],
                 max_frame: int = MAX_FRAME) -> bytes:
    """One message as length-prefixed JSON bytes."""
    body = _COMPACT.encode(payload).encode("utf-8")
    if len(body) > max_frame:
        raise FrameTooLarge(
            f"outgoing frame of {len(body)} bytes exceeds the "
            f"{max_frame}-byte limit")
    return _HEADER.pack(len(body)) + body


def body_size(payload: Any) -> int:
    """Bytes ``payload`` takes inside a frame body."""
    return len(_COMPACT.encode(payload).encode("utf-8"))


def take_fitting(pending: Deque[Dict[str, Any]], room: int,
                 field: Callable[[Mapping[str, Any]], str]
                 ) -> List[Dict[str, Any]]:
    """Messages from the head of ``pending``, oldest first, that fit
    ``room`` encoded bytes as one JSON list; the first that does not is
    split at an item of its list ``message[field(message)]``, the rest
    left at the head.  Nothing taken, ``pending`` non-empty: its first
    item alone is larger.  (The one splitter: shard outboxes and event
    pushes both cross in frames it cuts.)"""
    taken: List[Dict[str, Any]] = []
    while pending and room > 0:
        message = pending.popleft()
        name = field(message)
        items = message[name]
        room -= body_size(dict(message, **{name: []})) + 1
        fit = 0
        while fit < len(items) and \
                (room := room - body_size(items[fit]) - 1) >= 0:
            fit += 1
        if fit < len(items):
            pending.appendleft(dict(message, **{name: items[fit:]}))
        if fit:
            taken.append(dict(message, **{name: items[:fit]}))
    return taken


class FrameDecoder:
    """Incremental frame parser: feed bytes, get decoded objects.

    Keeps at most ``header + max_frame`` buffered; an announced length
    beyond ``max_frame`` raises :exc:`FrameTooLarge` *before* any body
    bytes accumulate, so a hostile peer cannot make the buffer grow.
    """

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held while waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume ``data``; return every complete frame it finished."""
        self._buffer.extend(data)
        frames: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > self.max_frame:
                raise FrameTooLarge(
                    f"peer announced a {length}-byte frame "
                    f"(limit {self.max_frame})")
            end = HEADER_SIZE + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[HEADER_SIZE:end])
            del self._buffer[:end]
            frames.append(decode_body(body))

    def at_boundary(self) -> bool:
        """True when no partial frame is buffered (clean EOF point)."""
        return not self._buffer


def decode_body(body: bytes) -> Dict[str, Any]:
    """Decode one frame body; :exc:`ProtocolError` on anything malformed."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and an integer past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise ProtocolError(f"frame body is not JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got "
            f"{type(message).__name__}")
    return message


# -- remote error mapping ------------------------------------------------------

def _known_exceptions() -> Dict[str, type]:
    known: Dict[str, type] = {}
    for name in dir(_core_exceptions):
        value = getattr(_core_exceptions, name)
        if isinstance(value, type) and issubclass(value, Exception):
            known[name] = value
    return known


#: Exception classes a remote error may be re-raised as.  Only the core
#: access-control taxonomy plus this module's own handshake error
#: qualify: re-instantiating arbitrary remote type names would let a
#: hostile server pick any importable exception.
_KNOWN_EXCEPTIONS = _known_exceptions()
_KNOWN_EXCEPTIONS["HandshakeError"] = HandshakeError


def error_payload(error: BaseException) -> Dict[str, str]:
    """How a handler exception crosses the wire."""
    return {"type": type(error).__name__, "message": str(error)}


def remote_error(node: str, payload: Any) -> Exception:
    """A remote error as an exception: core exceptions as themselves (so
    scenario code catches ``ActivationDenied`` etc. unchanged), everything
    else as :exc:`RpcError` carrying the remote type name."""
    if not isinstance(payload, dict):
        return RpcError(node, "UnknownError", repr(payload))
    error_type = str(payload.get("type", "UnknownError"))
    message = str(payload.get("message", ""))
    known = _KNOWN_EXCEPTIONS.get(error_type)
    if known is not None:
        return known(message)
    return RpcError(node, error_type, message)


def raise_remote_error(node: str, payload: Any) -> "NoReturn":  # noqa: F821
    """Raise :func:`remote_error`."""
    raise remote_error(node, payload)
