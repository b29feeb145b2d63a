"""Real socket transport: OASIS services over TCP (docs/networking.md).

Everything before this package ran in one Python process over the
simulated substrate (:mod:`repro.net.sim`).  ``repro.netd`` is where the
paper's *widely distributed* claim becomes literal: an
:class:`~repro.netd.server.OasisServer` hosts one or more
:class:`~repro.core.service.OasisService` instances behind a
length-prefixed JSON protocol (:mod:`repro.netd.protocol`) carrying the
existing :mod:`repro.core.wire` certificate encodings, gated by the
Sect. 4.1 challenge–response handshake; one blocking
:class:`~repro.netd.client.OasisClient` talks to it, and a
:class:`~repro.netd.client.RemoteNetwork` built on that client carries a
service's callback validations to the peer hosting each certificate's
issuer — the same ``validate_many`` call the simulated network answers;
:mod:`repro.netd.ops` is the single definition of the service ops both
ends — and the shard workers — speak; and
:mod:`repro.netd.events` pushes ``CREDENTIAL_REVOKED`` batches, one
frame per cascade — span context included — over persistent connections,
so a Fig. 5 revocation cascade crosses OS process boundaries without
polling and still stitches into ONE trace tree.  The whole package
speaks one I/O model: threads on blocking sockets.

``repro serve`` (:mod:`repro.netd.cli`) boots one server process from a
world-factory spec; :mod:`repro.netd.deploy` supervises several of them,
and ``examples/serve_ehr.py`` runs the Fig. 3 hospital / national-EHR
scenario as three separate OS processes over real sockets.

See docs/networking.md for the wire format, handshake sequence,
event-channel semantics and failure modes.
"""

from .protocol import (
    ConnectionLost,
    FrameDecoder,
    FrameTooLarge,
    HandshakeError,
    MAX_FRAME,
    OasisNetError,
    ProtocolError,
    RpcError,
    RpcTimeout,
    encode_frame,
)
from .client import OasisClient, RemoteNetwork
from .events import EventChannel, EventPump
from .server import OasisServer

__all__ = [
    "ConnectionLost",
    "EventChannel",
    "EventPump",
    "FrameDecoder",
    "FrameTooLarge",
    "HandshakeError",
    "MAX_FRAME",
    "OasisClient",
    "OasisNetError",
    "OasisServer",
    "ProtocolError",
    "RemoteNetwork",
    "RpcError",
    "RpcTimeout",
    "encode_frame",
]
