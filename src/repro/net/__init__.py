"""Simulated network substrate.

Replaces the paper's physical testbed with a deterministic simulated clock,
discrete-event scheduler and latency-bearing RPC network so that the
engineering benchmarks (callback vs cache, polling vs events) measure
reproducible simulated time and message counts.  The network keeps no
table of its own: a callback validation goes to the issuer the caller's
:class:`~repro.core.service.ServiceRegistry` names for the certificate.
See DESIGN.md Sect. 3 for the substitution rationale.
"""

from .sim import (
    LatencyModel,
    NetworkError,
    NetworkPartitioned,
    NetworkStats,
    Scheduler,
    SimClock,
    SimNetwork,
)

__all__ = [
    "LatencyModel",
    "NetworkError",
    "NetworkPartitioned",
    "NetworkStats",
    "Scheduler",
    "SimClock",
    "SimNetwork",
]
