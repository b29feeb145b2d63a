"""The simulated deployment.

"In practice, distributed systems contain many domains; for example the
healthcare domain comprises subdomains of public and private hospitals,
primary care practices, research institutes, clinics, etc. as well as
national services such as electronic health record management." (Sect. 1)

A :class:`Deployment` is a :class:`~repro.netd.worlds.NodeContext` on a
simulated clock and network: world factories build their services on it
exactly as on a served node.  A domain is the ``domain`` half of each
service's :class:`~repro.core.types.ServiceId`, which is what the latency
model tells apart (intra- vs inter-domain calls).
"""

from __future__ import annotations

from typing import Optional

from ..core.service import ServiceRegistry
from ..events import EventBroker
from ..net import LatencyModel, Scheduler, SimClock, SimNetwork
from ..netd.worlds import NodeContext

__all__ = ["Deployment"]


class Deployment(NodeContext):
    """A whole distributed system in one process, on simulated time."""

    def __init__(self, latency: Optional[LatencyModel] = None,
                 use_network: bool = True) -> None:
        clock = SimClock()
        super().__init__(
            "simulated", EventBroker(), ServiceRegistry(),
            SimNetwork(clock, latency or LatencyModel())
            if use_network else None,
            clock=clock)
        self.scheduler = Scheduler(clock)

    def run_for(self, duration: float) -> int:
        """Advance simulated time, firing scheduled work (heartbeats,
        polling sweeps, expiry checks)."""
        return self.scheduler.run_for(duration)
