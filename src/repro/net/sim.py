"""Simulated clock, scheduler and latency-bearing network.

The paper's engineering claims — callback validation cost, cache hit
benefit, revocation staleness under polling vs events (Sect. 4, Fig. 5) —
are about *time* and *message counts*.  Real sockets would make the
benchmarks nondeterministic, so the reproduction runs on a simulated
substrate:

* :class:`SimClock` — a manually advanced clock.
* :class:`Scheduler` — a discrete-event scheduler over a ``SimClock``
  (heartbeats, polling loops, certificate expiry sweeps).
* :class:`LatencyModel` — per-domain-pair one-way latencies with sensible
  defaults (fast intra-domain, slow inter-domain).
* :class:`SimNetwork` — the test network: synchronous RPC that advances
  the clock by the round-trip time and counts messages, and carries a
  service's callback validations to the issuers its registry names.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import runtime as _obs_runtime

__all__ = [
    "SimClock",
    "Scheduler",
    "LatencyModel",
    "SimNetwork",
    "NetworkStats",
    "NetworkError",
    "NetworkPartitioned",
]


class NetworkError(RuntimeError):
    """A message could not be delivered."""


class NetworkPartitioned(NetworkError):
    """The source and destination domains are partitioned."""


class SimClock:
    """A monotonic simulated clock, advanced explicitly."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def __call__(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise ValueError("cannot advance clock backwards")
        self._now += delta
        return self._now

    def advance_to(self, when: float) -> float:
        if when < self._now:
            raise ValueError("cannot move clock backwards")
        self._now = when
        return self._now


@dataclass(order=True)
class _ScheduledEvent:
    when: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Scheduler:
    """Discrete-event scheduler driving a :class:`SimClock`.

    Actions scheduled for the same instant run in scheduling order.  An
    action may schedule further actions (periodic heartbeats re-arm
    themselves this way).
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self._heap: List[_ScheduledEvent] = []
        self._seq = itertools.count()

    def schedule(self, delay: float, action: Callable[[], None]
                 ) -> _ScheduledEvent:
        """Run ``action`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        event = _ScheduledEvent(self.clock.now() + delay, next(self._seq),
                                action)
        heapq.heappush(self._heap, event)
        return event

    def schedule_periodic(self, interval: float,
                          action: Callable[[], None]) -> Callable[[], None]:
        """Run ``action`` every ``interval``; returns a cancel function."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        state = {"event": None, "stopped": False}

        def tick() -> None:
            if state["stopped"]:
                return
            action()
            state["event"] = self.schedule(interval, tick)

        state["event"] = self.schedule(interval, tick)

        def cancel() -> None:
            state["stopped"] = True
            event = state["event"]
            if event is not None:
                event.cancelled = True

        return cancel

    @property
    def pending(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def run_until(self, when: float) -> int:
        """Execute all events due at or before ``when``; returns count run."""
        executed = 0
        while self._heap and self._heap[0].when <= when:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.when)
            event.action()
            executed += 1
        self.clock.advance_to(max(self.clock.now(), when))
        return executed

    def run_for(self, duration: float) -> int:
        return self.run_until(self.clock.now() + duration)


class LatencyModel:
    """One-way message latency between administrative domains.

    Defaults mirror a realistic deployment shape: sub-millisecond within a
    domain, tens of milliseconds between domains.  Specific pairs can be
    overridden (a national backbone link, a transatlantic hop).
    """

    def __init__(self, intra_domain: float = 0.0005,
                 inter_domain: float = 0.02) -> None:
        if intra_domain < 0 or inter_domain < 0:
            raise ValueError("latencies must be non-negative")
        self._intra = intra_domain
        self._inter = inter_domain
        self._overrides: Dict[Tuple[str, str], float] = {}

    def set_latency(self, domain_a: str, domain_b: str,
                    latency: float) -> None:
        """Override the latency between a pair of domains (symmetric)."""
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._overrides[(domain_a, domain_b)] = latency
        self._overrides[(domain_b, domain_a)] = latency

    def one_way(self, src_domain: str, dst_domain: str) -> float:
        override = self._overrides.get((src_domain, dst_domain))
        if override is not None:
            return override
        if src_domain == dst_domain:
            return self._intra
        return self._inter

    def round_trip(self, src_domain: str, dst_domain: str) -> float:
        return 2 * self.one_way(src_domain, dst_domain)


@dataclass
class NetworkStats:
    """Counters accumulated by :class:`SimNetwork`."""

    messages: int = 0
    calls: int = 0
    total_latency: float = 0.0

    def reset(self) -> None:
        self.messages = 0
        self.calls = 0
        self.total_latency = 0.0


class SimNetwork:
    """Synchronous RPC between domains with simulated latency.

    A call names the handler it runs in the destination domain; it
    advances the shared clock by the round-trip latency of the domain pair
    and is counted in :attr:`stats`; the handler runs at the logical
    receive instant.  Handlers may issue nested calls (the Fig. 3 hospital
    → national EHR chain does), which accumulate latency naturally.
    """

    def __init__(self, clock: Optional[SimClock] = None,
                 latency: Optional[LatencyModel] = None,
                 partition_timeout: float = 1.0) -> None:
        self.clock = clock or SimClock()
        self.latency = latency or LatencyModel()
        self.stats = NetworkStats()
        self.partition_timeout = partition_timeout
        self._partitions: set = set()
        self._obs = _obs_runtime.pipeline()
        if self._obs is not None:
            self._obs_rpc_calls = self._obs.metrics.counter(
                "oasis_rpc_calls_total",
                help_text="simulated RPC calls, by outcome",
                label_names=("outcome",))

    # -- failure injection -----------------------------------------------------
    def partition(self, domain_a: str, domain_b: str) -> None:
        """Cut the link between two domains (symmetric)."""
        self._partitions.add(frozenset((domain_a, domain_b)))

    def heal(self, domain_a: str, domain_b: str) -> None:
        self._partitions.discard(frozenset((domain_a, domain_b)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def is_partitioned(self, domain_a: str, domain_b: str) -> bool:
        return frozenset((domain_a, domain_b)) in self._partitions

    def call(self, src_domain: str, dst_domain: str,
             handler: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Synchronous RPC from ``src_domain`` to ``handler``, which runs
        in ``dst_domain``.

        Advances the clock by one one-way latency before the handler runs
        and another after it returns, and counts two messages.
        """
        obs = self._obs
        if obs is not None:
            span = obs.tracer.start_span(
                "rpc.call", timestamp=self.clock.now(),
                src=src_domain, dst=dst_domain,
                endpoint=getattr(handler, "__qualname__", repr(handler)))
        try:
            if self.is_partitioned(src_domain, dst_domain):
                # The caller blocks for its timeout before concluding
                # failure.
                self.clock.advance(self.partition_timeout)
                self.stats.messages += 1  # the lost request
                raise NetworkPartitioned(
                    f"{src_domain} cannot reach {dst_domain} (partition; "
                    f"timed out after {self.partition_timeout}s)")
            one_way = self.latency.one_way(src_domain, dst_domain)
            self.clock.advance(one_way)
            result = handler(*args, **kwargs)
            self.clock.advance(one_way)
            self.stats.calls += 1
            self.stats.messages += 2
            self.stats.total_latency += 2 * one_way
        except NetworkError as failure:
            if obs is not None:
                self._obs_rpc_calls.inc(outcome="failed")
                span.error(str(failure))
            raise
        else:
            if obs is not None:
                self._obs_rpc_calls.inc(outcome="ok")
            return result
        finally:
            if obs is not None:
                span.finish(self.clock.now())

    def validate_many(self, caller: Any,
                      requests: Sequence[Tuple[Any, str, Optional[str]]]
                      ) -> List[Any]:
        """The callback validations of one request, each ``(certificate,
        principal_value, holder)``: one :meth:`call` per certificate, in
        order, to the issuer ``caller.registry`` names for it, returning
        one outcome per request — the issuer's verdict, or the exception
        raised for it.  An issuer the registry does not know costs no
        message."""
        registry = caller.registry
        src_domain = caller.id.domain
        outcomes: List[Any] = []
        for certificate, principal_value, holder in requests:
            issuer = certificate.issuer
            try:
                handler = registry.lookup(issuer)._serve_validation
                outcomes.append(self.call(src_domain, issuer.domain, handler,
                                          certificate, principal_value,
                                          holder))
            except Exception as error:  # noqa: BLE001 - an outcome
                outcomes.append(error)
        return outcomes
