"""The observability pipeline and its process-wide on/off switch.

Design constraint (the PR's acceptance bar): instrumentation must cost
≤3% on the guarded hot paths **when disabled**.  The mechanism:

* The module-level default is ``None`` — no pipeline at all, not a
  no-op object.  Instrumented classes snapshot the pipeline **once, at
  construction** (``self._obs = runtime.pipeline()``), so every hot-path
  guard is a single attribute load plus an ``is None`` branch — no
  global lookup, no virtual no-op call.
* When a pipeline is installed, the same guard routes into the observed
  code path, which may be arbitrarily rich: spans, metrics, and the
  rule attempts that explain each access record.

Snapshot-at-construction has one documented consequence: **enable
observability before building the world you want observed**.  Services,
brokers and engines built while the pipeline was ``None`` stay
uninstrumented (that is exactly what makes them fast); tests and the CLI
use :func:`observed` around world construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = ["Observability", "pipeline", "enable", "disable", "observed"]


def _collect_intern_pools():
    """Export-time gauges over the canonicalizing intern pools.

    Imported lazily: :mod:`repro.obs` must stay importable before (and
    without) the core package, and collectors only run at export time.
    The pools are process-wide, so every pipeline reports the same
    figures — they describe shared resident state, not per-pipeline
    activity.
    """
    from ..core.terms import pool_stats

    samples_entries = []
    samples_hits = []
    samples_misses = []
    for name, stats in pool_stats().items():
        samples_entries.append(({"pool": name}, stats["entries"]))
        samples_hits.append(({"pool": name, "kind": "hits"},
                             stats["hits"]))
        samples_misses.append(({"pool": name, "kind": "misses"},
                               stats["misses"]))
    if not samples_entries:
        return
    yield ("oasis_memory_intern_pool_entries", "gauge",
           "canonical instances resident per intern pool",
           samples_entries)
    yield ("oasis_memory_intern_pool_requests", "counter",
           "intern pool requests, by hit/miss",
           samples_hits + samples_misses)


class Observability:
    """One tracer + one metrics registry.

    A *pipeline* bundles the two so instrumented code holds a single
    reference; its presence also makes each service explain the
    decisions it records in its own access log.  Independent pipelines
    (e.g. per test) are fully isolated — ids and metrics do not bleed
    across.
    """

    def __init__(self, span_capacity: Optional[int] = 100_000,
                 trace_id_prefix: str = "") -> None:
        # ``trace_id_prefix`` namespaces span/trace ids, so pipelines in
        # different shard workers mint globally unique ids that a
        # coordinator can merge (see Tracer.adopt and repro.shard).
        self.tracer = Tracer(capacity=span_capacity,
                             id_prefix=trace_id_prefix)
        self.metrics = MetricsRegistry()
        self.metrics.register_collector(_collect_intern_pools)


_pipeline: Optional[Observability] = None


def pipeline() -> Optional[Observability]:
    """The installed pipeline, or None when observability is off."""
    return _pipeline


def enable(obs: Optional[Observability] = None) -> Observability:
    """Install (and return) a pipeline; new runtime objects pick it up.

    Objects constructed *before* the call keep their construction-time
    snapshot (usually None) — rebuild them to instrument them.
    """
    global _pipeline
    _pipeline = obs if obs is not None else Observability()
    return _pipeline


def disable() -> None:
    """Remove the pipeline; subsequently built objects run uninstrumented."""
    global _pipeline
    _pipeline = None


@contextmanager
def observed(obs: Optional[Observability] = None
             ) -> Iterator[Observability]:
    """Enable a pipeline for the duration of a ``with`` block.

    The previous pipeline (usually None) is restored on exit; the yielded
    pipeline stays queryable afterwards.  Build the world to observe
    *inside* the block.
    """
    global _pipeline
    previous = _pipeline
    installed = enable(obs)
    try:
        yield installed
    finally:
        _pipeline = previous
