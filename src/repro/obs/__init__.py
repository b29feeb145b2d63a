"""Observability subsystem: causal tracing, metrics, decision explainers.

Three parts (see ``docs/observability.md``):

* :mod:`repro.obs.tracing` — spans with trace/span/parent ids, stitched
  across services via event attributes into causal trees (Fig. 5
  cascades reconstruct as one tree).
* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms
  with Prometheus-text and JSON export (:mod:`repro.obs.export`).
* :mod:`repro.obs.explain` — the :class:`RuleAttempt` rows a service
  puts on each activation, invocation and validation-failure access
  record while a pipeline is on, naming a denial's failing condition.

The pipeline is off by default and near-zero-cost while off; see
:mod:`repro.obs.runtime`.  This package deliberately imports nothing
from :mod:`repro.core` / :mod:`repro.events` (they import *us*); the
scenario-building CLI helpers live in :mod:`repro.obs.cli`, imported
lazily by the command-line front end only.
"""

from .explain import RuleAttempt
from .export import (
    metrics_to_json_dict,
    render_prometheus,
    render_trace_text,
    trace_to_dict,
)
from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .runtime import Observability, disable, enable, observed, pipeline
from .tracing import Span, SpanContext, SpanTree, Tracer

__all__ = [
    "RuleAttempt",
    "metrics_to_json_dict",
    "render_prometheus",
    "render_trace_text",
    "trace_to_dict",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "disable",
    "enable",
    "observed",
    "pipeline",
    "Span",
    "SpanContext",
    "SpanTree",
    "Tracer",
]
