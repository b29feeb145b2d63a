"""Process-wide metrics registry: counters, gauges, histograms.

The registry replaces the scatter of hand-rolled dicts (``ServiceStats``,
``broker.stats()``, ``NetworkStats``) with one queryable surface.  Two
integration styles, chosen per call-site cost:

* **direct instruments** for events worth recording individually —
  activation latency observations, cascade width/depth.  Hot paths
  pre-:meth:`bind` their label set once so recording is one dict-key
  add.
* **collectors** for state that already lives in cheap counters —
  ``ServiceStats`` fields, broker totals, queue depth.  A collector is a
  callable sampled at *export* time (:meth:`MetricsRegistry.collect`), so
  registering one costs the hot path nothing at all.  This is how the
  pre-existing stats objects "register into" the registry without
  per-increment overhead.

Naming follows Prometheus conventions (``oasis_*`` namespace, ``_total``
suffix on counters); :mod:`repro.obs.export` renders the exposition text
format and a JSON equivalent.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Mapping, Sequence,
                    Tuple)

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "LATENCY_BUCKETS"]

LabelValues = Tuple[Any, ...]

#: Default buckets for sub-millisecond-to-second latencies, in seconds.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-05, 2.5e-05, 5e-05, 1e-04, 2.5e-04, 5e-04,
    1e-03, 2.5e-03, 5e-03, 1e-02, 2.5e-02, 5e-02,
    0.1, 0.25, 0.5, 1.0,
)


def _label_values(label_names: Tuple[str, ...],
                  labels: Mapping[str, Any]) -> LabelValues:
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}")
    return tuple(labels[name] for name in label_names)


class _Instrument:
    """Shared shape: name, help text, declared label names."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "",
                 label_names: Sequence[str] = ()) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help = help_text
        self.label_names: Tuple[str, ...] = tuple(label_names)


class Counter(_Instrument):
    """A monotonically increasing value, optionally per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "",
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_values(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def bind(self, **labels: Any) -> "BoundCounter":
        """Pre-resolve a label set for hot-path increments."""
        return BoundCounter(self._values,
                            _label_values(self.label_names, labels))

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_values(self.label_names, labels), 0.0)

    def samples(self) -> List[Tuple[Dict[str, Any], float]]:
        return [(dict(zip(self.label_names, key)), value)
                for key, value in self._values.items()]


class BoundCounter:
    """A counter pinned to one label set: ``inc`` is a single dict update."""

    __slots__ = ("_values", "_key")

    def __init__(self, values: Dict[LabelValues, float],
                 key: LabelValues) -> None:
        self._values = values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._values[self._key] = self._values.get(self._key, 0.0) + amount


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, live credentials)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "",
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_values(self.label_names, labels)] = value

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_values(self.label_names, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_values(self.label_names, labels), 0.0)

    def samples(self) -> List[Tuple[Dict[str, Any], float]]:
        return [(dict(zip(self.label_names, key)), value)
                for key, value in self._values.items()]


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # cumulative at export only
        self.total = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket histogram (upper bounds; +Inf is implicit).

    Buckets are per-instance fixed at construction — no dynamic resizing,
    no quantile estimation.  ``observe`` is O(buckets) worst case but the
    common case exits at the first bucket that fits.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float],
                 help_text: str = "",
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        bounds = tuple(buckets)
        if not bounds or any(b <= a for b, a in zip(bounds[1:], bounds)):
            raise ValueError("buckets must be non-empty and increasing")
        self.buckets = bounds
        self._series: Dict[LabelValues, _HistogramSeries] = {}

    def _get_series(self, key: LabelValues) -> _HistogramSeries:
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(len(self.buckets) + 1)
            self._series[key] = series
        return series

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_values(self.label_names, labels)
        self._observe(self._get_series(key), value)

    def _observe(self, series: _HistogramSeries, value: float) -> None:
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        series.bucket_counts[index] += 1
        series.total += value
        series.count += 1

    def bind(self, **labels: Any) -> "BoundHistogram":
        key = _label_values(self.label_names, labels)
        return BoundHistogram(self, self._get_series(key))

    def snapshot(self, **labels: Any) -> Dict[str, Any]:
        """Cumulative bucket counts plus sum/count for one label set."""
        key = _label_values(self.label_names, labels)
        series = self._series.get(key)
        if series is None:
            return {"buckets": [0] * (len(self.buckets) + 1),
                    "sum": 0.0, "count": 0}
        cumulative, running = [], 0
        for count in series.bucket_counts:
            running += count
            cumulative.append(running)
        return {"buckets": cumulative, "sum": series.total,
                "count": series.count}

    def samples(self) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        out = []
        for key in self._series:
            labels = dict(zip(self.label_names, key))
            out.append((labels, self.snapshot(**labels)))
        return out


class BoundHistogram:
    """A histogram series pinned to one label set."""

    __slots__ = ("_histogram", "_series")

    def __init__(self, histogram: Histogram,
                 series: _HistogramSeries) -> None:
        self._histogram = histogram
        self._series = series

    def observe(self, value: float) -> None:
        self._histogram._observe(self._series, value)


#: A collector yields (instrument-shaped) sample families at export time:
#: ``(name, kind, help, [(labels_dict, value), ...])``.
Collector = Callable[[], Iterable[Tuple[str, str, str,
                                        List[Tuple[Dict[str, Any], Any]]]]]


class MetricsRegistry:
    """Named instruments plus pull-style collectors.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same instrument, so independently
    constructed services share series (distinguished by labels).  A
    name/kind or label mismatch is a programming error and raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: List[Collector] = []

    def _get_or_create(self, cls: type, name: str, help_text: str,
                       label_names: Sequence[str],
                       **kwargs: Any) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")  # type: ignore[attr-defined]
            if existing.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} labels {existing.label_names} != "
                    f"{tuple(label_names)}")
            return existing
        instrument = cls(name, help_text=help_text,
                         label_names=label_names, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, label_names)

    def gauge(self, name: str, help_text: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, label_names)

    def histogram(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS,
                  help_text: str = "",
                  label_names: Sequence[str] = ()) -> Histogram:
        existing = self._instruments.get(name)
        if isinstance(existing, Histogram) \
                and existing.buckets != tuple(buckets):
            raise ValueError(f"metric {name!r} bucket mismatch")
        return self._get_or_create(Histogram, name, help_text, label_names,
                                   buckets=buckets)  # type: ignore[return-value]

    def register_collector(self, collector: Collector) -> Callable[[], None]:
        """Add a pull-time sample source; returns an unregister function."""
        self._collectors.append(collector)

        def remove() -> None:
            if collector in self._collectors:
                self._collectors.remove(collector)

        return remove

    def collect(self) -> List[Dict[str, Any]]:
        """Sample every instrument and collector into a uniform family list.

        Each family: ``{"name", "type", "help", "samples": [{"labels",
        "value"}]}``; histogram sample values are the
        ``{"buckets", "sum", "count"}`` snapshots.  Families are sorted by
        name so exports are deterministic.
        """
        families: Dict[str, Dict[str, Any]] = {}
        for name, instrument in self._instruments.items():
            families[name] = {
                "name": name,
                "type": instrument.kind,
                "help": instrument.help,
                "samples": [{"labels": labels, "value": value}
                            for labels, value in instrument.samples()],  # type: ignore[attr-defined]
            }
            if isinstance(instrument, Histogram):
                families[name]["buckets"] = list(instrument.buckets)
        for collector in self._collectors:
            for name, kind, help_text, samples in collector():
                family = families.setdefault(
                    name, {"name": name, "type": kind, "help": help_text,
                           "samples": []})
                family["samples"].extend(
                    {"labels": dict(labels), "value": value}
                    for labels, value in samples)
        for family in families.values():
            family["samples"].sort(
                key=lambda s: sorted(s["labels"].items()))
        return [families[name] for name in sorted(families)]
