"""Causal tracing: spans, trace trees, and cross-service stitching.

The paper's active-security story (Sect. 4, Fig. 5) is a *causal* one: a
credential revocation at one service propagates along role-dependency
edges, across services, until every dependent role has collapsed.  The
``ServiceStats`` counters can say *how many* credentials died; they cannot
say *why this one* died.  Tracing answers that: every interesting runtime
operation (activation, validation callback, revocation, cascade step,
simulated RPC) opens a :class:`Span`; spans carry trace/span/parent ids,
and span context rides on :class:`~repro.events.messages.Event` attributes
so a cascade that hops the event broker between services is stitched into
one :class:`trace tree <Tracer.tree>`.

Ids are deterministic per :class:`Tracer` (``t0001``, ``s0001``, ...) so
simulated runs — the only runs this repro does — produce stable, snapshot-
testable trees.  Timestamps are whatever clock the instrumented layer
uses, which for services and the network is the *simulated* clock: per-hop
timings in a trace are sim-clock durations, exactly the quantity the
Fig. 5 experiments reason about.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional

from .ring import RecordRing

__all__ = ["SpanContext", "Span", "SpanTree", "Tracer"]


class SpanContext(NamedTuple):
    """The portable part of a span: enough to parent a remote child.

    This is what crosses process boundaries — in this repro, what rides on
    broker events (``trace_id``/``span_id`` attributes) and what handlers
    pass back to :meth:`Tracer.start_span` as ``parent``.
    """

    trace_id: str
    span_id: str


class Span:
    """One timed operation within a trace.

    ``start``/``end`` are clock readings from whichever clock the
    instrumented layer runs on (services use the sim clock); ``end`` is
    None until :meth:`finish`.  Attributes are free-form key/values set at
    start or via :meth:`set_attr`.
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "start", "end", "attrs", "status")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str, start: float,
                 attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.status = "ok"

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def error(self, detail: str) -> None:
        """Mark the span failed (does not finish it)."""
        self.status = "error"
        self.attrs["error"] = detail

    def finish(self, timestamp: Optional[float] = None) -> None:
        """Finish the span; idempotent.  Pops it from the tracer's active
        stack if it is there (out-of-order finishes remove, not pop)."""
        if self.end is not None:
            return
        self.end = self.start if timestamp is None else timestamp
        self.tracer._finish(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id})")


class SpanTree(NamedTuple):
    """A span plus its (start-ordered) children — one node of a trace tree."""

    span: Span
    children: List["SpanTree"]

    def to_dict(self) -> Dict[str, Any]:
        node = self.span.to_dict()
        node["children"] = [child.to_dict() for child in self.children]
        return node

    def walk(self) -> Iterator["SpanTree"]:
        """Depth-first, parents before children."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def depth(self) -> int:
        """Height of this subtree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth for child in self.children)

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())


class Tracer(RecordRing):
    """Creates spans, tracks the active span stack, stores finished spans.

    * :meth:`start_span` opens a span; with ``activate=True`` it also
      becomes the *current* span — the implicit parent of spans opened
      beneath it (nested activations in a session, the rule engine under
      ``activate_role``).  Explicit ``parent`` contexts override the
      stack, which is how event handlers re-parent themselves onto the
      remote span whose event they are processing.
    * The tracer is the :class:`~repro.obs.ring.RecordRing` of its spans:
      ``capacity`` bounds memory, oldest spans discarded first.
    * ``id_prefix`` namespaces the generated ids (``w0.t0001`` instead of
      ``t0001``).  Ids are deterministic *per tracer*, so two tracers in
      different worker processes would mint colliding ids; giving each
      worker its shard index as a prefix keeps ids globally unique and a
      coordinator can merge worker spans into one tracer via
      :meth:`adopt` without ambiguity.
    """

    def __init__(self, capacity: Optional[int] = 100_000,
                 id_prefix: str = "") -> None:
        super().__init__(capacity)
        self._id_prefix = id_prefix
        self._stack: List[Span] = []
        self._trace_seq = 0
        self._span_seq = 0

    # -- span lifecycle ----------------------------------------------------
    def start_span(self, name: str, timestamp: float = 0.0,
                   parent: Optional[SpanContext] = None,
                   activate: bool = True, **attrs: Any) -> Span:
        """Open a span.

        Parent resolution: an explicit ``parent`` context wins; otherwise
        the current active span; otherwise the span roots a new trace.
        """
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif self._stack:
            current = self._stack[-1]
            trace_id = current.trace_id
            parent_id = current.span_id
        else:
            self._trace_seq += 1
            trace_id = f"{self._id_prefix}t{self._trace_seq:04d}"
            parent_id = None
        self._span_seq += 1
        span = Span(self, trace_id, f"{self._id_prefix}s{self._span_seq:04d}",
                    parent_id, name, timestamp, attrs)
        self.append(span)
        if activate:
            self._stack.append(span)
        return span

    def current(self) -> Optional[Span]:
        """The innermost active span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def current_context(self) -> Optional[SpanContext]:
        span = self.current()
        return span.context if span is not None else None

    def _finish(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            self._stack.remove(span)

    # -- queries -----------------------------------------------------------
    def spans(self, trace_id: Optional[str] = None,
              name: Optional[str] = None) -> List[Span]:
        """Finished or live spans, in start order, optionally filtered."""
        return self.select(trace_id=trace_id, name=name)

    def trace_ids(self) -> List[str]:
        return list(dict.fromkeys(span.trace_id for span in self))

    def tree(self, trace_id: str) -> List[SpanTree]:
        """The trace as a forest of :class:`SpanTree` roots.

        A fully stitched trace has exactly one root; orphans (spans whose
        parent fell out of the capacity window) surface as extra roots
        rather than disappearing.  Children are ordered by start time,
        then by span id (sim-clock ties are common).
        """
        order = self.select(trace_id=trace_id)
        nodes = {span.span_id: SpanTree(span, []) for span in order}
        roots: List[SpanTree] = []
        for span in order:
            node = nodes[span.span_id]
            parent = (nodes.get(span.parent_id)
                      if span.parent_id is not None else None)
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        key = lambda tree: (tree.span.start, tree.span.span_id)  # noqa: E731
        for node in nodes.values():
            node.children.sort(key=key)
        roots.sort(key=key)
        return roots

    def adopt(self, span_dicts: Iterable[Dict[str, Any]]) -> int:
        """Merge spans exported elsewhere (:meth:`Span.to_dict` payloads).

        This is the coordinator half of cross-process stitching: workers
        export their spans as dicts in RPC replies, the coordinator adopts
        them all into one tracer, and :meth:`tree` reconstructs the
        multi-process cascade as a single tree (provided the workers used
        distinct ``id_prefix`` values).  Already-present span ids are
        skipped so repeated exports are idempotent.  Returns the number of
        spans adopted.
        """
        present = {span.span_id for span in self}
        adopted = 0
        for payload in span_dicts:
            if payload["span_id"] in present:
                continue
            span = Span(self, payload["trace_id"], payload["span_id"],
                        payload.get("parent_id"), payload["name"],
                        payload.get("start", 0.0),
                        dict(payload.get("attrs", {})))
            span.end = payload.get("end")
            span.status = payload.get("status", "ok")
            present.add(span.span_id)
            self.append(span)
            adopted += 1
        return adopted

    def reset(self) -> None:
        self.clear()
        self._stack.clear()
        self._trace_seq = 0
        self._span_seq = 0
