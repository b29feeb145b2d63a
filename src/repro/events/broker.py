"""Publish/subscribe event broker.

A minimal but complete realisation of the active middleware the paper
depends on: services *advertise* topics, clients *subscribe* with optional
attribute filters, and published events are delivered synchronously (the
default, giving the "immediate deactivation" semantics of Sect. 4) or
buffered for deterministic replay in simulations.

Delivery is depth-safe: a handler may publish further events (revocation
cascades do exactly this); nested publishes are queued and drained in FIFO
order so the cascade is breadth-first and terminates even with cyclic
subscription graphs, since the OASIS layer never re-revokes an already
revoked credential.

Dispatch is *indexed* twice over.  Subscriptions whose filter includes
the index key (:data:`DEFAULT_INDEX_KEY` — every Fig. 5 channel event
carries it) are bucketed under ``(topic, value)``; *scoped* subscriptions
(:meth:`EventBroker.subscribe_issuers`) are bucketed under ``(topic,
issuer)`` for each issuer they attend, the issuer of an event being the
text of its ``credential_ref`` before the last ``#`` (the CRR names its
issuing service, so events carry nothing extra).  Delivering an event
costs O(matching + wildcard subscribers on the topic) rather than O(all
topic subscribers): a service hears the revocations of the issuers its
state depends on (Sect. 4: a holder registers with *that issuer's*
channel), not every revocation in the process.  The registration-order
scan is the differential suites' oracle (``tests/reference/`` overrides
:meth:`EventBroker._candidates`); ``tests/events/test_broker_differential.py``
checks both deliver identical sequences.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (Any, Callable, Deque, Dict, Iterable, List, Mapping,
                    Optional, Set, Tuple)

from ..core.terms import DATACLASS_SLOTS
from ..obs import runtime as _obs_runtime
from .messages import Event

__all__ = ["Subscription", "EventBroker", "issuer_of"]

Handler = Callable[[Event], None]

#: Distinguishes broker instances in exported metric labels.
_BROKER_COUNTER = itertools.count(1)

#: The equality-filter key the dispatch index is built on.  Every
#: per-credential channel event (revocation, re-issue, heartbeat) carries
#: this attribute, so the index covers all Fig. 5 traffic.
DEFAULT_INDEX_KEY = "credential_ref"

#: Sentinel distinguishing "attribute absent" from any real value during
#: residual filter checks (an event attribute can legitimately be None).
_MISSING = object()

_by_seq = attrgetter("seq")


def issuer_of(ref_string: str) -> str:
    """The issuing service named by a CRR string: the text before its
    last ``#`` (``"dom/svc#7"`` -> ``"dom/svc"``)."""
    return ref_string.rpartition("#")[0]


@dataclass(**DATACLASS_SLOTS)
class Subscription:
    """A live subscription; call :meth:`cancel` to stop receiving events.

    Slotted: the per-edge Fig. 5 design (the differential suites' oracle)
    takes one subscription per dependency edge, so a scale world can carry
    hundreds of thousands of these.
    """

    topic: str
    handler: Handler
    filter_attrs: Mapping[str, Any]
    _broker: "EventBroker"
    _active: bool = True
    #: Global registration order; delivery merges index buckets and
    #: wildcard lists on it so dispatch preserves registration order.
    seq: int = field(default=0)
    #: Filters still to check at delivery time, given where the broker
    #: placed this subscription: a bucketed subscription's index-key
    #: filter is guaranteed by bucket selection and the topic by candidate
    #: selection, so only the rest is re-checked per event.
    residual: Tuple[Tuple[str, Any], ...] = ()
    #: A scoped subscription's issuers (see
    #: :meth:`EventBroker.subscribe_issuers`); None for any issuer.
    issuers: Optional[Set[str]] = None

    @property
    def active(self) -> bool:
        return self._active

    def cancel(self) -> None:
        if self._active:
            self._active = False
            self._broker._remove(self)

    def attend(self, issuer: str) -> None:
        """Widen a scoped subscription to the events of ``issuer``."""
        if issuer not in self.issuers:
            self.issuers.add(issuer)
            if self._active:
                self._broker._attend(self, issuer)

    def matches(self, event: Event) -> bool:
        if event.topic != self.topic:
            return False
        attrs = event.attrs
        if self.issuers is not None:
            ref = attrs.get(DEFAULT_INDEX_KEY)
            if type(ref) is not str or issuer_of(ref) not in self.issuers:
                return False
        for key, want in self.filter_attrs.items():
            if key not in attrs or attrs[key] != want:
                return False
        return True


class EventBroker:
    """Topic-based pub/sub broker with attribute filtering.

    Statistics (`published_count`, `delivered_count`, :meth:`stats`)
    support the FIG5/ABL1 benchmarks, which compare the message cost of
    event-driven revocation against polling.
    """

    def __init__(self) -> None:
        self._seq = itertools.count(1)
        # topic -> {seq: Subscription}; authoritative registry.  Dicts keep
        # insertion (= registration) order and give O(1) removal by seq.
        self._subs: Dict[str, Dict[int, Subscription]] = {}
        # (topic, index-key value) -> {seq: Subscription} — subscriptions
        # whose filter pins the index key to one value.
        self._buckets: Dict[Tuple[str, Any], Dict[int, Subscription]] = {}
        # topic -> {seq: Subscription} — unscoped subscriptions with no
        # index-key filter; they must be considered for every event on
        # the topic.
        self._wildcards: Dict[str, Dict[int, Subscription]] = {}
        # (topic, issuer) -> {seq: Subscription} — scoped subscriptions,
        # under each issuer they attend, in registration order.
        self._scoped: Dict[Tuple[str, str], Dict[int, Subscription]] = {}
        self._taps: List[Handler] = []
        self._publishing = False
        self._queue: Deque[Event] = deque()
        self._after_drain: List[Callable[[bool], None]] = []
        #: The journalled cascades of the running drain — a
        #: ``repro.core.state.Drain`` its publishers share — or None.
        self.cascade_drain: Any = None
        self.published_count = 0
        self.delivered_count = 0
        self._topic_published: Dict[str, int] = {}
        self._topic_delivered: Dict[str, int] = {}
        self._queue_depth_peak = 0
        self._obs = _obs_runtime.pipeline()
        if self._obs is not None:
            self._obs_label = f"b{next(_BROKER_COUNTER)}"
            self._obs.metrics.register_collector(self._collect_obs_metrics)

    def _collect_obs_metrics(self) -> Iterable[Tuple[str, str, str,
                                                     List[Tuple[Dict[str, Any],
                                                                Any]]]]:
        """Pull-time metric families; the publish/deliver hot paths stay
        plain counter increments."""
        broker = self._obs_label
        yield ("oasis_broker_events_total", "counter",
               "events through the broker, by stage",
               [({"broker": broker, "kind": "published"},
                 self.published_count),
                ({"broker": broker, "kind": "delivered"},
                 self.delivered_count)])
        yield ("oasis_broker_queue_depth", "gauge",
               "events currently queued for delivery",
               [({"broker": broker}, len(self._queue))])
        yield ("oasis_broker_queue_depth_peak", "gauge",
               "high-watermark of the delivery queue",
               [({"broker": broker}, self._queue_depth_peak)])
        yield ("oasis_broker_subscriptions", "gauge",
               "live subscriptions",
               [({"broker": broker}, self.subscriber_count())])

    def add_tap(self, handler: Handler) -> Callable[[], None]:
        """Register a tap that sees *every* delivered event, any topic.

        Taps are for observability (event logs, debugging, audit) and
        for carrying events off the node — they run after regular
        subscribers, even when one of those raised, and must not
        publish.  Returns an un-tap function.
        """
        self._taps.append(handler)

        def remove() -> None:
            if handler in self._taps:
                self._taps.remove(handler)

        return remove

    def subscribe(self, topic: str, handler: Handler,
                  **filter_attrs: Any) -> Subscription:
        """Register ``handler`` for events on ``topic`` matching the filter."""
        if not topic:
            raise ValueError("topic must be non-empty")
        sub = Subscription(topic=topic, handler=handler,
                           filter_attrs=dict(filter_attrs), _broker=self,
                           seq=next(self._seq))
        sub.residual = tuple(sub.filter_attrs.items())
        self._subs.setdefault(topic, {})[sub.seq] = sub
        if DEFAULT_INDEX_KEY in sub.filter_attrs:
            key = (topic, sub.filter_attrs[DEFAULT_INDEX_KEY])
            self._buckets.setdefault(key, {})[sub.seq] = sub
            sub.residual = tuple(
                (k, v) for k, v in sub.residual if k != DEFAULT_INDEX_KEY)
        else:
            self._wildcards.setdefault(topic, {})[sub.seq] = sub
        return sub

    def subscribe_issuers(self, topic: str, handler: Handler,
                          issuers: Iterable[str]) -> Subscription:
        """Register ``handler`` for the events on ``topic`` whose
        ``credential_ref`` names a credential of one of ``issuers``.
        :meth:`Subscription.attend` widens the set; an event without a
        string ``credential_ref`` never matches."""
        if not topic:
            raise ValueError("topic must be non-empty")
        sub = Subscription(topic=topic, handler=handler, filter_attrs={},
                           _broker=self, seq=next(self._seq),
                           issuers=set())
        self._subs.setdefault(topic, {})[sub.seq] = sub
        for issuer in issuers:
            sub.attend(issuer)
        return sub

    def _attend(self, sub: Subscription, issuer: str) -> None:
        key = (sub.topic, issuer)
        bucket = self._scoped.get(key)
        if bucket is None:
            self._scoped[key] = {sub.seq: sub}
            return
        ordered = next(reversed(bucket)) < sub.seq
        bucket[sub.seq] = sub
        if not ordered:
            # An older subscription widened after a newer one: restore
            # registration order (widening is rare, delivery is not).
            self._scoped[key] = dict(sorted(bucket.items()))

    def subscriber_count(self, topic: Optional[str] = None) -> int:
        if topic is None:
            return sum(len(subs) for subs in self._subs.values())
        return len(self._subs.get(topic, ()))

    def publish(self, event: Event) -> int:
        """Publish an event; returns the number of deliveries it caused.

        Deliveries triggered transitively (handlers that publish) are
        counted in `delivered_count` but not in the return value.
        """
        self.published_count += 1
        self._topic_published[event.topic] = \
            self._topic_published.get(event.topic, 0) + 1
        self._queue.append(event)
        if self._publishing:
            return 0  # outer publish loop will drain the queue
        return self._drain(own=1)

    def publish_batch(self, events: Iterable[Event]) -> int:
        """Publish a coalesced batch of events in one queue pass.

        The batch is appended to the delivery queue in order and drained
        FIFO exactly as individually-published events would be, so batched
        revocation cascades keep breadth-first semantics.  Returns the
        number of deliveries the batch's own events caused (transitive
        deliveries are counted in ``delivered_count`` only); inside an
        outer publish the batch is queued and 0 is returned, as with
        :meth:`publish`.
        """
        batch = list(events)
        if not batch:
            return 0
        self.published_count += len(batch)
        for event in batch:
            self._topic_published[event.topic] = \
                self._topic_published.get(event.topic, 0) + 1
            self._queue.append(event)
        if self._publishing:
            return 0
        return self._drain(own=len(batch))

    @property
    def draining(self) -> bool:
        """True while a drain runs: a publish now only queues."""
        return self._publishing

    def after_drain(self, callback: Callable[[bool], None]) -> None:
        """Call ``callback(True)`` once the running drain has delivered
        every queued event, or ``callback(False)`` if a handler raised out
        of it.  Outside a drain it runs at once."""
        if not self._publishing:
            callback(True)
        else:
            self._after_drain.append(callback)

    def _drain(self, own: int) -> int:
        """Drain the queue; count deliveries of the caller's ``own``
        events, the last ones queued.  Any before them were left by a
        drain a handler raised out of: delivered first, not counted."""
        self._publishing = True
        own_deliveries = 0
        leftover = len(self._queue) - own
        completed = False
        try:
            while self._queue:
                if self._obs is not None:
                    depth = len(self._queue)
                    if depth > self._queue_depth_peak:
                        self._queue_depth_peak = depth
                current = self._queue.popleft()
                delivered = self._deliver(current)
                if leftover:
                    leftover -= 1
                elif own:
                    own -= 1
                    own_deliveries += delivered
            completed = True
        finally:
            self._publishing = False
            if self._after_drain:
                callbacks, self._after_drain = self._after_drain, []
                for callback in callbacks:
                    callback(completed)
        return own_deliveries

    def _candidates(self, event: Event) -> List[Subscription]:
        """Subscriptions that may match ``event``, in registration order."""
        topic = event.topic
        found = []
        wildcards = self._wildcards.get(topic)
        if wildcards:
            found.append(wildcards)
        for key, value in event.attributes:
            if key == DEFAULT_INDEX_KEY:
                # An event without the index key cannot match an indexed
                # or a scoped subscription: both need it.
                bucket = self._buckets.get((topic, value))
                if bucket:
                    found.append(bucket)
                if type(value) is str and self._scoped:
                    scoped = self._scoped.get((topic, issuer_of(value)))
                    if scoped:
                        found.append(scoped)
                break
        if not found:
            return []
        if len(found) == 1:
            return list(found[0].values())
        # Each source is in registration order; so is their merge.
        merged = [sub for subs in found for sub in subs.values()]
        merged.sort(key=_by_seq)
        return merged

    def _deliver(self, event: Event) -> int:
        # Candidates are copied out: handlers may subscribe/cancel during
        # delivery.  Only each subscription's *residual* filters need
        # checking here — topic and (for bucketed subscriptions) the index
        # key are guaranteed by candidate selection.
        # A subscriber that raises still leaves the event to the taps: it
        # was published, and a tap may be what carries it off this node.
        delivered = 0
        try:
            for sub in self._candidates(event):
                if not sub._active:
                    continue
                residual = sub.residual
                if residual:
                    attrs = event.attrs
                    satisfied = True
                    for key, want in residual:
                        if attrs.get(key, _MISSING) != want:
                            satisfied = False
                            break
                    if not satisfied:
                        continue
                sub.handler(event)
                delivered += 1
        finally:
            self.delivered_count += delivered
            if delivered:
                self._topic_delivered[event.topic] = \
                    self._topic_delivered.get(event.topic, 0) + delivered
            if self._taps:
                for tap in tuple(self._taps):
                    tap(event)
        return delivered

    def _remove(self, sub: Subscription) -> None:
        subs = self._subs.get(sub.topic)
        if subs is not None and subs.pop(sub.seq, None) is not None:
            if not subs:
                del self._subs[sub.topic]
        if DEFAULT_INDEX_KEY in sub.filter_attrs:
            key = (sub.topic, sub.filter_attrs[DEFAULT_INDEX_KEY])
            bucket = self._buckets.get(key)
            if bucket is not None:
                bucket.pop(sub.seq, None)
                if not bucket:
                    del self._buckets[key]
        elif sub.issuers is not None:
            for issuer in sub.issuers:
                key = (sub.topic, issuer)
                scoped = self._scoped.get(key)
                if scoped is not None:
                    scoped.pop(sub.seq, None)
                    if not scoped:
                        del self._scoped[key]
        else:
            wildcards = self._wildcards.get(sub.topic)
            if wildcards is not None:
                wildcards.pop(sub.seq, None)
                if not wildcards:
                    del self._wildcards[sub.topic]

    def stats(self) -> Dict[str, Any]:
        """Observability snapshot: global/per-topic counters and the
        current shape of the dispatch index.

        Consumed by the benchmark harness and asserted in tests; cheap
        enough to call from monitoring loops.
        """
        topics: Dict[str, Dict[str, int]] = {}
        for topic, count in self._topic_published.items():
            topics.setdefault(topic, {"published": 0, "delivered": 0})[
                "published"] = count
        for topic, count in self._topic_delivered.items():
            topics.setdefault(topic, {"published": 0, "delivered": 0})[
                "delivered"] = count
        bucket_sizes: Dict[str, Dict[str, int]] = {}
        for (topic, _value), bucket in self._buckets.items():
            entry = bucket_sizes.setdefault(
                topic, {"buckets": 0, "subscriptions": 0, "largest": 0})
            entry["buckets"] += 1
            entry["subscriptions"] += len(bucket)
            entry["largest"] = max(entry["largest"], len(bucket))
        return {
            "index_key": DEFAULT_INDEX_KEY,
            "published_count": self.published_count,
            "delivered_count": self.delivered_count,
            "subscriptions": self.subscriber_count(),
            "wildcard_subscriptions": sum(
                len(subs) for subs in self._wildcards.values()),
            "topics": topics,
            "index_buckets": bucket_sizes,
        }
