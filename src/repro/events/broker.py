"""Publish/subscribe event broker.

A minimal but complete realisation of the active middleware the paper
depends on: services *advertise* topics, clients *subscribe* to a
topic's channels, and published events are delivered synchronously (the
default, giving the "immediate deactivation" semantics of Sect. 4) or
buffered for deterministic replay in simulations.

Delivery is depth-safe: a handler may publish further events (revocation
cascades do exactly this); nested publishes are queued and drained in FIFO
order so the cascade is breadth-first and terminates even with cyclic
subscription graphs, since the OASIS layer never re-revokes an already
revoked credential.

A subscription is a topic plus a set of channel keys, or a wildcard.
Fig. 5 gives every credential a channel: the CRR string its events carry
as ``credential_ref``.  A key is such a string (``subscribe(...,
credential_ref=...)``) or an issuer, the text of a CRR before its last
``#``, naming all its channels (:meth:`EventBroker.subscribe_issuers`;
Sect. 4: a holder registers with *that issuer's* channel).  One index,
``(topic, key)`` -> subscriptions, sits beside each topic's wildcards, so
an event costs two probes and O(matching + wildcard subscribers).  The
registration-order scan is the differential suites' oracle
(``tests/reference/`` overrides :meth:`EventBroker._candidates`).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, Iterable, List,
                    Optional, Set, Tuple)

from ..core.terms import DATACLASS_SLOTS
from ..obs import runtime as _obs_runtime
from .messages import Event

__all__ = ["Subscription", "EventBroker", "issuer_of"]

Handler = Callable[[Event], None]

#: Distinguishes broker instances in exported metric labels.
_BROKER_COUNTER = itertools.count(1)

#: The event attribute naming its channel, the key the dispatch index is
#: built on.  Every per-credential channel event (revocation, re-issue,
#: heartbeat) carries it, so the index covers all Fig. 5 traffic.
DEFAULT_INDEX_KEY = "credential_ref"


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
    #: The channel keys heard, CRR strings and issuers; None for every
    #: event on the topic (a wildcard).
    keys: Optional[Set[str]]
    _broker: "EventBroker"
    _active: bool = True
    #: Global registration order; delivery merges index buckets and
    #: wildcard lists on it so dispatch preserves registration order.
    seq: int = field(default=0)

    @property
    def active(self) -> bool:
        return self._active

    def cancel(self) -> None:
        if self._active:
            self._active = False
            self._broker._remove(self)

    def attend(self, key: str) -> None:
        """Widen a keyed subscription to the channel ``key``: an issuer's
        channels, or one credential's by its CRR string."""
        if key not in self.keys:
            self.keys.add(key)
            if self._active:
                self._broker._index(self, key)

    def matches(self, event: Event) -> bool:
        if event.topic != self.topic:
            return False
        keys = self.keys
        if keys is None:
            return True
        ref = event.get(DEFAULT_INDEX_KEY)
        return type(ref) is str and (ref in keys or issuer_of(ref) in keys)


class EventBroker:
    """Topic-based pub/sub broker over per-credential channels.

    Statistics (`published_count`, `delivered_count`, :meth:`stats`)
    support the FIG5/ABL1 benchmarks, which compare the message cost of
    event-driven revocation against polling.
    """

    def __init__(self) -> None:
        self._seq = itertools.count(1)
        # topic -> {seq: Subscription}; authoritative registry.  Dicts keep
        # insertion (= registration) order and give O(1) removal by seq.
        self._subs: Dict[str, Dict[int, Subscription]] = {}
        # (topic, channel key) -> {seq: Subscription} — keyed
        # subscriptions under each key they hear, in registration order.
        self._keyed: Dict[Tuple[str, str], Dict[int, Subscription]] = {}
        # topic -> {seq: Subscription} — wildcards; they must be
        # considered for every event on the topic.
        self._wildcards: Dict[str, Dict[int, Subscription]] = {}
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
                  credential_ref: Optional[str] = None) -> Subscription:
        """Register ``handler`` for the events on ``topic``: those on the
        channel of the credential named ``credential_ref``, or all."""
        return self._add(topic, handler, None if credential_ref is None
                         else (credential_ref,))

    def subscribe_issuers(self, topic: str, handler: Handler,
                          issuers: Iterable[str]) -> Subscription:
        """Register ``handler`` for the events on ``topic`` whose
        ``credential_ref`` names a credential of one of ``issuers``.
        :meth:`Subscription.attend` widens the set; an event without a
        string ``credential_ref`` never matches."""
        return self._add(topic, handler, issuers)

    def _add(self, topic: str, handler: Handler,
             keys: Optional[Iterable[str]]) -> Subscription:
        if not topic:
            raise ValueError("topic must be non-empty")
        sub = Subscription(topic=topic, handler=handler,
                           keys=None if keys is None else set(),
                           _broker=self, seq=next(self._seq))
        self._subs.setdefault(topic, {})[sub.seq] = sub
        if keys is None:
            self._wildcards.setdefault(topic, {})[sub.seq] = sub
        else:
            for key in keys:
                sub.attend(key)
        return sub

    def _index(self, sub: Subscription, key: str) -> None:
        index_key = (sub.topic, key)
        bucket = self._keyed.setdefault(index_key, {})
        late = bucket and next(reversed(bucket)) > sub.seq
        bucket[sub.seq] = sub
        if late:
            # An older subscription widened after a newer one: restore
            # registration order (widening is rare, delivery is not).
            self._keyed[index_key] = dict(sorted(bucket.items()))

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
                # Only a CRR string names a channel: an event without one
                # reaches the wildcards alone.
                if type(value) is str:
                    keyed = self._keyed
                    bucket = keyed.get((topic, value))
                    if bucket:
                        found.append(bucket)
                    bucket = keyed.get((topic, issuer_of(value)))
                    if bucket:
                        found.append(bucket)
                break
        if not found:
            return []
        if len(found) == 1:
            return list(found[0].values())
        # Merged on registration order, once per subscription: one may
        # hear both a credential's key and its issuer's.
        merged: Dict[int, Subscription] = {}
        for subs in found:
            merged.update(subs)
        return [merged[seq] for seq in sorted(merged)]

    def _deliver(self, event: Event) -> int:
        # Candidates are copied out: handlers may subscribe/cancel during
        # delivery.
        # A subscriber that raises still leaves the event to the taps: it
        # was published, and a tap may be what carries it off this node.
        delivered = 0
        try:
            for sub in self._candidates(event):
                if sub._active:
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
        topic = sub.topic
        _discard(self._subs, topic, sub.seq)
        if sub.keys is None:
            _discard(self._wildcards, topic, sub.seq)
        else:
            for key in sub.keys:
                _discard(self._keyed, (topic, key), sub.seq)

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
        for (topic, _key), bucket in self._keyed.items():
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


def _discard(index: Dict[Any, Dict[int, Subscription]], key: Any,
             seq: int) -> None:
    """Drop ``seq`` from ``index[key]``, and the bucket once it is empty."""
    bucket = index.get(key)
    if bucket is not None:
        bucket.pop(seq, None)
        if not bucket:
            del index[key]
