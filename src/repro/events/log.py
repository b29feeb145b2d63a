"""Event log: record and query every event crossing a broker.

Built on :meth:`~repro.events.broker.EventBroker.add_tap`.  Gives
deployments a middleware-level audit trail (which credential-revocation
events fired, when, and why) and gives tests a deterministic record to
assert against.  ``replay`` re-delivers a filtered slice into a handler —
useful to rebuild read-side state after a restart, the standard event-
sourcing pattern.  Retention is a :class:`~repro.obs.ring.RecordRing`,
the bounded store the access log and the tracer share.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..obs.ring import RecordRing
from .broker import EventBroker
from .messages import Event

__all__ = ["EventLog"]


class EventLog(RecordRing):
    """Records every event delivered by a broker, in order.

    ``capacity`` bounds it, oldest events evicted first and counted in
    :meth:`stats`; the default stays unbounded.
    """

    __slots__ = ("_untap", "_closed")

    def __init__(self, broker: EventBroker,
                 capacity: Optional[int] = None) -> None:
        super().__init__(capacity)
        self._untap = broker.add_tap(self.append)
        self._closed = False

    def close(self) -> None:
        """Stop recording (the log remains queryable)."""
        if not self._closed:
            self._untap()
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def events(self, topic: Optional[str] = None,
               since: Optional[float] = None,
               until: Optional[float] = None,
               **attrs) -> List[Event]:
        """Events matching the filters, in delivery order.

        The time window is half-open, ``[since, until)`` (see
        :meth:`~repro.obs.ring.RecordRing.select`); an ``attrs`` value of
        ``None`` matches an attribute that is ``None`` or absent.
        """
        return [event for event in self.select(since, until, topic=topic)
                if all(event.get(key) == want
                       for key, want in attrs.items())]

    def topics(self) -> List[str]:
        return sorted({event.topic for event in self})

    def replay(self, handler: Callable[[Event], None],
               topic: Optional[str] = None, **attrs) -> int:
        """Deliver the filtered slice into ``handler``; returns count."""
        matched = self.events(topic=topic, **attrs)
        for event in matched:
            handler(event)
        return len(matched)
