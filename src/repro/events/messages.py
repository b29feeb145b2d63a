"""Event message types for the active middleware substrate.

The paper integrates OASIS with an event-based middleware ([2], "Generic
support for distributed applications") so that "one service can be notified
of a change of state at another without any requirement for periodic
polling" (Sect. 4).  Events here are small immutable records published on
named topics; the access-control layer defines topics per credential record
so that revocation travels along the role-dependency edges of Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Tuple

__all__ = [
    "Event",
    "CREDENTIAL_REVOKED",
    "CREDENTIAL_REISSUED",
    "CREDENTIAL_HEARTBEAT",
]

#: Topic kinds used by the OASIS layer.
CREDENTIAL_REVOKED = "credential.revoked"
#: The credential's record is still valid but its *bytes* changed (e.g. the
#: issuer rotated its secret and the certificate must be re-issued).
#: Holders drop cached validations but do NOT cascade-revoke dependants.
CREDENTIAL_REISSUED = "credential.reissued"
CREDENTIAL_HEARTBEAT = "credential.heartbeat"

#: Attribute value types that survive a JSON journal round trip with
#: their Python type intact (``bool`` is an ``int`` subclass; listing it
#: is documentation).  ``to_payload`` enforces this.
_JSON_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class Event:
    """An immutable event published on a topic.

    ``attributes`` is stored as a sorted tuple of pairs so events are
    hashable and order-insensitive in equality.
    """

    topic: str
    attributes: Tuple[Tuple[str, Any], ...] = field(default=())
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.topic:
            raise ValueError("event topic must be non-empty")
        normalized = tuple(sorted(self.attributes, key=lambda kv: kv[0]))
        object.__setattr__(self, "attributes", normalized)

    @classmethod
    def make(cls, topic: str, timestamp: float = 0.0,
             **attributes: Any) -> "Event":
        return cls(topic=topic, attributes=tuple(attributes.items()),
                   timestamp=timestamp)

    @property
    def attrs(self) -> Mapping[str, Any]:
        return dict(self.attributes)

    def get(self, key: str, default: Any = None) -> Any:
        # Events carry a handful of attributes; scanning the tuple avoids
        # materialising a dict for one lookup.
        for name, value in self.attributes:
            if name == key:
                return value
        return default

    def to_payload(self) -> Mapping[str, Any]:
        """A JSON-able dict round-trippable via :meth:`from_payload`.

        Used by the crash-consistent revocation path: a cascade's events
        are journalled to the record store's append log *before* they are
        published, and a resumed service re-emits them with topic,
        attributes and timestamp intact.  That round trip is only
        type-faithful for JSON-native scalar attribute values, so
        anything else is rejected *here* — at journal time — rather than
        silently replayed as a string after a restart.
        """
        for name, value in self.attributes:
            if not isinstance(value, _JSON_SCALARS):
                raise TypeError(
                    f"event attribute {name!r} has non-JSON-native value "
                    f"of type {type(value).__name__}; journalled events "
                    f"must round-trip without type loss")
        return {
            "topic": self.topic,
            "timestamp": self.timestamp,
            "attributes": [[name, value] for name, value in self.attributes],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Event":
        """Rebuild an event journalled with :meth:`to_payload`."""
        return cls(topic=payload["topic"],
                   attributes=tuple((name, value) for name, value
                                    in payload.get("attributes", ())),
                   timestamp=payload.get("timestamp", 0.0))

    def with_attributes(self, **extra: Any) -> "Event":
        """A copy carrying additional attributes (same-named ones replaced).

        Used by the observability layer to let span context (``trace_id``,
        ``span_id``) ride on revocation events: a subscription selects
        events by topic and ``credential_ref`` alone, so extra attributes
        never change who an event is delivered to.
        """
        merged = dict(self.attributes)
        merged.update(extra)
        return Event(topic=self.topic, attributes=tuple(merged.items()),
                     timestamp=self.timestamp)
