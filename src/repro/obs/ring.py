"""One bounded, append-only record store for every retained log.

The access and event logs and the tracer's spans are all a
:class:`RecordRing`: a ``deque(maxlen=capacity)``, so evicting the
oldest record from a full ring costs O(1) however large the bound.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional

__all__ = ["RecordRing"]


class RecordRing:
    """Records in append order; with a ``capacity``, a ring.

    ``recorded`` counts appends since construction or :meth:`clear`,
    ``discarded`` those of them evicted.  ``None`` keeps everything.
    """

    __slots__ = ("_capacity", "_records", "recorded")

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._records: Deque[Any] = deque(maxlen=capacity)
        self.recorded = 0

    def append(self, record: Any) -> None:
        self.recorded += 1
        self._records.append(record)  # evicts the oldest when full

    @property
    def discarded(self) -> int:
        return self.recorded - len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Any]:
        # Over a snapshot: a deque raises if a writer thread appends
        # mid-iteration.
        return iter(tuple(self._records))

    def stats(self) -> Dict[str, Any]:
        """Retention counters: ring size/bound and what fell off the end."""
        return {"size": len(self._records), "capacity": self._capacity,
                "recorded": self.recorded, "discarded": self.discarded}

    def clear(self) -> None:
        """Drop every record and zero the counters."""
        self._records.clear()
        self.recorded = 0

    def select(self, since: Optional[float] = None,
               until: Optional[float] = None, **fields: Any) -> List[Any]:
        """Records, oldest first, whose attributes equal every field not
        given as ``None``, in the half-open window ``[since, until)`` on
        ``.timestamp`` — so windows ``[a, b)`` and ``[b, c)`` partition
        the log with no duplicated or dropped records."""
        wanted = [(name, value) for name, value in fields.items()
                  if value is not None]
        return [record for record in self
                if (since is None or record.timestamp >= since)
                and (until is None or record.timestamp < until)
                and all(getattr(record, name) == value
                        for name, value in wanted)]
