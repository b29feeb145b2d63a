"""Credential partitioning: which shard owns which ``CredentialRef``.

The scale-out design (docs/scaling.md) partitions
credential records and live sessions across N worker processes **by
CredentialRef hash**: shard ``crc32(ref.qualified) % shards`` owns the
record, receives the revocation for it, and runs its cascade.

Routing by the hash of a ref is only useful if the shard that *issues* a
credential is also the shard its ref hashes to — otherwise ownership and
issuance disagree and every lookup needs a directory.  The
:class:`ShardedRefAllocator` closes that loop from the issuing side: a
worker's allocator skips any serial whose ref would hash to a different
shard, so the serial spaces of the N workers are disjoint and *whoever
issued a credential owns it*, by construction, with no coordination.
``crc32`` (not Python's ``hash``) keeps the placement stable across
processes and interpreter runs — ``PYTHONHASHSEED`` must not move
records between shards.
"""

from __future__ import annotations

import itertools
import zlib
from typing import List

from ..core.credentials import CredentialRef, CredentialRefAllocator
from ..core.types import ServiceId

__all__ = [
    "stable_hash",
    "shard_of_key",
    "shard_of_ref",
    "ShardedRefAllocator",
]


def stable_hash(key: str) -> int:
    """A process-stable 32-bit hash of a routing key."""
    return zlib.crc32(key.encode("utf-8"))


def shard_of_key(key: str, shards: int) -> int:
    """The shard a free-form routing key (session id, principal) maps to."""
    return stable_hash(key) % shards


def shard_of_ref(ref: CredentialRef, shards: int) -> int:
    """The shard that owns a credential record."""
    return stable_hash(ref.qualified) % shards


class ShardedRefAllocator(CredentialRefAllocator):
    """A serial allocator that only mints refs owned by its shard.

    Works by rejection over the serial space: serials whose qualified ref
    string hashes to a foreign shard are skipped, never allocated by this
    worker (a sibling worker with the complementary filter allocates
    them).  Expected probing cost is ``shards`` crc32 calls per
    allocation — micro-costs, and the bulk path amortises bookkeeping.

    Invariant: ``_next_serial`` always sits on an owned serial, so
    :meth:`next` hands it out without probing first.
    """

    __slots__ = ("shard", "shards")

    def __init__(self, service: ServiceId, shard: int, shards: int) -> None:
        if shards <= 0:
            raise ValueError("shards must be positive")
        if not 0 <= shard < shards:
            raise ValueError(f"shard {shard} out of range for {shards} "
                             f"shards")
        super().__init__(service)
        self.shard = shard
        self.shards = shards
        self._align()

    def owns_serial(self, serial: int) -> bool:
        return (stable_hash(f"{self._service}#{serial}") % self.shards
                == self.shard)

    def _align(self) -> None:
        """Advance ``_next_serial`` to the next owned serial (no-op when
        already owned)."""
        serial = self._next_serial
        owns = self.owns_serial
        while not owns(serial):
            serial += 1
        if serial != self._next_serial:
            self._next_serial = serial
            self._counter = itertools.count(serial)

    def next(self) -> CredentialRef:
        serial = self._next_serial  # owned, by invariant
        ref = CredentialRef(self._service, serial)
        serial += 1
        owns = self.owns_serial
        while not owns(serial):
            serial += 1
        self._next_serial = serial
        self._counter = itertools.count(serial)
        return ref

    def next_many(self, count: int) -> List[CredentialRef]:
        service = self._service
        owns = self.owns_serial
        serial = self._next_serial
        refs: List[CredentialRef] = []
        while len(refs) < count:
            if owns(serial):
                refs.append(CredentialRef(service, serial))
            serial += 1
        while not owns(serial):
            serial += 1
        self._next_serial = serial
        self._counter = itertools.count(serial)
        return refs

    def advance_past(self, serial: int) -> None:
        super().advance_past(serial)
        self._align()
