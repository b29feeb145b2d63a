"""The keyed-record storage interface behind the service state core.

Every piece of issuer-side security state — credential
records (the CRs of Fig. 4), constraint facts, recovery metadata —
lives behind ONE storage discipline: named *buckets* of ``key -> record``
pairs with batch variants, plus an append-only log used to make revocation
cascades crash-consistent.  The discipline deliberately mirrors
attribute-bucket stores (one interface, not one schema per subsystem): a
backend only has to speak five verbs (get/put/delete/scan + log-append) to
host a service (see docs/persistence.md).

Two backends ship here and in :mod:`repro.db.sqlite_store`:

* :class:`MemoryRecordStore` — plain dict-of-dicts holding live object
  references.  A ``put`` is a dictionary assignment; this is the refit of
  the original in-process representation, so attaching it costs nothing
  measurable on the activation/cascade hot paths (gated at <=1.05x by the
  benchmark harness).
* :class:`~repro.db.sqlite_store.SqliteRecordStore` — durable, with
  *write-behind* record and log buffers (activation, invocation and a
  covered cascade hop stay memory-speed) and a commit on demand
  (revocations are on disk *before* their cascade publishes).

The append log carries small JSON-able dict entries.  The cascade
protocol writes one ``{"op": "cascade", "events": [...]}`` entry before
publishing and one ``{"op": "cascade-done", "cascade_seq": n}`` marker
after the broker drains.  ``log_append(durable=True)`` commits the entry
with one fsync (it survives a power cut); a plain ``log_append`` rides
the next commit, and until then survives neither a process kill nor a
power cut.  :attr:`RecordStore.synced` counts the points at which every
entry appended so far became synced.  The service that starts a drain
commits its entry durably; the in-process hops of that drain append
theirs plainly, and every marker of the drain is *held* on its stores
until each store the drain touched has synced after its entry (see
``repro.core.state`` and docs/persistence.md).  :func:`completed_log_seqs`
identifies matched pairs so :meth:`RecordStore.flush` can prune them.
Entries without a matching ``done`` marker are the cascades a restarted
service re-emits (``OasisService.replay_pending``) — re-emission is
idempotent.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

__all__ = [
    "RecordStore",
    "MemoryRecordStore",
    "StoreCodec",
    "completed_log_seqs",
]


class StoreCodec:
    """Translates between live objects and JSON-able payload dicts.

    Backends that serialise (SQLite) call :meth:`encode` when a record is
    written out and :meth:`decode` when one is read back; the in-memory
    backend never needs either.  The default codec is the identity — fine
    for buckets whose values are already plain dicts.
    """

    def encode(self, bucket: str, value: Any) -> Any:
        return value

    def decode(self, bucket: str, payload: Any) -> Any:
        return payload


def completed_log_seqs(entries: Iterable[Tuple[int, Dict[str, Any]]]
                       ) -> Set[int]:
    """Log sequence numbers safe to prune: every ``cascade`` entry with a
    matching ``cascade-done`` marker, the markers themselves, and all but
    the newest ``serial-reserve`` watermark."""
    done_for: Dict[int, int] = {}
    reserves: List[int] = []
    for seq, entry in entries:
        op = entry.get("op")
        if op == "cascade-done":
            done_for[entry["cascade_seq"]] = seq
        elif op == "serial-reserve":
            reserves.append(seq)
    victims: Set[int] = set()
    for cascade_seq, done_seq in done_for.items():
        victims.add(cascade_seq)
        victims.add(done_seq)
    if len(reserves) > 1:
        victims.update(reserves[:-1])
    return victims


class RecordStore:
    """Abstract keyed-record store: ``(bucket, key) -> record`` plus log.

    Keys are strings; values are whatever the attached :class:`StoreCodec`
    can round-trip.  Subclasses implement the primitive verbs; the batch
    variants have loop defaults a backend may override with something
    cheaper.  All implementations keep the operation counters exposed by
    :meth:`stats` (surfaced through the obs registry as
    ``oasis_record_store_*`` collectors).
    """

    backend = "abstract"

    def __init__(self, codec: Optional[StoreCodec] = None) -> None:
        self.codec = codec or StoreCodec()
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.scans = 0
        self.log_appends = 0
        self.durable_commits = 0
        self.flushes = 0
        #: Sync generation: bumped whenever every entry appended so far
        #: has become power-cut safe.  Never reset (held markers compare
        #: against it).
        self.synced = 0
        #: Held cascade markers waiting on this store, in hold order:
        #: objects with ``release()`` (run before the next flush) and
        #: ``abandon()`` (run at a crash close) — see ``repro.core.state``.
        self.held: Dict[Any, None] = {}

    # -- primitive verbs ------------------------------------------------
    def get(self, bucket: str, key: str, default: Any = None) -> Any:
        raise NotImplementedError

    def put(self, bucket: str, key: str, value: Any) -> None:
        raise NotImplementedError

    def delete(self, bucket: str, key: str) -> None:
        raise NotImplementedError

    def scan(self, bucket: str) -> Iterator[Tuple[str, Any]]:
        """All ``(key, value)`` pairs of ``bucket``, pending writes
        included (a reader always sees its own write-behind buffer).
        The iterator may be a live view: do not write the store while
        iterating it."""
        raise NotImplementedError

    def count(self, bucket: str) -> int:
        raise NotImplementedError

    # -- batch variants -------------------------------------------------
    def put_many(self, bucket: str, items: Iterable[Tuple[str, Any]]) -> int:
        written = 0
        for key, value in items:
            self.put(bucket, key, value)
            written += 1
        return written

    def delete_many(self, bucket: str, keys: Iterable[str]) -> None:
        for key in keys:
            self.delete(bucket, key)

    # -- append log -----------------------------------------------------
    def log_append(self, entry: Dict[str, Any],
                   durable: bool = False) -> int:
        """Append ``entry`` to the log; returns its sequence number.

        ``durable=True`` commits the entry, and every entry appended
        before it, with one fsync before the call returns — the
        cascade-ordering guarantee rests on this — and counts as one of
        the ``durable_commits``.  A plain append rides the next commit.
        """
        raise NotImplementedError

    def log_entries(self) -> List[Tuple[int, Dict[str, Any]]]:
        """Unpruned log entries in append order (the recovery tail)."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------
    def sync(self) -> None:
        """Make every log entry appended so far power-cut safe."""
        raise NotImplementedError

    def flush(self) -> None:
        """Checkpoint: release the held markers, persist buffered record
        writes, prune completed cascade entries from the log, sync."""
        raise NotImplementedError

    def release_held(self) -> None:
        """Release every marker held on this store — each first syncs the
        stores it waits on, and leaves every store's ``held``.  Every
        flush starts here; a flush the release itself causes finds the
        markers already gone."""
        while self.held:
            next(iter(self.held)).release()

    def close(self, flush: bool = True) -> None:
        """Release the backend.  ``flush=False`` abandons buffered record
        writes, held markers and any uncommitted log entries — the crash
        switch the kill-and-resume tests flip."""
        if flush:
            self.flush()
        else:
            self.abandon_held()

    def abandon_held(self) -> None:
        """Drop every marker held on this store, unwritten: the cascades
        they would close stay pending and are re-emitted after a
        restart."""
        for held in list(self.held):
            held.abandon()

    # -- observability --------------------------------------------------
    def _op_counts(self) -> Dict[str, int]:
        return {
            "puts": self.puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "scans": self.scans,
            "log_appends": self.log_appends,
            "durable_commits": self.durable_commits,
            "flushes": self.flushes,
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "ops": self._op_counts(),
            "pending_writes": 0,
            "log_entries": len(self.log_entries()),
        }


#: Sentinel marking a pending delete in write-behind buffers.
DELETED = object()


class MemoryRecordStore(RecordStore):
    """The in-memory backend: buckets are dicts, values live references.

    Everything is "durable" for exactly as long as the process lives,
    which makes this the refit of the original all-in-one representation:
    a service state core running against it behaves byte-for-byte like the
    storeless service, and in-process ``resume`` (fail-over drills, the
    differential suite) reads the same objects back.
    """

    backend = "memory"

    def __init__(self, codec: Optional[StoreCodec] = None) -> None:
        super().__init__(codec)
        self._buckets: Dict[str, Dict[str, Any]] = {}
        self._log: List[Tuple[int, Dict[str, Any]]] = []
        self._log_seq = 0

    def get(self, bucket: str, key: str, default: Any = None) -> Any:
        self.gets += 1
        rows = self._buckets.get(bucket)
        if rows is None:
            return default
        return rows.get(key, default)

    def put(self, bucket: str, key: str, value: Any) -> None:
        self.puts += 1
        rows = self._buckets.get(bucket)
        if rows is None:
            rows = self._buckets[bucket] = {}
        rows[key] = value

    def put_many(self, bucket: str, items: Iterable[Tuple[str, Any]]) -> int:
        rows = self._buckets.get(bucket)
        if rows is None:
            rows = self._buckets[bucket] = {}
        batch = items if isinstance(items, list) else list(items)
        rows.update(batch)
        self.puts += len(batch)
        return len(batch)

    def delete(self, bucket: str, key: str) -> None:
        self.deletes += 1
        rows = self._buckets.get(bucket)
        if rows is not None:
            rows.pop(key, None)

    def scan(self, bucket: str) -> Iterator[Tuple[str, Any]]:
        self.scans += 1
        rows = self._buckets.get(bucket, {})
        return iter(list(rows.items()))

    def count(self, bucket: str) -> int:
        return len(self._buckets.get(bucket, ()))

    def log_append(self, entry: Dict[str, Any],
                   durable: bool = False) -> int:
        self.log_appends += 1
        if durable:
            self.durable_commits += 1
        # Nothing here outlives the process, so every append is as
        # synced as it gets.
        self.synced += 1
        self._log_seq += 1
        self._log.append((self._log_seq, entry))
        return self._log_seq

    def log_entries(self) -> List[Tuple[int, Dict[str, Any]]]:
        return list(self._log)

    def sync(self) -> None:
        self.synced += 1

    def flush(self) -> None:
        self.release_held()
        self.flushes += 1
        victims = completed_log_seqs(self._log)
        if victims:
            self._log = [(seq, entry) for seq, entry in self._log
                         if seq not in victims]
        self.synced += 1
