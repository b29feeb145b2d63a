"""SQLite backend for the keyed-record store (durable credential state).

The design target is the asymmetry the paper's workloads impose: role
activation and method invocation happen constantly and must stay
memory-speed, while revocation is rare but must *never* be lost — "the
ability to revoke ... is the essence of active security".  So:

* **records are write-behind**: ``put``/``delete`` land in an in-process
  buffer of live object references and are serialised (via the attached
  :class:`~repro.db.kv.StoreCodec`) only at :meth:`flush` — an activation
  costs one dict assignment, exactly like the memory backend.  Reads
  merge the buffer over the table, so the store is always read-your-writes
  consistent within the process.
* **the append log is write-behind too, committed on demand**: a plain
  ``log_append`` (a covered hop's ``cascade`` entry, a released
  ``cascade-done`` marker) only takes the next sequence number and joins
  an in-process buffer, and every commit — a durable append,
  :meth:`sync`, :meth:`flush` — writes the buffered entries first, in
  sequence order, inside its own transaction.  ``log_append(durable=True)``
  commits before it returns, which is how a revocation cascade gets its
  journal entry onto disk *before* any event reaches the broker — and
  before any flipped record is mirrored into the buffer, so an
  auto-flush triggered by the mirroring can never commit a REVOKED
  record the log does not cover (the flush writes the log first).  A
  crash after the journal commit but before the marker is committed
  leaves a ``cascade`` entry with no ``cascade-done`` — the recovery tail
  a service built on the store replays and re-emits.
* **one fsync per commit**: the database runs in ``journal_mode=WAL``
  and the connection stays at ``synchronous=FULL``, so a commit is one
  WAL append plus one fsync (a rollback journal costs a journal create +
  fsync, a database write + fsync and an unlink) and survives a power
  cut.  An entry still in the buffer survives neither a process kill nor
  a power cut: :attr:`synced` counts the commits, the points at which
  every entry appended so far became power-cut safe.  :meth:`flush` and
  :meth:`sync` also checkpoint the WAL back into the database, which
  keeps it bounded.  A clean :meth:`close` leaves only the ``.db`` file,
  a killed process also leaves ``-wal``/``-shm`` sidecars the next open
  recovers from.
* **sequence numbers are never reused**: the store allocates them itself,
  counting on from the table's ``sqlite_sequence`` value at open, so an
  entry dropped from the buffer by a crash may lend its number to a later
  one, but an entry that reached disk never does.

Record buffering deliberately holds *references*, not copies: a
credential record that is installed and later revoked before the next
flush serialises once, in its final state.  Conversely, buffered
installs that never reach a flush are lost on a crash — which is safe,
because certificate checking fails closed: a certificate without a
credential record is invalid (Sect. 4's callback finds nothing to
validate against).

Uses only the stdlib ``sqlite3`` module; a ``path`` of ``":memory:"``
gives a private, process-lifetime database (the CI test matrix runs the
whole suite over it), a filesystem path gives real durability and
re-open-ability for the kill-and-resume tests and benchmarks.
"""

from __future__ import annotations

import json
import sqlite3
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Set,
                    Tuple)

from .kv import DELETED, RecordStore, StoreCodec, completed_log_seqs

__all__ = ["SqliteRecordStore"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    bucket  TEXT NOT NULL,
    key     TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (bucket, key)
);
CREATE TABLE IF NOT EXISTS log (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    payload TEXT NOT NULL
);
"""

_APPEND = "INSERT INTO log (seq, payload) VALUES (?, ?)"
_UPSERT = ("INSERT OR REPLACE INTO records (bucket, key, payload) "
           "VALUES (?, ?, ?)")
_REMOVE = "DELETE FROM records WHERE bucket=? AND key=?"
_SCAN_PAGE = 256
_SCAN_FIRST = ("SELECT key, payload FROM records WHERE bucket=? "
               f"ORDER BY key LIMIT {_SCAN_PAGE}")
_SCAN_NEXT = ("SELECT key, payload FROM records WHERE bucket=? AND key>? "
              f"ORDER BY key LIMIT {_SCAN_PAGE}")

#: The one record-payload encoder: ``json.dumps(..., default=str)``
#: would build a fresh encoder per record.
_encode_json = json.JSONEncoder(default=str).encode

#: ``scan``'s answer for a key the write-behind buffer does not hold.
_DISK = object()


class SqliteRecordStore(RecordStore):
    """Durable record store over a single SQLite database."""

    backend = "sqlite"

    def __init__(self, path: str = ":memory:",
                 codec: Optional[StoreCodec] = None,
                 flush_every: int = 1024) -> None:
        super().__init__(codec)
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = path
        self.flush_every = flush_every
        # check_same_thread=False: access is serialized by construction
        # (one service thread), but the *constructing* thread may differ
        # from the serving thread — repro.netd builds worlds on the
        # process main thread and then runs every op on the server's
        # single worker slot.  Concurrent use is still excluded.
        self._conn = sqlite3.connect(path, check_same_thread=False)
        # Unconditional: ``:memory:`` answers "memory" and carries on.
        mode = self._conn.execute("PRAGMA journal_mode=WAL").fetchone()[0]
        self._conn.execute("PRAGMA synchronous=FULL")
        # Without a WAL (``:memory:``) nothing outlives the process:
        # every commit is as synced as it gets.
        self._volatile = mode != "wal"
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        # Write-behind buffer: (bucket, key) -> live value | DELETED.
        self._pending: Dict[Tuple[str, str], Any] = {}
        # Write-behind log: (seq, JSON payload) in seq order.
        self._log_pending: List[Tuple[int, str]] = []
        row = self._conn.execute(
            "SELECT seq FROM sqlite_sequence WHERE name='log'").fetchone()
        self._log_seq = row[0] if row is not None else 0
        self._closed = False

    # -- records --------------------------------------------------------
    def get(self, bucket: str, key: str, default: Any = None) -> Any:
        self.gets += 1
        buffered = self._pending.get((bucket, key), DELETED)
        if buffered is not DELETED:
            return buffered
        if (bucket, key) in self._pending:  # buffered delete
            return default
        row = self._conn.execute(
            "SELECT payload FROM records WHERE bucket=? AND key=?",
            (bucket, key)).fetchone()
        if row is None:
            return default
        return self.codec.decode(bucket, json.loads(row[0]))

    def put(self, bucket: str, key: str, value: Any) -> None:
        self.puts += 1
        self._pending[(bucket, key)] = value
        if len(self._pending) + len(self._log_pending) >= self.flush_every:
            self.flush()

    def put_many(self, bucket: str, items: Iterable[Tuple[str, Any]]) -> int:
        pending = self._pending
        written = 0
        for key, value in items:
            pending[(bucket, key)] = value
            written += 1
        self.puts += written
        if len(pending) + len(self._log_pending) >= self.flush_every:
            self.flush()
        return written

    def delete(self, bucket: str, key: str) -> None:
        """Tombstone the key in the buffer, with no disk probe: the
        flush removes its disk row, if it has one."""
        self.deletes += 1
        self._pending[(bucket, key)] = DELETED

    def scan(self, bucket: str) -> Iterator[Tuple[str, Any]]:
        self.scans += 1
        return self._overlay(bucket, self._disk_rows(bucket))

    def _disk_rows(self, bucket: str) -> Iterator[Tuple[str, str]]:
        """The bucket's disk rows in key order, one page per query: no
        statement stays open between pages, so a scan left unfinished
        cannot hold a lock that a later flush's checkpoint runs into."""
        page = self._conn.execute(_SCAN_FIRST, (bucket,)).fetchall()
        while True:
            yield from page
            if len(page) < _SCAN_PAGE:
                return
            page = self._conn.execute(
                _SCAN_NEXT, (bucket, page[-1][0])).fetchall()

    def _overlay(self, bucket: str, rows: Iterable[Tuple[str, str]]
                 ) -> Iterator[Tuple[str, Any]]:
        """Stream ``rows`` with the write-behind buffer applied in place:
        a buffered value replaces its disk row where it stands, a
        tombstone drops it, and buffered keys with no disk row follow in
        buffer order.  Only the buffered keys met on disk are held."""
        decode = self.codec.decode
        pending = self._pending
        on_disk: Set[str] = set()
        for key, payload in rows:
            value = pending.get((bucket, key), _DISK)
            if value is _DISK:
                value = decode(bucket, json.loads(payload))
            else:
                on_disk.add(key)
                if value is DELETED:
                    continue
            yield key, value
        yield from [(key, value)
                    for (pending_bucket, key), value in pending.items()
                    if pending_bucket == bucket and value is not DELETED
                    and key not in on_disk]

    def count(self, bucket: str) -> int:
        """The bucket's live keys with the buffer applied: one query over
        its disk keys, however many keys are buffered."""
        buffered = {key: value for (pending_bucket, key), value
                    in self._pending.items() if pending_bucket == bucket}
        total = 0
        for (key,) in self._conn.execute(
                "SELECT key FROM records WHERE bucket=?", (bucket,)):
            total += buffered.pop(key, _DISK) is not DELETED
        return total + sum(value is not DELETED
                           for value in buffered.values())

    # -- append log -----------------------------------------------------
    def log_append(self, entry: Dict[str, Any],
                   durable: bool = False) -> int:
        self.log_appends += 1
        self._log_seq = seq = self._log_seq + 1
        # No ``default=`` fallback: a journal entry that cannot survive
        # the JSON round trip type-faithfully must fail loudly here, at
        # journal time, not decode differently at replay.
        self._log_pending.append((seq, json.dumps(entry)))
        if durable:
            self._commit()
            self.durable_commits += 1
        elif self._volatile:
            # Nothing here outlives the process: a buffered entry is as
            # synced as a committed one.
            self.synced += 1
        if len(self._pending) + len(self._log_pending) >= self.flush_every:
            self.flush()
        return seq

    def _write_log(self) -> None:
        """Move the buffered log entries into the open transaction."""
        if self._log_pending:
            self._conn.executemany(_APPEND, self._log_pending)
            self._log_pending = []

    def _commit(self) -> None:
        """Commit the buffered log entries with the open transaction:
        one fsync, after which everything appended so far is synced."""
        self._write_log()
        self._conn.commit()
        self.synced += 1

    def log_entries(self) -> List[Tuple[int, Dict[str, Any]]]:
        entries = [(int(seq), json.loads(payload))
                   for seq, payload in self._conn.execute(
                       "SELECT seq, payload FROM log ORDER BY seq")]
        entries.extend((seq, json.loads(payload))
                       for seq, payload in self._log_pending)
        return entries

    # -- lifecycle ------------------------------------------------------
    def sync(self) -> None:
        """Commit the buffered entries and what rides the open
        transaction, and checkpoint the WAL."""
        self._commit()
        self._conn.execute("PRAGMA wal_checkpoint")

    def flush(self) -> None:
        """Release the held markers, serialise the write-behind buffer,
        prune the log, commit (buffered log entries first), and
        checkpoint the WAL."""
        self.release_held()
        self.flushes += 1
        # The log first: the pruning below must see it on disk, and no
        # REVOKED record may be committed without its journal entry.
        self._write_log()
        conn = self._conn
        pending = self._pending
        if pending:
            # Generators, not lists: the rows are encoded one at a time as
            # sqlite binds them, so a flush holds one encoded row beside
            # the buffer.  A row whose encoding raises aborts the flush
            # with the buffer intact; rows already bound stay in the open
            # transaction, holding values the retried flush rewrites.
            encode = self.codec.encode
            conn.executemany(_UPSERT, (
                (bucket, key, _encode_json(encode(bucket, value)))
                for (bucket, key), value in pending.items()
                if value is not DELETED))
            conn.executemany(_REMOVE, (
                slot for slot, value in pending.items()
                if value is DELETED))
            pending.clear()
        victims = completed_log_seqs(self.log_entries())
        if victims:
            conn.executemany("DELETE FROM log WHERE seq=?",
                             [(seq,) for seq in victims])
        self.sync()

    def close(self, flush: bool = True) -> None:
        if self._closed:
            return
        if flush:
            self.flush()
        else:
            # Crash semantics: abandon the buffers, the held markers and
            # anything not yet committed.
            self.abandon_held()
            self._pending.clear()
            self._log_pending = []
            self._conn.rollback()
        self._conn.close()
        self._closed = True

    # -- observability --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        conn = self._conn
        return {
            "backend": self.backend,
            "ops": self._op_counts(),
            "pending_writes": len(self._pending),
            "log_entries": conn.execute(
                "SELECT COUNT(*) FROM log").fetchone()[0]
            + len(self._log_pending),
            "journal_mode": conn.execute(
                "PRAGMA journal_mode").fetchone()[0],
            "synchronous": conn.execute("PRAGMA synchronous").fetchone()[0],
        }
