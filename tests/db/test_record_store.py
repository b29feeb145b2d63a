"""The keyed-record store contract, over both backends.

Every backend must speak the same five verbs (get/put/delete/scan +
log-append) with read-your-writes semantics; the SQLite backend
additionally gets its write-behind / durable-log behaviour pinned down —
that asymmetry (memory-speed records, synchronous revocation journal) is
the crash-consistency design of docs/persistence.md.
"""

import os
import shutil

import pytest

from repro.core import (
    CredentialRecord,
    CredentialRef,
    PrincipalId,
    ServiceId,
)
from repro.core.state import RECORDS, ServiceStateCodec
from repro.db import MemoryRecordStore, SqliteRecordStore, completed_log_seqs


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        made = MemoryRecordStore()
    else:
        made = SqliteRecordStore(str(tmp_path / "store.db"))
    yield made
    made.close()


class TestRecordVerbs:
    def test_put_get_roundtrip(self, store):
        store.put("b", "k", {"v": 1})
        assert store.get("b", "k") == {"v": 1}
        assert store.get("b", "missing") is None
        assert store.get("b", "missing", default=0) == 0
        assert store.get("other", "k") is None

    def test_put_overwrites(self, store):
        store.put("b", "k", {"v": 1})
        store.put("b", "k", {"v": 2})
        assert store.get("b", "k") == {"v": 2}
        assert store.count("b") == 1

    def test_delete(self, store):
        store.put("b", "k", {"v": 1})
        store.put("b", "kept", {"v": 2})
        store.delete("b", "k")
        assert store.get("b", "k") is None
        assert store.get("b", "k", default=0) == 0
        assert dict(store.scan("b")) == {"kept": {"v": 2}}
        assert store.count("b") == 1
        store.delete("b", "k")
        store.delete("b", "never-existed")
        store.delete("no-such-bucket", "k")
        assert dict(store.scan("b")) == {"kept": {"v": 2}}
        assert store.count("b") == 1

    def test_scan_sees_all_pairs(self, store):
        for index in range(5):
            store.put("b", f"k{index}", {"v": index})
        store.put("other", "x", {"v": 99})
        scanned = dict(store.scan("b"))
        assert scanned == {f"k{index}": {"v": index} for index in range(5)}
        assert store.count("b") == 5
        assert store.count("other") == 1
        assert store.count("empty") == 0

    def test_batch_variants(self, store):
        assert store.put_many(
            "b", [(f"k{index}", {"v": index}) for index in range(4)]) == 4
        store.delete_many("b", ["k0", "k2", "nope"])
        assert dict(store.scan("b")) == {"k1": {"v": 1}, "k3": {"v": 3}}
        assert store.count("b") == 2

    def test_buckets_are_disjoint_namespaces(self, store):
        store.put("a", "k", {"v": "a"})
        store.put("b", "k", {"v": "b"})
        store.delete("a", "k")
        assert store.get("a", "k") is None
        assert store.get("b", "k") == {"v": "b"}
        assert (store.count("a"), store.count("b")) == (0, 1)


class TestAppendLog:
    def test_append_returns_increasing_seqs(self, store):
        first = store.log_append({"op": "cascade", "events": []})
        second = store.log_append({"op": "x"}, durable=True)
        assert second > first
        entries = store.log_entries()
        assert [seq for seq, _ in entries] == [first, second]
        assert entries[0][1]["op"] == "cascade"

    def test_flush_prunes_completed_cascades(self, store):
        cascade = store.log_append({"op": "cascade", "events": []},
                                   durable=True)
        orphan = store.log_append({"op": "cascade", "events": []},
                                  durable=True)
        store.log_append({"op": "cascade-done", "cascade_seq": cascade},
                         durable=True)
        store.flush()
        remaining = [seq for seq, _ in store.log_entries()]
        assert remaining == [orphan]

    def test_flush_keeps_newest_serial_reserve_only(self, store):
        store.log_append({"op": "serial-reserve", "value": 1024})
        store.log_append({"op": "serial-reserve", "value": 2048})
        newest = store.log_append({"op": "serial-reserve", "value": 4096})
        store.flush()
        assert [seq for seq, _ in store.log_entries()] == [newest]


class TestStats:
    def test_ops_counted(self, store):
        store.put("b", "k", {"v": 1})
        store.get("b", "k")
        store.delete("b", "k")
        list(store.scan("b"))
        store.log_append({"op": "x"}, durable=True)
        stats = store.stats()
        assert stats["backend"] in ("memory", "sqlite")
        assert stats["ops"]["puts"] == 1
        assert stats["ops"]["gets"] == 1
        assert stats["ops"]["deletes"] == 1
        assert stats["ops"]["scans"] == 1
        assert stats["ops"]["log_appends"] == 1
        assert stats["ops"]["durable_commits"] == 1

    def test_stats_is_a_copy(self, store):
        store.put("b", "k", {"v": 1})
        stats = store.stats()
        stats["ops"]["puts"] = 999
        assert store.stats()["ops"]["puts"] == 1

    def test_only_durable_appends_count_as_commits(self, store):
        """A journalled cascade is ONE durable commit on either backend:
        the ``cascade`` entry commits, its ``cascade-done`` marker rides
        along later."""
        seq = store.log_append({"op": "cascade", "events": []}, durable=True)
        store.log_append({"op": "cascade-done", "cascade_seq": seq})
        ops = store.stats()["ops"]
        assert ops["log_appends"] == 2
        assert ops["durable_commits"] == 1

    def test_log_entries_stat_counts_without_decoding(self, store,
                                                      monkeypatch):
        """Buffered and committed entries alike (sqlite's first two are
        write-behind, the third commits them)."""
        store.log_append({"op": "x"})
        store.log_append({"op": "x"})
        if store.backend == "sqlite":
            monkeypatch.setattr(store, "log_entries", lambda: pytest.fail(
                "stats() decoded the whole log"))
        assert store.stats()["log_entries"] == 2
        store.log_append({"op": "x"}, durable=True)
        store.log_append({"op": "x"})
        assert store.stats()["log_entries"] == 4


class TestCompletedLogSeqs:
    def test_matched_pairs_and_stale_reserves(self):
        entries = [
            (1, {"op": "cascade", "events": []}),
            (2, {"op": "cascade-done", "cascade_seq": 1}),
            (3, {"op": "cascade", "events": []}),        # no done marker
            (4, {"op": "serial-reserve", "value": 1024}),
            (5, {"op": "serial-reserve", "value": 2048}),
        ]
        assert completed_log_seqs(entries) == {1, 2, 4}

    def test_empty(self):
        assert completed_log_seqs([]) == set()


class TestSqliteWriteBehind:
    """The durability asymmetry: records buffered, log committed."""

    def test_reads_merge_pending_buffer(self, tmp_path):
        store = SqliteRecordStore(str(tmp_path / "wb.db"), flush_every=10_000)
        store.put("b", "k", {"v": 1})
        assert store.stats()["pending_writes"] == 1
        assert store.get("b", "k") == {"v": 1}          # read-your-writes
        assert dict(store.scan("b")) == {"k": {"v": 1}}
        assert store.count("b") == 1
        store.flush()
        assert store.stats()["pending_writes"] == 0
        assert store.get("b", "k") == {"v": 1}
        store.close()

    def test_buffered_value_is_a_live_reference(self, tmp_path):
        """A record mutated after ``put`` but before ``flush`` serialises
        once, in its final state — how a revoked record's terminal status
        reaches disk without a second put."""
        store = SqliteRecordStore(str(tmp_path / "ref.db"),
                                  flush_every=10_000)
        value = {"status": "active"}
        store.put("b", "k", value)
        value["status"] = "revoked"
        store.flush()
        store.close()
        reopened = SqliteRecordStore(str(tmp_path / "ref.db"))
        assert reopened.get("b", "k") == {"status": "revoked"}
        reopened.close()

    def test_auto_flush_at_threshold(self, tmp_path):
        store = SqliteRecordStore(str(tmp_path / "auto.db"), flush_every=4)
        for index in range(4):
            store.put("b", f"k{index}", {"v": index})
        assert store.stats()["pending_writes"] == 0     # threshold hit
        assert store.flushes >= 1
        store.close()

    def test_delete_of_flushed_row_is_buffered(self, tmp_path):
        store = SqliteRecordStore(str(tmp_path / "del.db"))
        store.put("b", "k", {"v": 1})
        store.flush()
        store.delete("b", "k")
        assert store.stats()["pending_writes"] == 1
        assert store.get("b", "k") is None              # buffered delete
        assert dict(store.scan("b")) == {}
        assert store.count("b") == 0
        store.flush()
        store.close()
        reopened = SqliteRecordStore(str(tmp_path / "del.db"))
        assert reopened.get("b", "k") is None
        reopened.close()

    def test_second_delete_of_flushed_row_keeps_it_gone(self, tmp_path):
        """A repeat delete, before or after the flush that removes the
        row from disk, leaves the key gone — as on MemoryRecordStore."""
        path = str(tmp_path / "wb.db")
        store = SqliteRecordStore(path)
        store.put("b", "k", {"v": 1})
        store.flush()
        store.delete("b", "k")
        store.delete("b", "k")
        assert (store.get("b", "k"), store.count("b")) == (None, 0)
        store.flush()
        store.delete("b", "k")
        assert (store.get("b", "k"), store.count("b")) == (None, 0)
        store.close()
        reopened = SqliteRecordStore(path)
        assert (reopened.get("b", "k"), reopened.count("b")) == (None, 0)
        reopened.close()

    def test_delete_answers_from_buffer_without_disk_probe(self, tmp_path):
        """A delete only tombstones the key: neither the first delete of
        a flushed row nor a repeat one reads the disk."""
        store = SqliteRecordStore(str(tmp_path / "wb.db"))
        store.put("b", "k", {"v": 1})
        store.flush()
        statements = []
        store._conn.set_trace_callback(statements.append)
        store.delete("b", "k")
        store.delete("b", "k")
        store.delete("b", "never-existed")
        store._conn.set_trace_callback(None)
        assert statements == []
        assert store.get("b", "k") is None
        store.close()

    def test_reput_after_tombstone_is_deletable_again(self, tmp_path):
        store = SqliteRecordStore(str(tmp_path / "wb.db"))
        store.put("b", "k", {"v": 1})
        store.flush()
        store.delete("b", "k")
        store.put("b", "k", {"v": 2})
        assert store.get("b", "k") == {"v": 2}
        assert store.count("b") == 1
        store.delete("b", "k")
        assert store.get("b", "k") is None
        assert dict(store.scan("b")) == {}
        assert store.count("b") == 0
        store.close()

    def test_crash_close_loses_buffer_keeps_durable_log(self, tmp_path):
        """``close(flush=False)`` is the crash switch: write-behind record
        puts die with the process, durable log appends survive."""
        path = str(tmp_path / "crash.db")
        store = SqliteRecordStore(path, flush_every=10_000)
        store.put("b", "flushed", {"v": 1})
        store.flush()
        store.put("b", "buffered", {"v": 2})
        seq = store.log_append({"op": "cascade", "events": []}, durable=True)
        store.log_append({"op": "never-committed"}, durable=False)
        store.close(flush=False)
        survivor = SqliteRecordStore(path)
        assert survivor.get("b", "flushed") == {"v": 1}
        assert survivor.get("b", "buffered") is None
        assert [s for s, _ in survivor.log_entries()] == [seq]
        survivor.close()

    def test_unflushed_marker_rides_the_next_durable_commit(self, tmp_path):
        path = str(tmp_path / "ride.db")
        store = SqliteRecordStore(path)
        first = store.log_append({"op": "cascade", "events": []},
                                 durable=True)
        marker = store.log_append({"op": "cascade-done",
                                   "cascade_seq": first})
        second = store.log_append({"op": "cascade", "events": []},
                                  durable=True)
        store.close(flush=False)
        survivor = SqliteRecordStore(path)
        assert [s for s, _ in survivor.log_entries()] == \
            [first, marker, second]
        survivor.close()

    def test_codec_roundtrips_credential_records(self, tmp_path):
        codec = ServiceStateCodec()
        path = str(tmp_path / "codec.db")
        store = SqliteRecordStore(path, codec=codec)
        dependency = CredentialRef(ServiceId("d", "login"), 1)
        record = CredentialRecord(
            ref=CredentialRef(ServiceId("d", "svc"), 7), kind="rmc",
            principal=PrincipalId("alice"), issued_at=3.5,
            membership_dependencies=(dependency,), session_id="s1")
        record.revoke("logout", at=9.0)
        store.put(RECORDS, record.ref.qualified, record)
        store.flush()
        store.close()
        reopened = SqliteRecordStore(path, codec=codec)
        loaded = reopened.get(RECORDS, record.ref.qualified)
        assert loaded == record
        assert loaded.ref.qualified == record.ref.qualified
        assert loaded.membership_dependencies == (dependency,)
        assert loaded.revoked_reason == "logout"
        reopened.close()

    def test_flush_every_must_be_positive(self):
        with pytest.raises(ValueError):
            SqliteRecordStore(flush_every=0)


class TestSqliteDurabilityConfig:
    """One fsync per commit, and it must be a real one: WAL with
    ``synchronous=FULL`` (NORMAL under WAL defers the fsync to the next
    checkpoint)."""

    def test_file_store_runs_wal_with_full_sync(self, tmp_path):
        """``journal_mode`` is a property of the file, ``synchronous`` of
        the connection — a reopened store must read back both too."""
        path = str(tmp_path / "wal.db")
        for _ in range(2):
            store = SqliteRecordStore(path)
            stats = store.stats()
            assert stats["journal_mode"] == "wal"
            assert stats["synchronous"] == 2            # FULL
            store.log_append({"op": "x"}, durable=True)
            assert os.path.exists(path + "-wal")
            store.close()

    def test_synced_generation_counts_fsyncing_commits(self, tmp_path):
        """Every commit runs at ``FULL`` and syncs everything appended so
        far; a plain append syncs nothing until one happens."""
        store = SqliteRecordStore(str(tmp_path / "gen.db"))
        store.log_append({"op": "cascade", "events": []})
        assert (store.synced, store.durable_commits) == (0, 0)
        store.log_append({"op": "cascade", "events": []}, durable=True)
        assert (store.synced, store.durable_commits) == (1, 1)
        store.log_append({"op": "cascade-done", "cascade_seq": 1})
        store.sync()
        store.flush()
        assert (store.synced, store.durable_commits) == (3, 1)
        assert store.stats()["synchronous"] == 2      # never left FULL
        store.close()

    def test_memory_database_reports_its_own_journal_mode(self):
        store = SqliteRecordStore()
        assert store.stats()["journal_mode"] == "memory"
        store.put("b", "k", {"v": 1})
        seq = store.log_append({"op": "x"}, durable=True)
        store.flush()
        assert store.get("b", "k") == {"v": 1}
        assert [s for s, _ in store.log_entries()] == [seq]
        store.close()

    @pytest.mark.parametrize("flush", [True, False])
    def test_close_leaves_only_the_database_file(self, tmp_path, flush):
        store = SqliteRecordStore(str(tmp_path / "clean.db"))
        store.put("b", "k", {"v": 1})
        store.log_append({"op": "x"}, durable=True)
        store.close(flush=flush)
        assert os.listdir(tmp_path) == ["clean.db"]

    def test_flush_checkpoints_the_wal_into_the_database(self, tmp_path):
        """After ``flush()`` the ``.db`` file alone holds everything
        committed so far, so the WAL restarts from its beginning and
        stays bounded by one flush interval."""
        store = SqliteRecordStore(str(tmp_path / "ckpt.db"))
        store.put("b", "k", {"v": 1})
        seq = store.log_append({"op": "x"}, durable=True)
        store.flush()
        shutil.copy(tmp_path / "ckpt.db", tmp_path / "copy.db")
        store.close()
        copy = SqliteRecordStore(str(tmp_path / "copy.db"))
        assert copy.get("b", "k") == {"v": 1}
        assert [s for s, _ in copy.log_entries()] == [seq]
        copy.close()


class TestSqliteWriteBehindJournal:
    """A plain ``log_append`` is write-behind: it takes its sequence
    number at once and reaches disk with the next commit (a durable
    append, ``sync`` or ``flush``)."""

    @staticmethod
    def on_disk(path):
        """The seqs a second connection reads: only what was committed."""
        reader = SqliteRecordStore(path)
        try:
            return [seq for seq, _ in reader.log_entries()]
        finally:
            reader.close(flush=False)

    def test_plain_append_is_invisible_to_others_until_a_commit(
            self, tmp_path):
        path = str(tmp_path / "behind.db")
        store = SqliteRecordStore(path)
        seq = store.log_append({"op": "cascade", "events": []})
        assert [s for s, _ in store.log_entries()] == [seq]
        assert store.stats()["log_entries"] == 1
        assert self.on_disk(path) == []
        store.sync()
        assert self.on_disk(path) == [seq]
        store.close()

    def test_crash_close_drops_buffered_entries(self, tmp_path):
        path = str(tmp_path / "dropped.db")
        store = SqliteRecordStore(path)
        kept = store.log_append({"op": "cascade", "events": []},
                                durable=True)
        store.log_append({"op": "cascade", "events": []})
        store.close(flush=False)
        assert self.on_disk(path) == [kept]

    def test_durable_append_commits_the_buffer_before_it_in_seq_order(
            self, tmp_path):
        path = str(tmp_path / "order.db")
        store = SqliteRecordStore(path)
        first = store.log_append({"op": "cascade", "events": [], "n": 1})
        marker = store.log_append({"op": "cascade-done",
                                   "cascade_seq": first})
        durable = store.log_append({"op": "cascade", "events": [], "n": 2},
                                   durable=True)
        assert first < marker < durable
        assert store.durable_commits == 1
        store.close(flush=False)
        survivor = SqliteRecordStore(path)
        assert [(seq, entry["op"]) for seq, entry
                in survivor.log_entries()] == [
            (first, "cascade"), (marker, "cascade-done"),
            (durable, "cascade")]
        survivor.close()

    @pytest.mark.parametrize("clean", [True, False])
    def test_seqs_never_repeat_across_a_reopen(self, tmp_path, clean):
        """A clean close commits the buffer, a crash drops it; either way
        the reopened store counts on past every seq that reached disk,
        including pruned ones."""
        path = str(tmp_path / "seqs.db")
        store = SqliteRecordStore(path)
        cascade = store.log_append({"op": "cascade", "events": []},
                                   durable=True)
        store.log_append({"op": "cascade-done", "cascade_seq": cascade})
        store.flush()                      # prunes both: the table is empty
        assert store.log_entries() == []
        committed = store.log_append({"op": "x"}, durable=True)
        buffered = store.log_append({"op": "y"})
        store.close(flush=clean)
        reopened = SqliteRecordStore(path)
        fresh = reopened.log_append({"op": "z"}, durable=True)
        on_disk = [seq for seq, _ in reopened.log_entries()]
        assert on_disk == ([committed, buffered, fresh] if clean
                           else [committed, fresh])
        assert fresh > (buffered if clean else committed)
        reopened.close()

    def test_buffered_entries_count_toward_flush_every(self, tmp_path):
        path = str(tmp_path / "bounded.db")
        store = SqliteRecordStore(path, flush_every=3)
        store.put("b", "k", {"v": 1})
        store.log_append({"op": "x"})
        assert store.flushes == 0
        seq = store.log_append({"op": "y"})
        assert store.flushes == 1
        assert self.on_disk(path)[-1] == seq
        store.close()
