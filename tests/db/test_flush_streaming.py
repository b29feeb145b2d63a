"""The SQLite flush streams the write-behind buffer into one transaction.

A flush encodes each pending row as sqlite binds it, so its transient
memory is one encoded row, not one string per pending record; it is
still one commit plus one WAL checkpoint, and the bytes it stores are
those of ``json.dumps(payload, default=str)``.  Reads (``scan``,
``count``) overlay the buffer on the table without materialising it.
"""

import decimal
import tracemalloc

import pytest

from repro.core import CredentialRecord, CredentialRef, PrincipalId, ServiceId
from repro.core.state import RECORDS, ServiceStateCodec
from repro.db import MemoryRecordStore, SqliteRecordStore
from repro.db.kv import StoreCodec

SERVICE = ServiceId("d", "s")


def _record(serial):
    return CredentialRecord(
        ref=CredentialRef(SERVICE, serial), kind="rmc",
        principal=PrincipalId(f"p{serial}"), issued_at=1.0)


def _trace_statements(store):
    statements = []
    store._conn.set_trace_callback(statements.append)
    return statements


class TestBoundedMemory:
    def test_flush_of_20k_records_peaks_under_one_mib(self):
        store = SqliteRecordStore(codec=ServiceStateCodec(),
                                  flush_every=1_000_000)
        store.put_many(RECORDS, ((f"d/s#{serial}", _record(serial))
                                 for serial in range(20_000)))
        tracemalloc.start()
        try:
            store.flush()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.count(RECORDS) == 20_000
        assert peak < 1024 * 1024, f"flush peaked at {peak} traced bytes"
        store.close()

    def test_scan_and_count_hold_no_copy_of_the_table(self):
        store = SqliteRecordStore(codec=ServiceStateCodec(),
                                  flush_every=1_000_000)
        store.put_many(RECORDS, ((f"d/s#{serial}", _record(serial))
                                 for serial in range(20_000)))
        store.flush()
        store.put(RECORDS, "d/s#20000", _record(20_000))
        store.delete(RECORDS, "d/s#0")
        tracemalloc.start()
        try:
            total = store.count(RECORDS)
            scanned = sum(1 for _ in store.scan(RECORDS))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == scanned == 20_000
        assert peak < 1024 * 1024, f"count + scan peaked at {peak} bytes"
        store.close()


class TestFlushTransaction:
    def test_flush_is_one_commit_and_one_checkpoint(self, tmp_path):
        store = SqliteRecordStore(str(tmp_path / "one.db"),
                                  flush_every=10_000)
        for index in range(50):
            store.put("b", f"k{index}", {"v": index})
        store.flush()
        for index in range(3):
            store.delete("b", f"k{index}")
        store.put("b", "new", {"v": "new"})
        statements = _trace_statements(store)
        store.flush()
        store._conn.set_trace_callback(None)
        assert [s for s in statements if s.upper() == "COMMIT"] == ["COMMIT"]
        assert sum("wal_checkpoint" in s for s in statements) == 1
        assert store.count("b") == 48
        store.close()

    def test_stored_payload_bytes_are_json_dumps_default_str(self, tmp_path):
        store = SqliteRecordStore(str(tmp_path / "bytes.db"),
                                  codec=ServiceStateCodec())
        record = CredentialRecord(
            ref=CredentialRef(ServiceId("hospital", "records"), 9),
            kind="rmc", principal=PrincipalId("bob"), issued_at=3.5,
            membership_dependencies=(CredentialRef(ServiceId("a", "b"), 2),),
            session_id="s-1")
        record.revoke("gone", 4.0)
        store.put(RECORDS, record.ref.qualified, record)
        store.put("meta", "odd", {"when": decimal.Decimal("1.5"),
                                  "name": "é"})
        store.flush()
        rows = list(store._conn.execute(
            "SELECT bucket, key, payload FROM records ORDER BY bucket, key"))
        assert rows == [
            ("meta", "odd", '{"when": "1.5", "name": "\\u00e9"}'),
            ("records", "hospital/records#9",
             '{"ref": {"domain": "hospital", "service": "records", '
             '"serial": 9}, "kind": "rmc", "principal": "bob", '
             '"issued_at": 3.5, "status": "revoked", "revoked_reason": '
             '"gone", "revoked_at": 4.0, "dependencies": [{"domain": "a", '
             '"service": "b", "serial": 2}], "session_id": "s-1"}'),
        ]
        store.close()


class _FailOnce(StoreCodec):
    """Raises while encoding ``poison`` the first time it is asked."""

    def __init__(self, poison):
        self.poison = poison
        self.armed = True

    def encode(self, bucket, value):
        if self.armed and value is self.poison:
            self.armed = False
            raise ValueError("cannot encode")
        return value


class TestFlushFailure:
    def test_raising_row_keeps_the_buffer_and_a_retry_persists_all(
            self, tmp_path):
        path = str(tmp_path / "retry.db")
        poison = {"v": "poison"}
        codec = _FailOnce(poison)
        store = SqliteRecordStore(path, codec=codec, flush_every=10_000)
        store.put("b", "gone", {"v": "gone"})
        store.flush()
        for index in range(20):
            store.put("b", f"k{index}", {"v": index})
        store.put("b", "poison", poison)
        for index in range(20, 40):
            store.put("b", f"k{index}", {"v": index})
        store.delete("b", "gone")
        pending = dict(store._pending)
        statements = _trace_statements(store)
        with pytest.raises(ValueError, match="cannot encode"):
            store.flush()
        store._conn.set_trace_callback(None)
        # Mid-stream: the twenty rows ahead of the poisoned one were
        # already written when its encoding raised.
        assert sum(s.startswith("INSERT OR REPLACE") for s in statements) \
            == 20
        assert store._pending == pending
        expected = {f"k{index}": {"v": index} for index in range(40)}
        expected["poison"] = poison
        assert dict(store.scan("b")) == expected
        store.flush()
        assert store.stats()["pending_writes"] == 0
        store.close()
        reopened = SqliteRecordStore(path)
        assert dict(reopened.scan("b")) == expected
        assert reopened.get("b", "gone") is None
        reopened.close()


class TestOverlayReads:
    def _mixed(self, store):
        for index in range(6):
            store.put("b", f"k{index}", {"v": index})
        store.put("other", "x", {"v": "x"})
        store.flush()
        store.put("b", "k1", {"v": "overwritten"})
        store.delete("b", "k2")
        store.delete("b", "k3")
        store.put("b", "k3", {"v": "back"})
        store.put("b", "n1", {"v": "n1"})
        store.put("b", "n2", {"v": "n2"})
        store.delete("b", "n1")
        store.delete("b", "never")
        store.put("other", "y", {"v": "y"})

    def test_scan_and_count_agree_with_a_mixed_pending_overlay(
            self, tmp_path):
        store = SqliteRecordStore(str(tmp_path / "mix.db"),
                                  flush_every=10_000)
        oracle = MemoryRecordStore()
        for target in (store, oracle):
            self._mixed(target)
        assert store.stats()["pending_writes"] > 0
        # Disk rows keep their place with the buffer applied; keys only
        # the buffer holds follow in buffer order.
        assert list(store.scan("b")) == [
            ("k0", {"v": 0}), ("k1", {"v": "overwritten"}),
            ("k3", {"v": "back"}), ("k4", {"v": 4}), ("k5", {"v": 5}),
            ("n2", {"v": "n2"})]
        for bucket in ("b", "other", "empty"):
            assert dict(store.scan(bucket)) == dict(oracle.scan(bucket))
            assert store.count(bucket) == oracle.count(bucket) \
                == len(dict(store.scan(bucket)))
        store.flush()
        for bucket in ("b", "other"):
            assert dict(store.scan(bucket)) == dict(oracle.scan(bucket))
            assert store.count(bucket) == oracle.count(bucket)
        store.close()

    def test_count_runs_the_same_statements_however_many_are_buffered(
            self, tmp_path):
        store = SqliteRecordStore(str(tmp_path / "count.db"),
                                  flush_every=10_000)
        store.put("b", "flushed", {"v": 0})
        store.flush()
        traced = []
        for buffered in (1, 100):
            for index in range(buffered):
                store.put("b", f"k{index}", {"v": index})
            statements = _trace_statements(store)
            assert store.count("b") == buffered + 1
            store._conn.set_trace_callback(None)
            traced.append(len(statements))
        assert traced[0] == traced[1] == 1
        store.close()

    @pytest.mark.parametrize("flush_every", [1, 3, 10_000])
    def test_count_is_the_length_of_a_scan(self, tmp_path, flush_every):
        store = SqliteRecordStore(str(tmp_path / "scan.db"),
                                  flush_every=flush_every)
        steps = [("put", "a"), ("put", "b"), ("put", "c"), ("flush", None),
                 ("put", "a"), ("delete", "b"), ("put", "d"),
                 ("delete", "d"), ("delete", "ghost"), ("put", "e"),
                 ("delete", "c"), ("put", "c"), ("put", "f")]
        for index, (op, key) in enumerate(steps):
            if op == "put":
                store.put("b", key, {"v": index})
                store.put("other", key, {"v": index})
            elif op == "delete":
                store.delete("b", key)
            else:
                store.flush()
            assert store.count("b") == len(list(store.scan("b")))
        assert store.count("other") == len(list(store.scan("other"))) == 6
        store.close()

    def test_an_unfinished_scan_does_not_block_a_flush(self, tmp_path):
        store = SqliteRecordStore(str(tmp_path / "open.db"),
                                  flush_every=10_000)
        for index in range(1_000):
            store.put("b", f"k{index:04d}", {"v": index})
        store.flush()
        rows = store.scan("b")
        assert next(rows) == ("k0000", {"v": 0})
        store.put("b", "late", {"v": "late"})
        store.log_append({"op": "cascade", "events": []}, durable=True)
        store.flush()
        assert store.stats()["pending_writes"] == 0
        assert sum(1 for _ in rows) == 1_000
        store.close()
