"""Store selection without a state directory: ``OASIS_STORE_BACKEND``
takes ``memory`` or ``sqlite`` and nothing else."""

import pytest

from repro.db import BACKEND_ENV, SqliteRecordStore, default_store


class TestDefaultStore:
    def test_memory_backend_is_storeless(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "memory")
        assert default_store(service="dom/svc") is None
        monkeypatch.delenv(BACKEND_ENV)
        assert default_store(service="dom/svc") is None

    def test_sqlite_without_path_stays_in_memory_single_process(
            self, monkeypatch):
        # The test-suite backend matrix depends on this: sqlite with no
        # state directory exercises the durable write paths file-free.
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        store = default_store(service="dom/svc")
        assert isinstance(store, SqliteRecordStore)
        assert store.path == ":memory:"
        store.close()

    def test_unknown_backend_rejected(self, monkeypatch):
        for backend in ("memory-mirror", "none", "rocksdb"):
            monkeypatch.setenv(BACKEND_ENV, backend)
            with pytest.raises(ValueError, match="memory or sqlite"):
                default_store(service="dom/svc")
