"""``state_dir`` routing in ``default_store``: a node is durable because
it has a state directory.

With one, every service gets its own SQLite file there
(:func:`repro.db.served_store_path`), whatever ``OASIS_STORE_BACKEND``
says, so kill-and-resume works out of the box; without one, the
environment's ``memory`` or ``sqlite`` choice holds.
"""

import os

from repro.core.policy import ServicePolicy
from repro.core.service import ServiceRegistry
from repro.core.types import ServiceId
from repro.db import (BACKEND_ENV, SqliteRecordStore, default_store,
                      served_store_path)
from repro.events import EventBroker
from repro.netd.worlds import NodeContext


class TestServedStorePath:
    def test_stable_per_service_filename(self, tmp_path):
        path = served_store_path(str(tmp_path), "ehr/records")
        assert path == os.path.join(str(tmp_path), "ehr%2Frecords.sqlite")
        # Stable: the restarted process computes the same file.
        assert served_store_path(str(tmp_path), "ehr/records") == path

    def test_distinct_services_get_distinct_files(self, tmp_path):
        # META keys (e.g. the signing secret) are store-local; two
        # services must never share one file.
        assert served_store_path(str(tmp_path), "ehr/front") != \
            served_store_path(str(tmp_path), "ehr/records")

    def test_ids_differing_only_in_the_slash_share_no_file_or_secret(
            self, tmp_path):
        """``a-b/c`` and ``a/b-c`` must not share a file: the second
        service would adopt the first one's signing secret and scan its
        records and journal."""
        ctx = NodeContext("node", EventBroker(), ServiceRegistry(), None,
                          state_dir=str(tmp_path))
        first = ctx.service(ServicePolicy(ServiceId("a-b", "c")))
        second = ctx.service(ServicePolicy(ServiceId("a", "b-c")))
        assert first.store.path != second.store.path
        assert first.secret != second.secret
        first.store.close()
        second.store.close()


class TestDefaultStoreStateDir:
    def test_served_sqlite_without_path_lands_on_disk(self, monkeypatch,
                                                      tmp_path):
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        state_dir = str(tmp_path / "state")
        store = default_store(service="ehr/records", state_dir=state_dir)
        assert isinstance(store, SqliteRecordStore)
        assert store.path == served_store_path(state_dir, "ehr/records")
        store.put("b", "k", {"v": 1})
        store.close()
        assert os.path.exists(store.path), "store not on disk"
        # A second incarnation opens the SAME file and sees the record.
        resumed = default_store(service="ehr/records",
                                state_dir=state_dir)
        assert resumed.get("b", "k") == {"v": 1}
        resumed.close()

    def test_state_dir_is_created_on_demand(self, tmp_path):
        state_dir = tmp_path / "deep" / "state"
        assert not state_dir.exists()
        store = default_store(service="s", state_dir=str(state_dir))
        store.close()
        assert state_dir.is_dir()

    def test_state_dir_wins_over_memory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(BACKEND_ENV, "memory")
        state_dir = str(tmp_path / "state")
        store = default_store(service="s", state_dir=state_dir)
        assert isinstance(store, SqliteRecordStore)
        assert store.path == served_store_path(state_dir, "s")
        store.close()

    def test_no_state_dir_keeps_in_memory_default(self, monkeypatch):
        # The test-suite backend matrix depends on this: sqlite with no
        # state dir stays file-free.
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        store = default_store(service="dom/svc")
        assert isinstance(store, SqliteRecordStore)
        assert store.path == ":memory:"
        store.close()
