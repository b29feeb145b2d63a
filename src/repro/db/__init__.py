"""Storage layer: one keyed-record store, and the relational view over it.

* :class:`RecordStore` and its backends — the *keyed-record* store holding
  every piece of a service's state (credential records, validation-cache
  keys, recovery metadata, constraint facts) behind one
  ``(bucket, key) -> record`` interface with an append log for
  crash-consistent revocation.  See :mod:`repro.db.kv` and
  docs/persistence.md.
* :class:`Database`/:class:`Table` — the indexed in-memory view that
  environmental constraints query ("ascertained by database lookup at some
  service", Sect. 2).  A service built with a store mirrors each row into
  a ``facts/<db>/<table>`` bucket and commits every change before its
  listener returns, so a retracted fact stays retracted across a restart.

A service that is not handed an explicit store gets one by a single rule,
:func:`default_store`:

* on a node with a *state directory* (``repro serve --state-dir``,
  ``NodeSpec.state_dir``, worker ``w<i>`` of a ``ShardRouter`` built
  with ``state_dir``) every service gets its own SQLite file there
  (:func:`served_store_path`), whatever the environment says — a node is
  durable because it has a state directory;
* otherwise ``OASIS_STORE_BACKEND`` selects ``memory`` (unset, the
  default: no store object, the service's live dicts *are* its state) or
  ``sqlite`` (a private ``:memory:`` SQLite store, so the test suite
  drives the durable write paths without littering files).  Any other
  value raises ``ValueError``.

:class:`MemoryRecordStore` is only ever constructed explicitly: by
tests, benchmarks and in-process resume.
"""

from __future__ import annotations

import os
from typing import Optional
from urllib.parse import quote

from .kv import MemoryRecordStore, RecordStore, StoreCodec, completed_log_seqs
from .sqlite_store import SqliteRecordStore
from .store import Database, Table

__all__ = [
    "Database",
    "Table",
    "RecordStore",
    "MemoryRecordStore",
    "SqliteRecordStore",
    "StoreCodec",
    "completed_log_seqs",
    "served_store_path",
    "default_store",
]

#: Environment variable selecting the store of a node without a state
#: directory: ``memory`` (the default) or ``sqlite``.
BACKEND_ENV = "OASIS_STORE_BACKEND"


def served_store_path(state_dir: str, service: str) -> str:
    """The SQLite file of ``service`` under ``state_dir``.  The id is
    percent-quoted, so two services never share a file — and with it
    the store-local signing secret."""
    return os.path.join(state_dir, quote(service, safe="") + ".sqlite")


def default_store(codec: Optional[StoreCodec] = None, *, service: str,
                  state_dir: Optional[str] = None
                  ) -> Optional[RecordStore]:
    """The store ``service`` gets when none is passed explicitly (the
    rule in the module docstring)."""
    if state_dir is not None:
        os.makedirs(state_dir, exist_ok=True)
        return SqliteRecordStore(served_store_path(state_dir, service),
                                 codec)
    backend = os.environ.get(BACKEND_ENV, "").strip().lower() or "memory"
    if backend == "memory":
        return None
    if backend == "sqlite":
        return SqliteRecordStore(":memory:", codec)
    raise ValueError(f"{BACKEND_ENV}={backend!r}: expected memory or "
                     f"sqlite (a state directory makes a node durable)")
