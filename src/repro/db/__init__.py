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

Backend selection for services that are not handed an explicit store goes
through :func:`default_store`, driven by two environment variables:

* ``OASIS_STORE_BACKEND``:

  * unset or ``memory`` — no store object is attached: the service's live
    dicts *are* the in-memory backend (zero hot-path cost; the
    :class:`MemoryRecordStore` object exists for explicit mirroring in
    tests, benchmarks and in-process resume);
  * ``sqlite`` — a SQLite store per service; ``:memory:`` unless a
    durable path is configured (below), so the whole test suite exercises
    the durable write paths without littering files;
  * ``none`` — explicitly storeless (same as ``memory``).

* ``OASIS_STORE_PATH`` — where the sqlite backend puts its file.  The
  value is a *template*: ``{shard}`` is replaced with the shard index in
  sharded deployments (:mod:`repro.shard`) and ``{service}`` with a
  filesystem-safe form of the service id.  Because a service's META
  bucket keys are store-local (e.g. the signing ``secret``), two services
  must never share one file — when a durable path is configured without a
  ``{service}`` placeholder, a per-service suffix is appended
  automatically.

Sharded mode is strict: selecting sqlite for a shard worker without a
durable path would silently give every worker a private throwaway
``:memory:`` store, defeating crash consistency — that combination raises
loudly, as does a sharded path template with no ``{shard}`` placeholder
(N workers must not contend on one file).
"""

from __future__ import annotations

import os
import re
from typing import Optional

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
    "configured_backend",
    "configured_path",
    "resolve_store_path",
    "served_store_path",
    "make_store",
    "default_store",
]

#: Environment variable selecting the default service state backend.
BACKEND_ENV = "OASIS_STORE_BACKEND"
#: Environment variable giving the sqlite backend a durable path template
#: (``{shard}`` / ``{service}`` placeholders, see module docstring).
PATH_ENV = "OASIS_STORE_PATH"

_UNSAFE_PATH_CHARS = re.compile(r"[^A-Za-z0-9_.-]+")


def configured_backend() -> str:
    """The backend name selected by ``OASIS_STORE_BACKEND`` (normalised)."""
    return os.environ.get(BACKEND_ENV, "memory").strip().lower() or "memory"


def configured_path() -> Optional[str]:
    """The path template from ``OASIS_STORE_PATH``, or None if unset."""
    raw = os.environ.get(PATH_ENV, "").strip()
    return raw or None


def _sanitize(part: str) -> str:
    """A service id (``domain/name``) as a filesystem-safe path fragment."""
    return _UNSAFE_PATH_CHARS.sub("-", part).strip("-")


def resolve_store_path(template: str, *, shard: Optional[int] = None,
                       service: Optional[str] = None) -> str:
    """Substitute ``{shard}``/``{service}`` placeholders in a path template.

    Raises ``RuntimeError`` when the template demands context the caller
    does not have (a ``{shard}`` placeholder outside sharded mode), or
    when sharded mode would funnel every worker into one file (no
    ``{shard}`` placeholder while ``shard`` is given).  When a durable
    path has no ``{service}`` placeholder but the service is known, a
    per-service suffix is appended — service state files must be private
    (META keys such as the signing secret are store-local).
    """
    has_shard = "{shard}" in template
    has_service = "{service}" in template
    if shard is None and has_shard:
        raise RuntimeError(
            f"{PATH_ENV}={template!r} contains a {{shard}} placeholder but "
            f"no shard context was given; unset it or run sharded")
    if shard is not None and not has_shard:
        raise RuntimeError(
            f"sharded mode with {PATH_ENV}={template!r}: the template must "
            f"contain a {{shard}} placeholder so each worker gets its own "
            f"file (N workers must not share one sqlite database)")
    path = template
    if has_shard:
        path = path.replace("{shard}", str(shard))
    if has_service:
        if service is None:
            raise RuntimeError(
                f"{PATH_ENV}={template!r} contains a {{service}} "
                f"placeholder but no service id was given")
        path = path.replace("{service}", _sanitize(service))
    elif service is not None:
        path = f"{path}.{_sanitize(service)}"
    return path


def make_store(backend: str, codec: Optional[StoreCodec] = None,
               path: str = ":memory:") -> Optional[RecordStore]:
    """Construct a record store by backend name.

    ``memory``/``none`` return ``None`` — the caller's live structures are
    the store.  Use :class:`MemoryRecordStore` directly when an explicit
    mirrored in-memory store is wanted.
    """
    if backend in ("memory", "none", ""):
        return None
    if backend == "memory-mirror":
        return MemoryRecordStore(codec)
    if backend == "sqlite":
        return SqliteRecordStore(path, codec)
    raise ValueError(f"unknown record-store backend {backend!r} "
                     f"(expected memory, memory-mirror or sqlite)")


def served_store_path(state_dir: str, service: Optional[str]) -> str:
    """The on-disk default for one served service under ``state_dir``."""
    filename = f"{_sanitize(service) if service else 'service'}.sqlite"
    return os.path.join(state_dir, filename)


def default_store(codec: Optional[StoreCodec] = None, *,
                  shard: Optional[int] = None,
                  service: Optional[str] = None,
                  state_dir: Optional[str] = None
                  ) -> Optional[RecordStore]:
    """The store a service gets when none is passed explicitly.

    ``shard`` is set by shard workers (:mod:`repro.shard`) and switches on
    the strict path rules described in the module docstring; ``service``
    is the owning service's id string, used for per-service path
    templating.  Historically this function dropped ``OASIS_STORE_PATH``
    on the floor, so ``OASIS_STORE_BACKEND=sqlite`` always yielded an
    in-memory sqlite store — only the no-path single-process case keeps
    that behaviour, as the test-suite backend matrix depends on it.

    ``state_dir`` is set by *served* deployments (``repro serve``,
    :mod:`repro.netd`): a long-lived server selecting sqlite without an
    explicit ``OASIS_STORE_PATH`` must NOT silently land on ``:memory:``
    — that would discard every credential record on restart while
    claiming durability.  With a state directory, the no-path sqlite
    case resolves to a stable per-service file under it
    (:func:`served_store_path`), so kill-and-resume works out of the
    box.  An explicit ``OASIS_STORE_PATH`` still wins.
    """
    backend = configured_backend()
    template = configured_path()
    if backend != "sqlite" or template is None:
        if backend == "sqlite" and shard is not None:
            raise RuntimeError(
                f"{BACKEND_ENV}=sqlite in sharded mode requires a durable "
                f"{PATH_ENV}; without one every worker would get a private "
                f"throwaway :memory: store and crash consistency is lost")
        if backend == "sqlite" and state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            return make_store(backend, codec,
                              served_store_path(state_dir, service))
        return make_store(backend, codec)
    path = resolve_store_path(template, shard=shard, service=service)
    return make_store(backend, codec, path)
