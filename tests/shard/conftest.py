"""Fixtures for the sharded suite.

The suite runs inside the ``OASIS_STORE_BACKEND`` matrix.  Sharded mode
is strict about the sqlite backend (it refuses to run without a durable
``{shard}``-templated ``OASIS_STORE_PATH`` — see :mod:`repro.db`), so
these fixtures supply a per-test template under ``tmp_path`` when the
matrix selects sqlite.  The differential tests need the template active
*only* while the sharded side runs (the single-process twin must see the
plain env), hence the context-manager flavour.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest

from repro.db import PATH_ENV, configured_backend, configured_path


def _needs_template() -> bool:
    return configured_backend() == "sqlite" and configured_path() is None


@pytest.fixture
def sharded_store_env(tmp_path):
    """A context-manager factory: inside the ``with``, the env-selected
    backend is legal for shard workers (sqlite gets a durable
    ``{shard}``-templated path under ``tmp_path``)."""

    @contextmanager
    def _env():
        if _needs_template():
            os.environ[PATH_ENV] = str(tmp_path / "store-{shard}.sqlite")
            try:
                yield
            finally:
                os.environ.pop(PATH_ENV, None)
        else:
            yield

    return _env


@pytest.fixture(autouse=True)
def worlds_on_path(monkeypatch):
    """Workers can import ``shard_worlds`` (they inherit the env)."""
    here = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        part for part in (here, os.environ.get("PYTHONPATH")) if part))


@pytest.fixture
def sharded_store_path(tmp_path, monkeypatch):
    """Whole-test flavour for tests that only ever run sharded."""
    if _needs_template():
        monkeypatch.setenv(PATH_ENV,
                           str(tmp_path / "store-{shard}.sqlite"))
