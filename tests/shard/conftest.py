"""Fixtures for the sharded suite."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def worlds_on_path(monkeypatch):
    """Workers can import ``shard_worlds`` (they inherit the env)."""
    here = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        part for part in (here, os.environ.get("PYTHONPATH")) if part))
