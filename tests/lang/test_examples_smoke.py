"""The policy-analysis examples the README advertises must keep running
against the public ``repro.lang`` API."""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.mark.parametrize("script", ["policy_tooling.py",
                                    "who_can_read_what.py"])
def test_example_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", script)],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
