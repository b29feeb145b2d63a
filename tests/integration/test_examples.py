"""Every in-process example prints its recorded transcript.

Each script under ``examples/`` (but ``serve_ehr.py``, which starts a
fleet of processes and checks itself with ``--check``) runs in a fresh
interpreter, and its stdout must equal ``examples/expected/<name>.txt``
byte for byte, under whichever store backend ``OASIS_STORE_BACKEND``
selects.  A change that means to alter a transcript regenerates it:

    PYTHONPATH=src python examples/<name>.py > examples/expected/<name>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"
EXPECTED = EXAMPLES / "expected"
SCRIPTS = sorted(path for path in EXAMPLES.glob("*.py")
                 if path.name != "serve_ehr.py")


def test_every_in_process_example_has_a_transcript():
    assert [path.stem for path in SCRIPTS] \
        == sorted(path.stem for path in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.stem)
def test_example_prints_its_transcript(script):
    path = [str(ROOT / "src")] + [entry for entry in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if entry]
    result = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert result.returncode == 0, result.stderr
    assert result.stdout == (EXPECTED / f"{script.stem}.txt").read_text()
