"""``repro`` speaks one I/O model — threads on blocking sockets — and
has one multi-process substrate — ``repro.netd`` nodes spawned by its
``Supervisor``.  An event loop under ``src/`` would be a second I/O model
(and a second framing path, and a bridge between the two), a
``multiprocessing`` import a second way to make and talk to a process:
keep both out by construction."""

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def importers_of(banned):
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == banned for module in modules):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return offenders


def test_nothing_under_src_imports_asyncio():
    assert importers_of("asyncio") == []


def test_nothing_under_src_imports_multiprocessing():
    assert importers_of("multiprocessing") == []


def test_netd_does_not_import_the_shard_router():
    """``repro.shard`` is built on ``repro.netd``, not the reverse: a
    served node pays for the shard layer only under ``--shard``."""
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.netd, repro.netd.deploy, repro.netd.worlds, "
         "repro.netd.cli; print('repro.shard.router' in sys.modules)"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        check=True, timeout=60)
    assert loaded.stdout.strip() == "False"
