"""``repro`` speaks one I/O model — threads on blocking sockets.  An
event loop under ``src/`` would be a second one (and a second framing
path, and a bridge between the two): keep it out by construction."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_nothing_under_src_imports_asyncio():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "asyncio" for module in modules):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
