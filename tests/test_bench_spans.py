"""The traced benchmark (`perfbench/run.py --trace 1`) wraps the calls
between modules named in `perfbench/spans.py`; every one must still exist,
or tracing breaks when a module stops importing a name.  Those are the only
names a module may import without using them."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "lfpsolve"


def _boundaries() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_span_boundary_resolves():
    boundaries = _boundaries()
    assert boundaries
    missing = [
        (caller, attr)
        for caller, attr in boundaries
        if not callable(getattr(importlib.import_module(f"lfpsolve.{caller}"), attr, None))
    ]
    assert missing == []


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)


def test_every_import_is_used_or_a_span_boundary():
    boundaries = set(_boundaries())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":  # re-exports the public API
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            (path.stem, name)
            for name in _imported_names(tree)
            if name not in used and (path.stem, name) not in boundaries
        ]
    assert unused == []
