"""Every module-level private name (``_x``) in the package is used: some
code in ``src/lfpsolve`` outside its own definition refers to it.  A helper
that a consolidation leaves behind fails here."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lfpsolve"


def _references(node: ast.AST) -> Counter:
    """Names read, attributes taken, and names imported from a module."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def _private_definitions(tree: ast.Module):
    """(name, defining node) for each private name bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_module_name_is_referenced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_references(tree))
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if everywhere[name] == _references(node)[name]:
                unused.append((module, name))
    assert unused == []
