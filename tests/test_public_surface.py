"""Every public module-level function or class in the package is part of
what runs: some code in ``src/lfpsolve`` outside its own definition refers
to it, or the traced benchmark wraps it (a ``perfbench/spans.py`` boundary
attribute), or it is one of the few entry points that only callers of the
package use.  Re-exports in ``__init__`` do not count as a use.  A formula
that no solve, command or span runs fails here; such formulas belong in
``tests/reference.py``."""

from __future__ import annotations

import ast
from collections import Counter

from test_bench_spans import _boundaries
from test_private_names import PACKAGE, _references

# Called only from outside the package: building a system in Python,
# writing one out, and the p1CA writer.
ENTRY_POINTS = {"system_of", "serialize_mps", "p1ca_to_json"}


def test_every_public_definition_is_used():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(_references(tree))
    definitions = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    used = {node.name for _, node in definitions if everywhere[node.name] > _references(node)[node.name]}
    allowed = {attr for _, attr in _boundaries()} | ENTRY_POINTS
    unused = [(module, node.name) for module, node in definitions if node.name not in used | allowed]
    assert unused == []
    # An entry point that gains a caller in the package, or goes away, leaves the set.
    assert ENTRY_POINTS <= {node.name for _, node in definitions} - used
