"""README's Python examples run as written and print what their comments
state: the two "Quick start (Python)" blocks, and the witness re-check
block on a ``solve`` output."""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from test_cli import run_cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks_after(heading: str) -> list:
    """The ```python blocks of README after the first line holding ``heading``."""
    return re.findall(r"```python\n(.*?)```", README[README.index(heading) :], re.S)


def _run(block: str, **names) -> list:
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), dict(names))
    return out.getvalue().splitlines()


def test_quick_start_solve_block():
    assert _run(_blocks_after("## Quick start (Python)")[0]) == [
        "certified-eps",
        "1",
        "('x',)",
        "[0]",
        "[Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]",
        "140/239",
    ]


def test_quick_start_p1ca_block():
    (line,) = _run(_blocks_after("## Quick start (Python)")[1])
    assert Fraction(1, 2) - Fraction(1, 2**20) <= Fraction(line) <= Fraction(1, 2)


@pytest.fixture
def witnessed(tmp_path, monkeypatch):
    """A sys.json in the working directory, and its ``solve`` output."""
    system = json.dumps({"vars": ["x"], "eqs": [[{"c": "1/4", "m": {"x": 2}}, {"c": "1/2", "m": {}}]]})
    code, out, _ = run_cli(["solve", "--epsilon", "1/65536", "--assume-prob"], system, tmp_path)
    assert code == 0
    (tmp_path / "sys.json").write_text(system, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    doc = json.loads(out)
    assert doc["certificate"]["kind"] == "witness"
    return doc


def test_witness_recheck_block(witnessed):
    block = _blocks_after("To re-check a witness")[0]
    assert _run(block, doc=witnessed) == []
    # The check is not vacuous: the answer itself lies below q*, so it is no
    # post-fixed point.
    witnessed["certificate"]["post_fixed_point"] = {"x": witnessed["approximation"][0]}
    with pytest.raises(AssertionError):
        _run(block, doc=witnessed)
