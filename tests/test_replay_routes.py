"""Every run of ``tools/replay.py``'s ``ROUTES`` group still takes the route
it was added for: its exit code and the output fields that mark the route
(certificate kind and grid, the q* = 1 set, or the error) are as listed.
The byte digest of the replay only says that output did not change; this
says that the runs behind it still reach the code they are there for."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from lfpsolve import cli

ROOT = Path(__file__).resolve().parent.parent


def _replay():
    spec = importlib.util.spec_from_file_location("replay_tool", ROOT / "tools" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPLAY = _replay()


@pytest.mark.parametrize("name", sorted(REPLAY.ROUTES))
def test_route_keeps_its_exit_code_and_marker(name, tmp_path):
    argv, source, code, marker = REPLAY.ROUTES[name]
    if isinstance(source, str):
        path = REPLAY.DATA / source
    else:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(source), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main([*argv, str(path)]) == code
    doc = json.loads(out.getvalue())
    for key, expected in marker.items():
        value = doc
        for part in key.split("."):
            value = value[part]
        assert value == expected, key
