"""The traced benchmark (`perfbench/run.py --trace 1`) wraps the calls
between modules named in `perfbench/spans.py`; every one must still exist,
or tracing breaks when a module stops importing a name."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
