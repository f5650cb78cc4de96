"""Spans around the calls one lfpsolve module makes into another.

``Tracer.install`` replaces a public function, in the namespace of the
module that calls it, by a wrapper that times the call and counts it; the
program itself is not edited.  Spans nest on a stack, so each span's self
time is its duration minus the time of the spans it caused.  Spans are
aggregated per name as they close instead of being kept one by one: the
per-layer metrics need only sums, counts and maxima.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (calling module, attribute): the calls between modules that the traced
# run times.  A span is named after the module that defines the function.
BOUNDARIES = [
    ("cli", "main"),
    ("cli", "parse_mps"),
    ("cli", "parse_p1ca"),
    ("cli", "solve"),
    ("cli", "termination_probabilities"),
    ("cli", "to_snf"),
    ("cli", "clean"),
    ("cli", "build_graph"),
    ("cli", "decompose"),
    ("cli", "system_to_json"),
    ("cli", "rat_str"),
    ("cli", "_emit"),
    ("p1ca", "build_termination_mps"),
    ("p1ca", "detect_zero_variables"),
    ("p1ca", "clean"),
    ("p1ca", "build_graph"),
    ("p1ca", "decompose"),
    ("p1ca", "solve"),
    ("driver", "to_snf"),
    ("driver", "clean"),
    ("driver", "build_graph"),
    ("driver", "decompose"),
    ("driver", "compute_bounds"),
    ("driver", "value_iterate"),
    ("driver", "detect_divergence"),
    ("driver", "run_rnm"),
    ("driver", "newton_step"),
    ("driver", "round_down_dyadic"),
    ("oracle", "evaluate"),
    ("newton", "newton_step"),
    ("newton", "evaluate"),
    ("newton", "eval_jacobian"),
    ("newton", "solve_linear"),
    ("newton", "round_down_dyadic"),
]

MODULES = ("cli", "p1ca", "driver", "decomposition", "mps", "oracle", "newton", "ratmath")


def _bits(q) -> int:
    return max(int(q.numerator).bit_length(), int(q.denominator).bit_length())


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)  # span name -> calls
        self.total = defaultdict(float)  # span name -> seconds
        self.self_time = defaultdict(float)  # span name -> seconds minus child spans
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._stack: list = []  # [span name, child seconds] of the open spans
        self._restore: list = []

    def install(self):
        for caller, attr in BOUNDARIES:
            module = importlib.import_module(f"lfpsolve.{caller}")
            original = getattr(module, attr)
            defining = original.__module__.rsplit(".", 1)[-1]
            span = f"{defining}.{original.__name__}"
            setattr(module, attr, self._wrap(original, span, f"{caller}:{attr}"))
            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, span, site):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - frame[1]
            self._observe(site, parent, result)
            return result

        return traced

    def _observe(self, site, parent, result):
        """Counts read from the values that cross a boundary."""
        c = self.counts
        if site == "newton:evaluate":
            c["newton.evaluate_calls"] += 1
        elif site == "oracle:evaluate" and parent == "oracle.detect_divergence":
            c["oracle.probe_evaluate_calls"] += 1
        elif site in ("newton:newton_step", "driver:newton_step"):
            c["newton.steps"] += 1
            bits = max((_bits(v) for v in result), default=0)
            self.maxima["newton.max_iterate_bits"] = max(self.maxima["newton.max_iterate_bits"], bits)
        elif site in ("cli:solve", "p1ca:solve"):
            c["newton.steps_reported"] += sum(run.iterations for run in result.scc_runs)
            c["driver.grid_bits"] += result.params.h
        elif site.endswith(":decompose"):
            c["decomposition.scc_count"] += len(result.sccs)
            biggest = max((len(s.vars) for s in result.sccs), default=0)
            self.maxima["decomposition.max_scc_vars"] = max(self.maxima["decomposition.max_scc_vars"], biggest)

    def metrics(self, rounds: int) -> dict:
        """Per-round figures: sums divided by the number of traced rounds."""

        def per_round(x):
            return x / rounds

        t, c = self.total, self.counts
        steps = c["newton.steps"]
        out = {
            "newton.evaluate_per_step": (c["newton.evaluate_calls"] / steps if steps else 0.0, "calls/step"),
            "newton.rnm_s": (per_round(t["newton.run_rnm"]), "s"),
            "newton.steps": (per_round(steps), "count"),
            "newton.steps_reported": (per_round(c["newton.steps_reported"]), "count"),
            "newton.max_iterate_bits": (self.maxima["newton.max_iterate_bits"], "bit"),
            "driver.grid_bits": (per_round(c["driver.grid_bits"]), "bit"),
            "driver.rnm_runs": (per_round(self.calls["newton.run_rnm"]), "count"),
            "driver.bounds_s": (per_round(t["driver.compute_bounds"]), "s"),
            "oracle.probe_s": (per_round(t["oracle.detect_divergence"]), "s"),
            "oracle.probe_evaluate_calls": (per_round(c["oracle.probe_evaluate_calls"]), "count"),
            "oracle.value_iter_s": (per_round(t["oracle.value_iterate"]), "s"),
            "ratmath.solve_linear_s": (per_round(t["ratmath.solve_linear"]), "s"),
            "ratmath.solve_linear_calls": (per_round(self.calls["ratmath.solve_linear"]), "count"),
            "ratmath.round_down_s": (per_round(t["ratmath.round_down_dyadic"]), "s"),
            "cli.serialize_s": (
                per_round(t["ratmath.rat_str"] + t["mps.system_to_json"] + t["cli._emit"]),
                "s",
            ),
            "decomposition.decompose_s": (per_round(t["decomposition.decompose"]), "s"),
            "decomposition.scc_count": (per_round(c["decomposition.scc_count"]), "count"),
            "decomposition.max_scc_vars": (self.maxima["decomposition.max_scc_vars"], "count"),
            "mps.parse_s": (per_round(t["mps.parse_mps"]), "s"),
            "mps.snf_s": (per_round(t["mps.to_snf"]), "s"),
            "mps.clean_s": (per_round(t["mps.clean"]), "s"),
            "mps.evaluate_s": (per_round(t["mps.evaluate"]), "s"),
            "mps.jacobian_s": (per_round(t["mps.eval_jacobian"]), "s"),
            "p1ca.build_s": (per_round(t["p1ca.build_termination_mps"]), "s"),
        }
        for module in MODULES:
            own = sum(s for name, s in self.self_time.items() if name.split(".", 1)[0] == module)
            out[f"{module}.self_s"] = (per_round(own), "s")
        return out
