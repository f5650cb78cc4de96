"""Replay a fixed corpus of command-line runs against one source tree and
print a digest of every byte they write.

    python3 tools/replay.py TREE [--records PATH]

TREE is a checkout of this repository; lfpsolve is imported from TREE/src
and from nowhere else.  The command-line corpus comes from the checkout
this file is in, so running the same file against two trees compares their
output on the same inputs; the demos are TREE's own, since a demo is
written against its tree's API.  The corpus:

- every operation of the four benchmark workloads at seed 1, built by
  ``perfbench/workloads.py`` (imported, not changed);
- each ``solve`` operation also with ``--trace``, with ``--h 40``, and with
  ``--mode adaptive --max-h 80``;
- each ``p1ca-term`` operation also with ``--trace`` and with ``--mode
  adaptive``;
- ``random_p1ca`` models with r = 1..6 states at three seeds;
- ``clean``, ``decompose``, ``snf``, ``bounds`` and ``solve`` on every file
  of ``demos/data``;
- two systems that diverge under ``--assume-prob``, one caught by the
  divergence probe and one by the first Newton iterate;
- four systems solved without a flag, in both modes, so that the
  worst-case bound on q* sets u;
- one run for each route that nothing above reaches (``ROUTES``): the
  divergence probe after the ladder, the certified theorem grid, the
  adaptive ceiling, the q* = 1 pre-pass with variables left over, the
  pre-pass's elimination with row scaling, cancellation and division by
  the content, the component order that ``decompose`` and ``solve`` share,
  a Newton-direction witness whose half step fails and whose full step
  certifies, a singular Newton step in both modes, ``bounds`` on a system
  that cleaning empties, ``value-iter`` within and past its bit budget,
  and ``p1ca-validate`` and ``p1ca-term`` on a valid and an invalid model;
- a missing file, a parse error and a bad epsilon;
- the standard output of every demo in TREE/demos.

Outside the flagless group every solve passes ``--assume-prob`` or has
q* <= 1.  The flagless group takes u from the worst-case formula, 5100 to
10**8 here.  The witness grids do not depend on u, so three of its systems
are certified on small grids in both modes; the quartic, which no witness
can certify, is refused in certified mode, because its theorem's grid is
above the ceiling.

Each run is one in-process call of ``lfpsolve.cli.main`` (or one demo
script), and its record is its arguments, exit code (or the exception that
escaped the run), standard output and standard error, with the temporary
directory written as ``<tmp>`` and both TREE and this checkout as
``<root>``.  The tool prints the record count, a histogram of exit codes
and the SHA-256 of all records, then one SHA-256 per group of records: the
first part of the label, split by whether the run passes ``--mode
adaptive``, with the group's record count.  Comparing two trees group by
group shows which kinds of run moved.  ``--records PATH`` also writes the
records to PATH as JSON lines, in order, exactly as digested, so that a
line-by-line diff of two such files names the records that moved.  A run
takes a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import runpy
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
EPS = "1/65536"
P1CA_EPS = "1/1048576"
P1CA_SEEDS = (1, 2, 3)
P1CA_STATES = range(1, 7)
DATA = ROOT / "demos" / "data"
VARIANTS = {  # extra flags each workload operation also runs with, by command
    "solve": (["--trace"], ["--h", "40"], ["--mode", "adaptive", "--max-h", "80"]),
    "p1ca-term": (["--trace"], ["--mode", "adaptive"]),
}
# Systems with no least fixed point below 1, solved under --assume-prob: the
# first escapes 1 only after thousands of value iterates, so the probe
# misses it and the first Newton iterate certifies divergence; the second
# is linear with q* = 2, which the probe catches.
DIVERGENT = {
    "slow-escape": [
        [{"c": "1/1024", "m": {"x": 2}}, {"c": "1023/1024", "m": {"x": 1}}, {"c": "1/512", "m": {}}]
    ],
    "linear-escape": [[{"c": "1/2", "m": {"x": 1}}, {"c": "1", "m": {}}]],
}
# Systems solved without a flag: x = x^2/12 + 3 (q* = 6, critical); the
# depth-3 chain x_i = x_i^2/2 + x_(i-1)/2 whose bottom constant is 1/2 -
# 2**-200 (q* within 2**-24 of 1, nearly critical); a = a^2/4 + 1, b = b/2 +
# a/8 (q* = (2, 1/2)); and x = x^4 + 2x^3 + 1/4, whose q* = (sqrt(3) - 1)/2
# is a critical double root.
FLAGLESS = {
    "x2-over-12-plus-3": {"vars": ["x"], "eqs": [[{"c": "1/12", "m": {"x": 2}}, {"c": "3", "m": {}}]]},
    "leaky-chain3": {
        "vars": ["x0", "x1", "x2"],
        "eqs": [
            [{"c": "1/2", "m": {"x0": 2}}, {"c": f"{2**199 - 1}/{2**200}", "m": {}}],
            [{"c": "1/2", "m": {"x1": 2}}, {"c": "1/2", "m": {"x0": 1}}],
            [{"c": "1/2", "m": {"x2": 2}}, {"c": "1/2", "m": {"x1": 1}}],
        ],
    },
    "quartic": {
        "vars": ["x"],
        "eqs": [[{"c": "1", "m": {"x": 4}}, {"c": "2", "m": {"x": 3}}, {"c": "1/4", "m": {}}]],
    },
    "mixed2": {
        "vars": ["a", "b"],
        "eqs": [
            [{"c": "1/4", "m": {"a": 2}}, {"c": "1", "m": {}}],
            [{"c": "1/2", "m": {"b": 1}}, {"c": "1/8", "m": {"a": 1}}],
        ],
    },
}

# Runs that reach a route no other record reaches, by label: the argv before
# the input file, the input (a document, or a file of demos/data), the exit
# code and the output that marks the route, as dotted keys of the JSON on
# standard output.  tests/test_replay_routes.py runs each through
# ``cli.main`` and checks both, so a change that moves a run off its route
# fails a test instead of shrinking what the replay covers.
X_SQUARED_PLUS_1 = {"vars": ["x"], "eqs": [[{"c": "1", "m": {"x": 2}}, {"c": "1", "m": {}}]]}
X_PLUS_1 = {"vars": ["x"], "eqs": [[{"c": "1", "m": {"x": 1}}, {"c": "1", "m": {}}]]}
# a has q* = 1, which the pre-pass proves; b0 and b1 are a doubled chain
# fed by a, and c is linear on top: the only run that restricts the
# cleaned system to the variables left after the q* = 1 set.
PARTIAL_ONES = {
    "vars": ["a", "b0", "b1", "c"],
    "eqs": [
        [{"c": "1/2", "m": {"a": 2}}, {"c": "1/2", "m": {}}],
        [{"c": "1/4", "m": {"b0": 2}}, {"c": "1", "m": {"a": 1}}],
        [{"c": "1/4", "m": {"b1": 2}}, {"c": "1/2", "m": {"b0": 1}}],
        [{"c": "1/3", "m": {"c": 1}}, {"c": "1/3", "m": {"b1": 1}}, {"c": "1/8", "m": {}}],
    ],
}
# w and z are constants, x reads z and y reads w: decompose, solve and the
# trace all list the components by height, then least variable (w, z, x, y).
COMPONENT_ORDER = {
    "vars": ["w", "x", "y", "z"],
    "eqs": [
        [{"c": "1/2", "m": {}}],
        [{"c": "1/2", "m": {"z": 1}}, {"c": "1/4", "m": {}}],
        [{"c": "1/2", "m": {"w": 1}}, {"c": "1/4", "m": {}}],
        [{"c": "1/2", "m": {}}],
    ],
}
# x = x^2/4 + y/2 + 1/4, y = x/2 + y^2/4 + 1/4: q* = (1, 1) and critical, so
# the pre-pass's elimination scales a row, cancels an entry to zero (the
# last pivot) and divides by a content before it proves the q* = 1 set.
PREPASS_ELIMINATION = {
    "vars": ["x", "y"],
    "eqs": [
        [{"c": "1/4", "m": {"x": 2}}, {"c": "1/2", "m": {"y": 1}}, {"c": "1/4", "m": {}}],
        [{"c": "1/2", "m": {"x": 1}}, {"c": "1/4", "m": {"y": 2}}, {"c": "1/4", "m": {}}],
    ],
}
# random_substochastic(Random(30), 2) of the test suite: on the first grid
# the Newton-direction witness's half step eps / 2 fails the exact check and
# the full step eps along the same direction passes, so it is certified on
# grid 18 (without the full step the ladder climbs to 36).
FULL_STEP = {
    "vars": ["v0", "v1"],
    "eqs": [
        [
            {"c": "1183/16384", "m": {"v0": 2}},
            {"c": "21/256", "m": {"v0": 2}},
            {"c": "273/4096", "m": {"v1": 1}},
            {"c": "1/2", "m": {}},
        ],
        [{"c": "7/128", "m": {"v0": 1}}, {"c": "3/16", "m": {}}],
    ],
}
# an unknown target state, and probabilities from "a" summing to 5/4
BAD_P1CA = {
    "states": ["a"],
    "delta": [
        {"from": "a", "p": "1/2", "k": -1, "to": "a"},
        {"from": "a", "p": "3/4", "k": 1, "to": "b"},
    ],
    "delta0": [],
}
ROUTES = {
    "probe-after-ladder": (
        ["solve", "--assume-prob", "--epsilon", EPS],
        X_SQUARED_PLUS_1,
        2,
        {
            "error.message": "value iteration escapes the q*_max bound 2**0; "
            "no finite least fixed point below it exists"
        },
    ),
    "theorem-grid": (
        ["solve", "--assume-prob", "--epsilon", EPS],
        FLAGLESS["quartic"],
        0,
        {"certificate.kind": "theorem", "certificate.attempted_h": [18, 36, 72], "params.h": 603},
    ),
    "adaptive-ceiling": (
        ["solve", "--assume-prob", "--epsilon", EPS, "--mode", "adaptive", "--max-h", "18"],
        FLAGLESS["quartic"],
        4,
        {"error.message": "adaptive refinement passed the ceiling 18 without settling"},
    ),
    "partial-ones": (
        ["solve", "--epsilon", EPS],
        PARTIAL_ONES,
        0,
        {"certificate.kind": "witness", "params.h": 72, "certificate.exact_one": ["a"]},
    ),
    "component-order": (
        ["solve", "--assume-prob", "--epsilon", EPS],
        COMPONENT_ORDER,
        0,
        {
            "sccs": [
                {"vars": [name], "nonlinear": False, "iterations": 1} for name in ("w", "z", "x", "y")
            ]
        },
    ),
    "prepass-elimination": (
        ["solve", "--epsilon", EPS],
        PREPASS_ELIMINATION,
        0,
        {"certificate.kind": "witness", "certificate.exact_one": ["x", "y"]},
    ),
    "full-step-fallback": (
        ["solve", "--assume-prob", "--epsilon", EPS],
        FULL_STEP,
        0,
        {"certificate.kind": "witness", "certificate.attempted_h": [18]},
    ),
    "singular": (["solve", "--epsilon", EPS], X_PLUS_1, 3, {"error.type": "SingularMatrix"}),
    "singular-adaptive": (
        ["solve", "--epsilon", EPS, "--mode", "adaptive"],
        X_PLUS_1,
        3,
        {"error.type": "SingularMatrix"},
    ),
    "bounds-empty": (
        ["bounds"],
        {"vars": ["x"], "eqs": [[{"c": "1", "m": {"x": 1}}]]},
        0,
        {"empty_after_cleaning": True},
    ),
    "value-iter": (["value-iter", "--steps", "3"], "chain3.json", 0, {"steps": 3}),
    "value-iter-budget": (
        ["value-iter", "--steps", "40"],
        {"vars": ["x"], "eqs": [[{"c": "1/4", "m": {"x": 2}}, {"c": "1", "m": {}}]]},
        1,
        {
            "error.message": "value iterate 14 has a numerator or denominator of more than 14284 bits; "
            "stopped before step 15"
        },
    ),
    "p1ca-validate": (["p1ca-validate"], "gambler.json", 0, {"ok": True}),
    "p1ca-validate-invalid": (["p1ca-validate"], BAD_P1CA, 1, {"ok": False}),
    "p1ca-term-invalid": (["p1ca-term", "--epsilon", P1CA_EPS], BAD_P1CA, 1, {"error.type": "InvalidModel"}),
}


def _captured(call) -> tuple:
    """Exit code, standard output and standard error of call().  An
    exception that escapes call() is the run's outcome, written as "Type:
    message" in place of the exit code, so that one failing run does not
    end the replay."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:  # argparse errors and --version
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _cli_runs(tmp: Path, workloads, models) -> list:
    """(label, argv) of every command-line run, in a fixed order; writes the
    input files under tmp."""
    runs = []
    for name, build in workloads.WORKLOADS.items():
        workdir = tmp / name
        workdir.mkdir()
        for op in build(SEED, workdir):
            command, rest = op.argv[:1], op.argv[1:]
            for extra in ([], *VARIANTS.get(command[0], ())):
                runs.append((f"{name}/{op.label}", command + extra + rest))
    for seed in P1CA_SEEDS:
        for r in P1CA_STATES:
            path = tmp / f"p1ca_{seed}_r{r}.json"
            path.write_text(json.dumps(models.random_p1ca(random.Random(seed), r)), encoding="utf-8")
            runs.append((f"random_p1ca/{seed}/r{r}", ["p1ca-term", "--epsilon", P1CA_EPS, str(path)]))
    for path in sorted(DATA.glob("*.json")):
        for command in (["clean"], ["decompose"], ["snf"], ["bounds"], ["solve", "--epsilon", EPS]):
            runs.append((f"demos/data/{path.name}", command + [str(path)]))
    for name, eqs in DIVERGENT.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({"vars": ["x"], "eqs": eqs}), encoding="utf-8")
        for extra in ([], ["--h", "40"], ["--mode", "adaptive"]):
            argv = ["solve", "--assume-prob", "--epsilon", EPS, *extra, str(path)]
            runs.append((f"divergent/{name}", argv))
    for name, doc in FLAGLESS.items():
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for extra in ([], ["--mode", "adaptive"]):
            runs.append((f"flagless/{name}", ["solve", "--epsilon", EPS, *extra, str(path)]))
    for name, (argv, source, _, _) in ROUTES.items():
        if isinstance(source, str):
            path = DATA / source
        else:
            path = tmp / f"route-{name}.json"
            path.write_text(json.dumps(source), encoding="utf-8")
        runs.append((f"route/{name}", [*argv, str(path)]))
    runs += [
        ("error/missing-file", ["solve", "--epsilon", EPS, str(tmp / "missing.json")]),
        ("error/parse", ["p1ca-term", "--epsilon", EPS, str(DATA / "chain3.json")]),
        ("error/epsilon", ["solve", "--epsilon", "2", str(DATA / "chain3.json")]),
    ]
    return runs


def _records(tmp: Path, tree: Path, workloads, models, cli) -> list:
    records = []
    for label, argv in _cli_runs(tmp, workloads, models):
        code, out, err = _captured(lambda: cli.main(argv))
        if label == "structure-wide/snf" and code == 0:
            # decompose and clean read the snf output, as in the benchmark
            (tmp / "structure-wide" / "wide_snf.json").write_text(
                json.dumps(json.loads(out)["system"]), encoding="utf-8"
            )
        records.append({"label": label, "argv": argv, "exit": code, "stdout": out, "stderr": err})
    for demo in sorted((tree / "demos").glob("*.py")):
        code, out, err = _captured(lambda: _run_demo(demo))
        record = {"label": f"demos/{demo.name}", "argv": [], "exit": code, "stdout": out, "stderr": err}
        records.append(record)
    return records


def _run_demo(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def _normalized(record: dict, tmp: Path, tree: Path) -> str:
    """The record as one JSON line, with the temporary directory written as
    ``<tmp>`` and both the replayed tree and this checkout as ``<root>``,
    longest path first, so that a run naming a file of either tree records
    the same line whichever checkout replays it."""
    line = json.dumps(record, sort_keys=True)
    paths = {str(tmp): "<tmp>", str(tree): "<root>", str(ROOT): "<root>"}
    for path in sorted(paths, key=len, reverse=True):
        line = line.replace(json.dumps(path)[1:-1], paths[path])
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path, help="checkout whose src/ is replayed")
    parser.add_argument("--records", type=Path, help="also write the records here as JSON lines")
    args = parser.parse_args()
    tree = args.tree.resolve()
    src = tree / "src"
    if not (src / "lfpsolve").is_dir():
        parser.error(f"no lfpsolve package under {src}")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import models
    import workloads
    from lfpsolve import cli

    print(f"lfpsolve: {Path(cli.__file__).parent}")
    with tempfile.TemporaryDirectory() as tmp:
        records = _records(Path(tmp), tree, workloads, models, cli)
        lines = [_normalized(record, Path(tmp), tree) for record in records]
    if args.records is not None:
        args.records.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    exits = Counter(json.loads(line)["exit"] for line in lines)
    print(f"records: {len(records)}")
    print("exit codes: " + ", ".join(f"{code}: {count}" for code, count in sorted(exits.items(), key=str)))
    print(f"sha256: {_digest(lines)}")
    groups: dict = {}
    for record, line in zip(records, lines):
        adaptive = " --mode adaptive" if "--mode adaptive" in " ".join(record["argv"]) else ""
        groups.setdefault(record["label"].split("/")[0] + adaptive, []).append(line)
    for group, group_lines in groups.items():
        print(f"sha256 {group} ({len(group_lines)}): {_digest(group_lines)}")
    return 0


def _digest(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
