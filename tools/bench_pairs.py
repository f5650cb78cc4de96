"""Run the benchmark as alternating pairs on two source trees and write the
pairs, their summary and both trees' replay digests as one JSON document.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seeds A-B --seconds S
        [--workload W2 ...] [--claim WORKLOAD/METRIC] [--title TEXT] [--out PATH]

Each tree is a checkout of this repository.  For every seed from A to B and
every workload, ``perfbench/run.py --workload W --seed SEED --seconds S
--trace 0`` runs once in each tree, in a fresh process whose working
directory is that tree, so each side imports its own ``src/`` and runs its
own ``perfbench/``.  The parent runs first on odd seeds and the change
first on even seeds.  Both sides run with PYTHONDONTWRITEBYTECODE=1, so
``setup_s`` includes compiling the package sources on both.

For each workload and each end-to-end metric the document holds both
series in seed order, each side's quartiles (``statistics.quantiles``),
the relative change of the median, the distance between the parent's
quartiles, and the number of pairs in which the change is better (in the
direction ``BENCHMARK.json`` gives) or tied.  ``--claim`` names the
claimed metric; its block says whether the change is better in at least
nine of ten pairs and its median beats the parent's by more than the
parent's quartile distance.  Last, this checkout's ``tools/replay.py``
runs against both trees, and the record counts, exit codes and digests are
stored.  The document goes to ``--out``, or to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "perfbench/run.py"


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(metrics, failed operations, stdout) of one benchmark run in ``tree``."""
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: wrong answers on {workload} at seed {seed}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, result["failed"], done.stdout


def _summary(parent: list, change: list, lower_is_better: bool) -> dict:
    sign = 1 if lower_is_better else -1
    parent_q = statistics.quantiles(parent, n=4)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "parent": parent,
        "change": change,
        "parent_quartiles": parent_q,
        "change_quartiles": statistics.quantiles(change, n=4),
        "median_change": (change_median - parent_median) / parent_median if parent_median else 0.0,
        "parent_quartile_distance": parent_q[2] - parent_q[0],
        "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "tied_pairs": sum(c == p for p, c in zip(parent, change)),
    }


def _claim(workloads: dict, workload: str, metric: str, lower_is_better: bool) -> dict:
    series = workloads[workload][metric]
    parent_median = statistics.median(series["parent"])
    change_median = statistics.median(series["change"])
    gain = parent_median - change_median if lower_is_better else change_median - parent_median
    pairs = len(series["parent"])
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": parent_median,
        "change_median": change_median,
        "median_change": series["median_change"],
        "parent_quartile_distance": series["parent_quartile_distance"],
        "change_better_pairs": series["change_better_pairs"],
        "pairs": pairs,
        "met": 10 * series["change_better_pairs"] >= 9 * pairs and gain > series["parent_quartile_distance"],
    }


def _replay(tree: Path) -> dict:
    argv = [sys.executable, str(ROOT / "tools" / "replay.py"), str(tree)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    out = done.stdout
    codes = re.search(r"^exit codes: (.*)$", out, re.M).group(1)
    return {
        "records": int(re.search(r"^records: (\d+)$", out, re.M).group(1)),
        "exit_codes": {code: int(count) for code, count in (part.split(": ") for part in codes.split(", "))},
        "sha256": re.search(r"^sha256: (\w+)$", out, re.M).group(1),
        "groups": dict(re.findall(r"^sha256 (.+ \(\d+\)): (\w+)$", out, re.M)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="A-B, both included")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim", help="WORKLOAD/METRIC of the claimed gain")
    parser.add_argument("--title")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = _seeds(args.seeds)
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    runs = {w: {"parent": [], "change": [], "failed_parent": [], "failed_change": []} for w in args.workload}
    environment = None
    for seed in seeds:
        for workload in args.workload:
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                metrics, failed, stdout = _run(trees[side], workload, seed, args.seconds)
                runs[workload][side].append(metrics)
                runs[workload][f"failed_{side}"].append(failed)
                environment = environment or re.search(r"^environment: (.*)$", stdout, re.M).group(1)
            print(f"seed {seed} {workload}: done", file=sys.stderr)

    workloads = {}
    for workload, r in runs.items():
        entry = {"seeds": seeds, "failed_parent": r["failed_parent"], "failed_change": r["failed_change"]}
        for metric in r["parent"][0]:
            parent = [m[metric] for m in r["parent"]]
            change = [m[metric] for m in r["change"]]
            entry[metric] = _summary(parent, change, better[metric] == "lower")
        workloads[workload] = entry

    doc = {"title": args.title} if args.title else {}
    doc["environment"] = {
        "run_py": environment,
        "note": "PYTHONDONTWRITEBYTECODE=1 is set, so setup_s includes compiling the package sources",
    }
    doc["command"] = f"python3 {RUN} --workload <name> --seed <seed> --seconds {args.seconds:g} --trace 0"
    doc["method"] = (
        "one fresh process per run, with its working directory in its own source tree; pairs of parent "
        "and change runs at the same seed, parent first on odd seeds and change first on even seeds"
    )
    doc["seconds"] = args.seconds
    doc["workloads"] = workloads
    replay = {side: _replay(tree) for side, tree in trees.items()}
    replay["identical"] = replay["parent"] == replay["change"]
    doc["replay"] = {"command": "python3 tools/replay.py <tree>", **replay}
    if args.claim:
        workload, metric = args.claim.split("/")
        doc["claim"] = _claim(workloads, workload, metric, better[metric] == "lower")
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
