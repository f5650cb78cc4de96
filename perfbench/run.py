"""End-to-end benchmark of the lfpsolve command line, with a traced run for
per-module figures.

    python3 perfbench/run.py --workload chain-critical --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: it imports lfpsolve from
``src/`` and from nowhere else, and exits with status 2 when that is
missing.  One closed-loop client on one thread runs the operations one
after another; each is one in-process call of ``lfpsolve.cli.main([...])``
with standard output captured, so it covers JSON parsing, solving and JSON
output.  A round is the workload's list of operations (workloads.py).
One whole round always runs; a further one starts only when the rounds so
far predict that it ends within ``--seconds``.  Garbage left by one
operation is collected, untimed, before the next starts, as a fresh CLI
process would start clean.

Timings are averaged over the run, not picked from it.  The host's CPU
speed flips between states up to 1.6 times apart for seconds to minutes
at a time; a median over repeats of one operation lands in one state or
the other, while a mean weighs them by the time spent in each.

Set-up is the import of lfpsolve, input generation and model-file writing.
It is repeated SETUP_REPEATS times and its median reported.  Each answer is
checked without the solver's code (checks.py).  An escaped exception, a
non-zero exit or a wrong answer counts as a failed operation.

The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics.  With ``--trace 1`` it holds the per-module
metrics, from rounds run with the wrappers of spans.py installed; these
alternate with untraced rounds, which give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11


@dataclass
class Outcome:
    label: str
    seconds: float
    status: str  # "ok", "wrong answer", "exit N <error type>", or the escaped exception
    bits: int = 0


def import_cli():
    """lfpsolve.cli imported afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "lfpsolve" or m.startswith("lfpsolve.")]:
        del sys.modules[name]
    cli = importlib.import_module("lfpsolve.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"lfpsolve was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path):
    """Import, generate and write SETUP_REPEATS times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = perf_counter()
        cli = import_cli()
        ops = WORKLOADS[workload](seed, workdir)
        times.append(perf_counter() - start)
    return cli, ops, statistics.median(times)


def run_op(cli, argv: list) -> tuple:
    """(seconds, exit status or escaped error, captured stdout)."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        status = exc.code
    except Exception as exc:  # an escaped exception is a failed operation
        status = f"{type(exc).__name__}: {exc}"[:200]
    return perf_counter() - start, status, out.getvalue()


def _failure(status, stdout: str) -> str:
    """"exit N <error type>" from the error JSON the CLI prints, or the
    escaped exception."""
    if isinstance(status, str):
        return status
    try:
        kind = json.loads(stdout)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        kind = "without error JSON"
    return f"exit {status} {kind}"


def remembering(check):
    """check, taking the captured output and run once per distinct output,
    so that repeats of an operation cost one string comparison."""
    seen = {}

    def checked(stdout: str) -> tuple:
        if stdout not in seen:
            seen[stdout] = check(json.loads(stdout))
        return seen[stdout]

    return checked


def run_round(cli, ops: list, verifiers: list) -> list:
    outcomes = []
    for op, check in zip(ops, verifiers):
        gc.collect()
        seconds, status, stdout = run_op(cli, op.argv)
        if status == 0:
            try:
                right, bits = check(stdout)
            except (ValueError, KeyError, TypeError):  # output not in the documented schema
                right, bits = False, 0
            outcomes.append(Outcome(op.label, seconds, "ok" if right else "wrong answer", bits if right else 0))
        else:
            outcomes.append(Outcome(op.label, seconds, _failure(status, stdout)))
    return outcomes


def round_seconds(outcomes: list) -> float:
    return sum(o.seconds for o in outcomes)


def end_to_end(rounds: list, setup_s: float) -> dict:
    """wall_s is the mean over rounds of the round's summed operation
    time; op_p50_s the median over the round's operations of each one's
    mean time over the rounds."""
    every = [o for r in rounds for o in r]
    op_means = [statistics.fmean(o.seconds for o in repeats) for repeats in zip(*rounds)]
    return {
        "wall_s": (statistics.fmean(map(round_seconds, rounds)), "s"),
        "op_p50_s": (statistics.median(op_means), "s"),
        "ok_frac": (sum(o.status == "ok" for o in every) / len(every), "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "answer_bits": (statistics.median(sum(o.bits for o in r) for r in rounds), "bit"),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "lfpsolve" / "cli.py").is_file():
        print(f"no lfpsolve sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        cli, ops, setup_s = set_up(workload, seed, workdir)
        verifiers = [remembering(op.reference()) for op in ops]
        rounds, traced_rounds = [], []
        tracer = spans.Tracer()
        start = perf_counter()
        while True:
            rounds.append(run_round(cli, ops, verifiers))
            if traced:
                tracer.install()
                try:
                    traced_rounds.append(run_round(cli, ops, verifiers))
                finally:
                    tracer.uninstall()
            elapsed = perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    every = [o for r in rounds + traced_rounds for o in r]
    failures: dict = {}
    for o in every:
        if o.status != "ok":
            failures.setdefault(o.status, set()).add(o.label)
    if traced:
        metrics = tracer.metrics(len(traced_rounds))
        overhead = statistics.fmean(map(round_seconds, traced_rounds)) - statistics.fmean(
            map(round_seconds, rounds)
        )
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = end_to_end(rounds, setup_s)
    wrong = sum(o.status == "wrong answer" for o in every)
    failed = sum(o.status != "ok" for o in every)

    backend = sys.modules["lfpsolve.ratmath"].RAT_BACKEND
    print(
        f"environment: python {platform.python_version()}, rational backend {backend}, "
        f"nproc {len(os.sched_getaffinity(0))}"
    )
    print(
        f"workload {workload}: seed {seed}, {len(ops)} operations per round, "
        f"{len(rounds)} rounds{f' + {len(traced_rounds)} traced' if traced else ''}, "
        f"{len(every)} operations timed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for status, labels in sorted(failures.items()):
        shown = ", ".join(sorted(labels)[:4]) + (", ..." if len(labels) > 4 else "")
        print(f"  failed: {status}: {len(labels)} operations ({shown})")
    print(f"correct: {'yes' if wrong == 0 else f'no, {wrong} wrong answers'}; {failed} of {len(every)} operations failed")
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(every),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def measure_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload, each in a fresh interpreter, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", "1" if traced else "0"]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return measure_all(args.seed, args.seconds, bool(args.trace))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
