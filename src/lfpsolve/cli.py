"""Command-line entry point.

Reads model JSON from a file (or standard input with "-"), writes result
JSON to standard output, and keeps diagnostics and iteration traces on
standard error, so pipelines stay scriptable.  All numeric flags are exact
rationals ("p/q"); there are no decimal-float inputs anywhere, so
certificates are never polluted by binary/decimal conversion.

Exit codes: 0 success, 1 parse/validation failure, 2 divergence certified,
3 singular Newton step, 4 certified parameters infeasible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .decomposition import build_graph, decompose
from .driver import DEFAULT_MAX_H, SolveOptions, SolveReport, compute_bounds, solve
from .errors import (
    DegreeTooHigh,
    DivergenceCertified,
    InvalidModel,
    NotMonotone,
    ParamsInfeasible,
    ParseError,
    SingularMatrix,
    StructureViolation,
)
from .mps import clean, json_text, parse_mps, to_snf
from .mps import system_to_json  # unused here; perfbench/spans.py times it at this import
from .p1ca import parse_p1ca, termination_probabilities, validate
from .oracle import lowest_terms, value_iterates
from .ratmath import Rat, parse_rat, rat_str

SCHEMA_VERSIONS = {"mps": 1, "p1ca": 1, "solve-report": 1, "g-matrix": 1}


def _value_iter_bit_budget() -> int:
    """The most bits an exact value iterate may have and still print.

    CPython refuses to print an integer of more than
    ``sys.get_int_max_str_digits()`` digits, a per-process setting, and every
    integer below 2**b has at most d digits when 2**b <= 10**d.  Read at call
    time.  A limit of 0 (none) still gets the default 4300 digits (14284
    bits) as a work cap, because exact iterates can double in size every
    step; so does a Python without the setting.
    """
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    return (10**digits).bit_length() - 1


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(obj) -> None:
    sys.stdout.write(json_text(obj) + "\n")


def _epsilon(args):
    eps = parse_rat(args.epsilon)
    if not 0 < eps < 1:
        raise ValueError("--epsilon must be a rational in (0, 1)")
    return eps


def _certificate_json(report: SolveReport) -> dict:
    """The report's certificate; a witness lists its post-fixed point per
    input variable, which P(y) <= y re-checks with no solver code."""
    cert = report.certificate
    out = {"kind": cert.kind, "attempted_h": list(cert.attempted_h)}
    if cert.exact_one:
        out["exact_one"] = list(cert.exact_one)
    if cert.upper is not None:
        out["post_fixed_point"] = {
            name: rat_str(value) for name, value in zip(report.names, cert.upper)
        }
    return out


def _report_json(report: SolveReport) -> dict:
    return {
        "status": report.status,
        "epsilon": rat_str(report.epsilon),
        "vars": list(report.names),
        "approximation": [rat_str(a) for a in report.approximation],
        "grid_bits": report.params.h,
        "params": {
            "mode": report.params.mode,
            "h": report.params.h,
            "g": report.params.g,
            "u": report.params.u,
            "alpha": rat_str(report.params.alpha),
        },
        "bounds": {
            "qmin_lower": rat_str(report.bounds.qmin_lower),
            "qmin_source": report.bounds.qmin_source,
            "qmax_upper_exponent": report.bounds.qmax_exponent,
            "qmax_source": report.bounds.qmax_source,
        },
        "sccs": [
            {
                "vars": list(run.names),
                "nonlinear": run.nonlinear,
                "iterations": run.iterations,
            }
            for run in report.scc_runs
        ],
        "info": report.info,
        "certificate": _certificate_json(report),
    }


def _emit_traces(report: SolveReport) -> None:
    for run in report.scc_runs:
        if run.trace is None:
            continue
        for record in run.trace.records:
            line = {
                "scc": list(run.names),
                "k": record.k,
                "x": [rat_str(d.value()) for d in record.iterate],
                "residual": rat_str(record.residual),
            }
            sys.stderr.write(json.dumps(line) + "\n")


def _removed_names(system, kept) -> list:
    kept_set = set(kept)
    return [name for i, name in enumerate(system.names) if i not in kept_set]


def _cmd_solve(args) -> int:
    system = parse_mps(_read_input(args.input))
    options = SolveOptions(
        mode=args.mode,
        qmax_exponent_assert=0 if args.assume_prob else None,
        use_snf=not args.no_snf,
        h_override=args.h,
        g_override=args.iters,
        max_h=args.max_h,
        keep_traces=args.trace,
    )
    report = solve(system, _epsilon(args), options)
    if args.trace:
        _emit_traces(report)
    _emit(_report_json(report))
    return 0


def _cmd_clean(args) -> int:
    system = parse_mps(_read_input(args.input))
    cleaned, kept = clean(system)
    _emit({"system": cleaned, "removed": _removed_names(system, kept), "kept_indices": list(kept)})
    return 0


def _cmd_snf(args) -> int:
    system = parse_mps(_read_input(args.input))
    snf = to_snf(system)
    _emit(
        {
            "system": snf.system,
            "forms": list(snf.forms),
            "projection": {name: snf.system.names[i] for i, name in enumerate(system.names)},
        }
    )
    return 0


def _cmd_decompose(args) -> int:
    system = parse_mps(_read_input(args.input))
    cleaned, kept = clean(system)
    decomp = decompose(build_graph(cleaned), cleaned)
    _emit(
        {
            "removed_zero_variables": _removed_names(system, kept),
            "sccs": [
                {
                    "vars": [cleaned.names[v] for v in scc.vars],
                    "nonlinear": scc.nonlinear,
                    "height": scc.height,
                    "nonlinear_height": scc.nonlinear_height,
                }
                for scc in decomp.sccs
            ],
            "depth": decomp.depth,
            "nonlinear_depth": decomp.nonlinear_depth,
        }
    )
    return 0


def _cmd_bounds(args) -> int:
    system = parse_mps(_read_input(args.input))
    snf_applied = system.degree() > 2
    cleaned, _ = clean(to_snf(system).system if snf_applied else system)
    if cleaned.n == 0:
        _emit({"empty_after_cleaning": True, "snf_applied": snf_applied})
        return 0
    options = SolveOptions(qmax_exponent_assert=0 if args.assume_prob else None)
    bounds = compute_bounds(cleaned, options)
    _emit(
        {
            "qmin_lower": rat_str(bounds.qmin_lower),
            "qmin_source": bounds.qmin_source,
            "qmax_upper_exponent": bounds.qmax_exponent,
            "qmax_source": bounds.qmax_source,
            "snf_applied": snf_applied,
        }
    )
    return 0


def _cmd_value_iter(args) -> int:
    system = parse_mps(_read_input(args.input))
    if args.steps < 0:
        raise ValueError("--steps must be >= 0")
    budget = _value_iter_bit_budget()
    iterate = [(0, 1)] * system.n
    for step, (numerators, scale) in zip(range(1, args.steps + 1), value_iterates(system)):
        iterate = lowest_terms(system, numerators, scale)
        if any(max(p.bit_length(), q.bit_length()) > budget for p, q in iterate):
            raise ValueError(
                f"value iterate {step} has a numerator or denominator of more than "
                f"{budget} bits; stopped before step {step + 1}"
            )
    _emit({"steps": args.steps, "iterate": [rat_str(Rat(p, q)) for p, q in iterate]})
    return 0


def _cmd_p1ca_term(args) -> int:
    model = parse_p1ca(_read_input(args.input))
    result = termination_probabilities(model, _epsilon(args), mode=args.mode, keep_traces=args.trace)
    if args.trace:
        _emit_traces(result.report)
    _emit(
        {
            "states": list(result.states),
            "epsilon": rat_str(result.epsilon),
            "entries": [[rat_str(a) for a in row] for row in result.entries],
            "zero_mask": [list(row) for row in result.zero_mask],
            "params": result.params,
            "status": result.report.status,
            "certificate": _certificate_json(result.report),
        }
    )
    return 0


def _cmd_p1ca_validate(args) -> int:
    model = parse_p1ca(_read_input(args.input))
    problems = validate(model)
    _emit({"ok": not problems, "violations": problems})
    return 0 if not problems else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfpsolve",
        description="Certified least-fixed-point solver for monotone polynomial systems.",
    )
    versions = ", ".join(f"{k}={v}" for k, v in sorted(SCHEMA_VERSIONS.items()))
    version = f"lfpsolve {__version__} (schemas: {versions})"
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help='model JSON file, or "-" for standard input')

    p_solve = sub.add_parser("solve", help="approximate the least fixed point")
    add_input(p_solve)
    p_solve.add_argument("--epsilon", required=True, help='additive error bound, rational "p/q"')
    p_solve.add_argument("--mode", choices=["certified", "adaptive"], default="certified")
    p_solve.add_argument(
        "--assume-prob",
        action="store_true",
        help="assert the LFP is a vector of probabilities (q* <= 1)",
    )
    p_solve.add_argument("--h", type=int, default=None, help="manual rounding parameter override")
    p_solve.add_argument("--iters", type=int, default=None, help="iteration count on the --h grid")
    p_solve.add_argument("--no-snf", action="store_true", help="skip simple-normal-form conversion")
    p_solve.add_argument("--trace", action="store_true", help="emit per-iteration JSON lines on stderr")
    p_solve.add_argument("--max-h", type=int, default=DEFAULT_MAX_H, help="ceiling for the certified h")
    p_solve.set_defaults(func=_cmd_solve)

    p_clean = sub.add_parser("clean", help="remove variables whose LFP coordinate is 0")
    add_input(p_clean)
    p_clean.set_defaults(func=_cmd_clean)

    p_snf = sub.add_parser("snf", help="convert to simple normal form")
    add_input(p_snf)
    p_snf.set_defaults(func=_cmd_snf)

    p_dec = sub.add_parser("decompose", help="dependency SCCs, depth, nonlinear depth")
    add_input(p_dec)
    p_dec.set_defaults(func=_cmd_decompose)

    p_bounds = sub.add_parser("bounds", help="certified bounds on q*_min and q*_max")
    add_input(p_bounds)
    p_bounds.add_argument("--assume-prob", action="store_true")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_vi = sub.add_parser("value-iter", help="exact value iteration from 0")
    add_input(p_vi)
    p_vi.add_argument("--steps", type=int, required=True)
    p_vi.set_defaults(func=_cmd_value_iter)

    p_term = sub.add_parser("p1ca-term", help="termination probabilities of a p1CA")
    add_input(p_term)
    p_term.add_argument("--epsilon", required=True, help='additive error bound, rational "p/q"')
    p_term.add_argument("--mode", choices=["certified", "adaptive"], default="certified")
    p_term.add_argument("--trace", action="store_true")
    p_term.set_defaults(func=_cmd_p1ca_term)

    p_val = sub.add_parser("p1ca-validate", help="check a p1CA model")
    add_input(p_val)
    p_val.set_defaults(func=_cmd_p1ca_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first ``main`` call and reused by
    every later one in the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError, NotMonotone, InvalidModel, DegreeTooHigh, StructureViolation, ValueError, OSError
    ) as exc:
        _fail(exc)
        return 1
    except DivergenceCertified as exc:
        _fail(exc, status="diverged")
        return 2
    except SingularMatrix as exc:
        _fail(exc, status="singular")
        return 3
    except ParamsInfeasible as exc:
        _fail(exc)
        return 4


def _fail(exc: Exception, status: str | None = None) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, InvalidModel):
        payload["error"]["violations"] = exc.violations
    if status is not None:
        payload["status"] = status
    _emit(payload)
    sys.stderr.write(f"{type(exc).__name__}: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
