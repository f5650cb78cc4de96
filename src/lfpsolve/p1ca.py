"""Probabilistic one-counter automata: model, validation, the termination
probability equation system, and the polynomial-time solver wrapper.

The termination probabilities q*_{uv} (first hit of counter 0 in state v,
starting from (u, 1)) are the least-fixed-point solution of a quadratic
system over one variable per state pair:

    x_uv = p^(-1)_uv + sum_w p^(0)_uw x_wv + sum_y p^(1)_uy sum_z x_yz x_zv

where p^(j) are the positive-counter transition probabilities.  These
systems have nonlinear depth at most 1, which is what makes a certified
polynomial-size rounding parameter possible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .driver import DEFAULT_MAX_H, SolveOptions, SolveReport, solve
from .errors import InvalidModel, ParseError, StructureViolation
from .mps import Monomial, MonotoneSystem
from .ratmath import ONE, ceil_log2, rat, rat_str

# Unused here; perfbench/spans.py times these at this module's imports.
from .decomposition import build_graph, decompose
from .mps import clean, detect_zero_variables

PAIR_SEP = "→"  # arrow in generated variable names "u->v"


@dataclass(frozen=True)
class Transition:
    source: str
    probability: object
    counter_delta: int
    target: str


@dataclass(frozen=True)
class P1CA:
    """Control states plus transition tables for positive and zero counter."""

    states: tuple
    delta: tuple  # active when the counter is positive; delta in {-1, 0, +1}
    delta0: tuple  # active at counter zero; delta in {0, +1}


def validate(model: P1CA) -> list:
    """Every invariant violation in the model, as human-readable strings."""
    problems = []
    if len(set(model.states)) != len(model.states):
        problems.append("duplicate state names")
    if any(not isinstance(s, str) or not s for s in model.states):
        problems.append("state names must be non-empty strings")
    known = set(model.states)

    def check_table(table, name, allowed):
        sums = {s: None for s in model.states}
        for t in table:
            if t.source not in known:
                problems.append(f"{name}: unknown source state {t.source!r}")
                continue
            if t.target not in known:
                problems.append(f"{name}: unknown target state {t.target!r}")
            if t.counter_delta not in allowed:
                problems.append(
                    f"{name}: counter move {t.counter_delta} from {t.source!r} not in {sorted(allowed)}"
                )
            if t.probability <= 0:
                problems.append(f"{name}: non-positive probability on {t.source!r}")
                continue
            sums[t.source] = t.probability if sums[t.source] is None else sums[t.source] + t.probability
        for state, total in sums.items():
            if total is not None and total > 1:
                problems.append(f"{name}: probabilities from {state!r} sum to {rat_str(total)} > 1")

    check_table(model.delta, "delta", {-1, 0, 1})
    check_table(model.delta0, "delta0", {0, 1})
    return problems


def require_valid(model: P1CA) -> None:
    problems = validate(model)
    if problems:
        raise InvalidModel(problems)


# --- JSON wire format -----------------------------------------------------------
#
#   {"states": [name, ...],
#    "delta":  [{"from": u, "p": "p/q", "k": -1|0|1, "to": v}, ...],
#    "delta0": [{"from": u, "p": "p/q", "k": 0|1,    "to": v}, ...]}


def parse_p1ca(text: str) -> P1CA:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the int-from-str limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    extra = set(doc) - {"states", "delta", "delta0"}
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra)}")
    states = doc.get("states")
    if not isinstance(states, list) or any(not isinstance(s, str) for s in states):
        raise ParseError('"states" must be a list of strings')

    def read_table(key):
        table = doc.get(key, [])
        if not isinstance(table, list):
            raise ParseError(f'"{key}" must be a list')
        out = []
        for entry in table:
            if not isinstance(entry, dict) or set(entry) != {"from", "p", "k", "to"}:
                raise ParseError(f'"{key}" entries need exactly "from", "p", "k", "to"')
            if not isinstance(entry["from"], str) or not isinstance(entry["to"], str):
                raise ParseError(f'"{key}": "from" and "to" must be state names')
            if not isinstance(entry["p"], str):
                raise ParseError(f'"{key}": probability must be a "p/q" string')
            try:
                prob = rat(entry["p"])
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            k = entry["k"]
            if not isinstance(k, int) or isinstance(k, bool):
                raise ParseError(f'"{key}": counter move must be an integer')
            out.append(Transition(entry["from"], prob, k, entry["to"]))
        return tuple(out)

    return P1CA(tuple(states), read_table("delta"), read_table("delta0"))


def p1ca_to_json(model: P1CA) -> dict:
    def table(entries):
        return [
            {"from": t.source, "p": rat_str(t.probability), "k": t.counter_delta, "to": t.target}
            for t in entries
        ]

    return {"states": list(model.states), "delta": table(model.delta), "delta0": table(model.delta0)}


# --- the termination-probability system ------------------------------------------


def pair_name(u: str, v: str) -> str:
    return f"{u}{PAIR_SEP}{v}"


def build_termination_mps(model: P1CA) -> MonotoneSystem:
    """The quadratic system whose LFP is the matrix of termination
    probabilities; one variable per ordered state pair.

    Only positive-counter transitions enter the equations; the zero-counter
    table is irrelevant to first hitting counter 0.
    """
    require_valid(model)
    states = model.states
    r = len(states)
    index = {s: i for i, s in enumerate(states)}
    probs: dict[int, dict] = {-1: {}, 0: {}, 1: {}}
    for t in model.delta:
        key = (index[t.source], index[t.target])
        bucket = probs[t.counter_delta]
        bucket[key] = bucket.get(key, 0) + t.probability

    def var(u: int, v: int) -> int:
        return u * r + v

    names = tuple(pair_name(states[u], states[v]) for u in range(r) for v in range(r))
    equations = []
    for u in range(r):
        for v in range(r):
            terms = []
            drop = probs[-1].get((u, v))
            if drop is not None:
                terms.append(Monomial(drop, ()))
            for w in range(r):
                stay = probs[0].get((u, w))
                if stay is not None:
                    terms.append(Monomial(stay, ((var(w, v), 1),)))
            for y in range(r):
                up = probs[1].get((u, y))
                if up is None:
                    continue
                for z in range(r):
                    a, b = var(y, z), var(z, v)
                    if a == b:
                        terms.append(Monomial(up, ((a, 2),)))
                    else:
                        terms.append(Monomial(up, tuple(sorted(((a, 1), (b, 1))))))
            equations.append(tuple(terms))
    return MonotoneSystem(names, tuple(equations))


def max_prob_bits(model: P1CA) -> int:
    """Largest numerator/denominator bit length over all probabilities."""
    worst = 1
    for p in (t.probability for t in model.delta + model.delta0):
        worst = max(worst, p.numerator.bit_length(), p.denominator.bit_length())
    return worst


def rounding_params(model: P1CA, epsilon) -> dict:
    """The certified rounding parameter for the termination system.

    h = 8 m r^7 + 2 m r^5 + 9 r^4 + 3 + ceil(2 log2(1/eps)), where m is the
    probability bit width; the r^4 term follows the derivation (the headline
    statement's 9 r^2 is the looser-looking but unproven variant, reported
    alongside for comparison).  g = h - 1 on nonlinear components, one solve
    on linear ones.
    """
    r = len(model.states)
    m = max_prob_bits(model)
    eps = rat(epsilon)
    tail = 3 + ceil_log2((ONE / eps) ** 2)  # exact ceil(2 log2(1/eps))
    base = 8 * m * r**7 + 2 * m * r**5
    return {
        "r": r,
        "m": m,
        "h": base + 9 * r**4 + tail,
        "h_headline_variant": base + 9 * r**2 + tail,
    }


@dataclass(frozen=True)
class GMatrix:
    """Exact rational approximations of the termination probabilities q*_{uv}.

    ``entries[u][v]`` approximates the probability of first hitting counter
    zero in state v from (u, 1); masked pairs are exactly zero.
    """

    states: tuple
    entries: tuple  # r x r of rationals, read from ``report.approximation``
    epsilon: object
    zero_mask: tuple  # r x r of bool, True where q*_{uv} == 0 exactly
    params: dict
    report: SolveReport


def termination_probabilities(
    model: P1CA,
    epsilon,
    mode: str = "certified",
    max_h: int = DEFAULT_MAX_H,
    keep_traces: bool = False,
) -> GMatrix:
    """Approximate the full G-matrix to within epsilon, coordinatewise.

    Both modes look for a post-fixed-point witness, as ``solve`` does.
    Without one, certified mode runs the closed-form rounding parameter
    above (feasible because nonlinear depth is at most 1 and q*_min is at
    worst c_min**(r^3)), and adaptive mode stops where two grids agree.
    ``max_h`` bounds every grid, the closed-form one included: when no
    witness is found below it and the closed-form h is above it,
    ParamsInfeasible is raised.  The zero mask and the nonlinear depth guard
    read the report of ``solve``, which derives both.
    """
    system = build_termination_mps(model)  # validates the model first
    eps = rat(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must be in (0, 1)")
    params = rounding_params(model, eps)
    options = SolveOptions(
        mode=mode,
        qmax_exponent_assert=0,  # termination probabilities are at most 1
        use_snf=False,  # the system is already quadratic; the certified h is stated for it
        theorem_h=params["h"],
        max_h=max_h,
        keep_traces=keep_traces,
    )
    report = solve(system, eps, options)
    f = report.info.get("nonlinear_depth", 0)  # absent when nothing is left to iterate
    if f > 1:
        raise StructureViolation(
            f"termination system has nonlinear depth {f} > 1; "
            "this cannot happen for a one-counter automaton"
        )

    r = len(model.states)
    entries = tuple(
        tuple(report.approximation[u * r + v] for v in range(r)) for u in range(r)
    )
    zeros = set(report.info["removed_zero_variables"])  # pair names are unique
    mask = tuple(
        tuple(system.names[u * r + v] in zeros for v in range(r)) for u in range(r)
    )
    return GMatrix(tuple(model.states), entries, eps, mask, params, report)
