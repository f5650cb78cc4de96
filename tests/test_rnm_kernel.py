"""Property tests: ``run_rnm`` gives the same iterates, the same step count
and the same exception as rounded Newton written from the exact rational
operator ``newton_step`` and ``round_down_dyadic``, on random quadratic
systems with zero diagonals and singular I - B among them; and a run on one
component, read in place, matches a run on the system that ``restrict``
builds for it; and each iterate's rows are built once."""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

from conftest import univariate
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lfpsolve import (
    DivergenceCertified,
    Dyadic,
    MonotoneSystem,
    RnmConfig,
    SingularMatrix,
    SolveOptions,
    make_monomial,
    newton_step,
    rat,
    round_down_dyadic,
    run_rnm,
    solve,
    system_of,
)
from lfpsolve.mps import restrict
from lfpsolve.newton import newton_rows

COEFFICIENTS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2)]


@st.composite
def quadratic_systems(draw):
    """Random quadratic systems, not necessarily with a finite LFP: a linear
    self-term with coefficient 1 zeroes a diagonal of I - B, and equal rows
    make it singular."""
    n = draw(st.integers(1, 6))
    var = st.integers(0, n - 1)
    terms = [st.just({}), var.map(lambda v: {v: 1}), var.map(lambda v: {v: 2})]
    if n > 1:
        terms.append(st.lists(var, min_size=2, max_size=2, unique=True).map(lambda p: dict.fromkeys(p, 1)))
    term = st.one_of(terms)
    equations = []
    for _ in range(n):
        powers = draw(st.lists(term, max_size=4, unique_by=lambda p: tuple(sorted(p.items()))))
        equations.append(tuple(make_monomial(draw(st.sampled_from(COEFFICIENTS)), p) for p in powers))
    return MonotoneSystem(tuple(f"x{i}" for i in range(n)), tuple(equations))


def exact_rounded_newton(sys, h, g, divergence_exponent):
    """Rounded Newton written from the exact operator: the outcome and the
    iterates from 0 on, or the exception raised."""
    x = tuple(Dyadic(0, h) for _ in range(sys.n))
    iterates = [x]
    try:
        for k in range(1, g + 1):
            nxt = tuple(round_down_dyadic(v, h) for v in newton_step(sys, [d.value() for d in x]))
            if nxt == x:
                return ("steps", k, iterates)
            x = nxt
            if divergence_exponent is not None and any(d.value() > Fraction(2) ** divergence_exponent for d in x):
                return ("DivergenceCertified", k)
            iterates.append(x)
    except SingularMatrix as exc:
        return ("SingularMatrix", str(exc))
    return ("steps", g, iterates)


def kernel_rounded_newton(sys, h, g, divergence_exponent):
    try:
        final, trace = run_rnm(sys, RnmConfig(h, g), divergence_exponent=divergence_exponent)
    except SingularMatrix as exc:
        return ("SingularMatrix", str(exc))
    except DivergenceCertified as exc:
        return ("DivergenceCertified", int(str(exc).split()[1]))
    iterates = [record.iterate for record in trace.records]
    assert iterates[-1] == final
    return ("steps", trace.steps, iterates)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    sys=quadratic_systems(),
    h=st.integers(3, 80),
    g=st.integers(1, 40),
    divergence_exponent=st.one_of(st.none(), st.integers(-2, 6)),
)
@example(sys=univariate(0, 1, 1), h=8, g=5, divergence_exponent=None)  # x = x + 1
@example(  # x0 = x1 + 1/2, x1 = x0: zero diagonal, singular I - B
    sys=system_of(["a", "b"], [("1", {"b": 1}), ("1/2", {})], [("1", {"a": 1})]),
    h=10,
    g=4,
    divergence_exponent=None,
)
def test_kernel_matches_exact_loop(sys, h, g, divergence_exponent):
    expected = exact_rounded_newton(sys, h, g, divergence_exponent)
    event(expected[0])
    assert kernel_rounded_newton(sys, h, g, divergence_exponent) == expected


def outcome(run):
    """Iterates, step count and trace residuals of run(), or the type and
    message of the exception it raised."""
    try:
        final, trace = run()
    except (SingularMatrix, DivergenceCertified) as exc:
        return (type(exc).__name__, str(exc))
    records = [(record.k, record.iterate, record.residual) for record in trace.records]
    return ("steps", final, trace.steps, records)


@st.composite
def components(draw):
    """A system, a member set, and non-negative input mantissas on grid h
    (the members' entries are noise, which the component run never reads)."""
    sys = draw(quadratic_systems())
    members = sorted(draw(st.sets(st.integers(0, sys.n - 1), min_size=1)))
    h = draw(st.integers(1, 40))
    mantissas = draw(st.lists(st.integers(0, 3 << h), min_size=sys.n, max_size=sys.n))
    return sys, members, h, mantissas


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    case=components(),
    g=st.integers(1, 20),
    divergence_exponent=st.one_of(st.none(), st.integers(-3, 3)),
)
def test_component_run_matches_restricted_system(case, g, divergence_exponent):
    sys, members, h, mantissas = case
    values = [rat(mi, 1 << h) for mi in mantissas]
    sub = restrict(sys, members, values)
    cfg = RnmConfig(h, g)
    expected = outcome(lambda: run_rnm(sub, cfg, divergence_exponent=divergence_exponent))
    event(expected[0])
    vector = list(mantissas)
    got = outcome(
        lambda: run_rnm(
            sys, cfg, divergence_exponent=divergence_exponent, members=members, mantissas=vector
        )
    )
    assert got == expected
    if expected[0] == "steps":
        final = expected[1]
        assert [vector[v] for v in members] == [d.mantissa for d in final]
        outside = [i for i in range(sys.n) if i not in members]
        assert [vector[i] for i in outside] == [mantissas[i] for i in outside]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=components(), g=st.integers(1, 20), keep_trace=st.booleans())
def test_each_iterate_builds_its_rows_once(case, g, keep_trace):
    """One ``newton_rows`` build per iterate serves both its trace record and
    its next step, so a kept trace builds exactly one per record; without a
    trace every computed step builds once, and the rows after the last step
    are never built."""
    sys, members, h, mantissas = case
    builds = []

    def counting_rows(*args):
        builds.append(args)
        return newton_rows(*args)

    with mock.patch("lfpsolve.newton.newton_rows", counting_rows):
        try:
            cfg = RnmConfig(h, g)
            _, trace = run_rnm(sys, cfg, keep_trace=keep_trace, members=members, mantissas=list(mantissas))
        except SingularMatrix:
            return
    event("pinned" if trace.steps < g else "ran g steps")
    assert len(builds) == (len(trace.records) if keep_trace else trace.steps)


def test_restrict_runs_at_most_once_per_solve(monkeypatch):
    # a has q* = 1 (a critical chain link the pre-pass proves); b0 and b1
    # are a doubled chain fed by a, and c is linear on top.  Three grids
    # run three components each, and only the q* = 1 reduction substitutes.
    system = system_of(
        ["a", "b0", "b1", "c"],
        [("1/2", {"a": 2}), ("1/2", {})],
        [("1/4", {"b0": 2}), ("1", {"a": 1})],
        [("1/4", {"b1": 2}), ("1/2", {"b0": 1})],
        [("1/3", {"c": 1}), ("1/3", {"b1": 1}), ("1/8", {})],
    )
    calls = []

    def counting_restrict(*args):
        calls.append(args)
        return restrict(*args)

    monkeypatch.setattr("lfpsolve.driver.restrict", counting_restrict)
    for mode in ("certified", "adaptive"):
        calls.clear()
        report = solve(system, rat(1, 2**16), SolveOptions(mode=mode))
        assert len(report.certificate.attempted_h) == 3
        assert [run.iterations > 0 for run in report.scc_runs] == [False, True, True, True]
        assert len(calls) == 1
    calls.clear()
    solve(system_of(["x"], [("1/4", {"x": 2}), ("1/2", {})]), rat(1, 2**16))
    assert calls == []
