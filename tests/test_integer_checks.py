"""The exact checks that run in integers over a system's common coefficient
denominator: the post-fixed-point test of the witnesses, the value iterate
behind the q*_min bound, the diagonal-pivot test of the q* = 1 pre-pass,
the Newton-direction step, and the residual of the Newton trace.  Each is
held to its rational form: exact ``mps.evaluate``, or the oracles of
``reference.py``."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from conftest import doubled_chain, random_p1ca, random_substochastic, univariate
from hypothesis import event, given, settings
from hypothesis import strategies as st
from reference import fraction_value_iterate, rational_pivots_pass

from lfpsolve import (
    Monomial,
    MonotoneSystem,
    RnmConfig,
    SingularMatrix,
    SolveOptions,
    run_rnm,
    solve,
    termination_probabilities,
    value_iterate,
)
from lfpsolve.driver import (
    _diagonal_pivots_pass,
    _is_post_fixed_point,
    _newton_direction_candidate,
    post_fixed_point_witness,
)
from lfpsolve.mps import eval_jacobian, evaluate
from lfpsolve.newton import newton_rows
from lfpsolve.oracle import lowest_terms, value_iterates
from lfpsolve.ratmath import identity_minus, round_down_dyadic, solve_integer, solve_linear

COEFFICIENTS = [Fraction(c) for c in ('1/3', '2/7', '1/2', '5/6', '3/5', '1', '4/9')]


@st.composite
def systems(draw, max_vars: int = 3, max_degree: int = 3):
    """Random systems of degree up to ``max_degree`` with non-dyadic
    coefficients."""
    n = draw(st.integers(1, max_vars))
    equations = []
    for _ in range(n):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            powers: dict = {}
            for _ in range(draw(st.integers(0, max_degree))):
                v = draw(st.integers(0, n - 1))
                powers[v] = powers.get(v, 0) + 1
            terms.append(Monomial(draw(st.sampled_from(COEFFICIENTS)), tuple(sorted(powers.items()))))
        equations.append(tuple(terms))
    return MonotoneSystem(tuple(f"x{i}" for i in range(n)), tuple(equations))


def _passes(sys: MonotoneSystem, y: list) -> bool:
    """P(y) <= y by exact ``mps.evaluate``."""
    return all(p <= yi for p, yi in zip(evaluate(sys, y), y))


def _exact_check(sys: MonotoneSystem, x: list, s: int) -> bool:
    return _passes(sys, [Fraction(xi, s) for xi in x])


# --- the post-fixed-point test -----------------------------------------------------


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), sys=systems())
def test_post_fixed_point_test_matches_exact_evaluation(data, sys):
    s = data.draw(st.sampled_from([1, 2, 3, 7, 12, 1 << 20, 3**15]))
    x = [data.draw(st.integers(0, 3 * s)) for _ in range(sys.n)]
    assert _is_post_fixed_point(sys, x, s) == _exact_check(sys, x, s)


def _seeded_system(rng: random.Random) -> MonotoneSystem:
    n = rng.randint(1, 3)
    equations = []
    for _ in range(n):
        terms = []
        for _ in range(rng.randint(1, 3)):
            powers: dict = {}
            for _ in range(rng.randint(0, 3)):
                v = rng.randrange(n)
                powers[v] = powers.get(v, 0) + 1
            coeff = rng.choice(COEFFICIENTS) / rng.choice([1, 2, 3])
            terms.append(Monomial(coeff, tuple(sorted(powers.items()))))
        equations.append(tuple(terms))
    return MonotoneSystem(tuple(f"x{i}" for i in range(n)), tuple(equations))


def test_random_points_take_both_outcomes():
    """The property above sees both answers: on these systems a random point
    of [0, 2] is a post-fixed point about a third of the time."""
    rng = random.Random(23)
    outcomes = []
    for _ in range(400):
        sys = _seeded_system(rng)
        s = rng.choice([1, 3, 10, 1 << 16, 5**9])
        x = [rng.randint(0, 2 * s) for _ in range(sys.n)]
        passed = _is_post_fixed_point(sys, x, s)
        assert passed == _exact_check(sys, x, s)
        outcomes.append(passed)
    assert 40 <= sum(outcomes) <= 360


# (system, rational fixed point, expected at -1 grid step, at +1 grid step)
FIXED_POINTS = {
    # critical: P(y) - y = (y - 2)**2 / 4 > 0 on both sides
    "x=x^2/4+1": (univariate("1/4", 0, 1), [Fraction(2)], False, False),
    # gambler's ruin, p = 2/3: P(y) - y = (y - 1/2)(2/3 y - 2/3) < 0 just above 1/2
    "gambler": (univariate("2/3", 0, "1/3"), [Fraction(1, 2)], False, True),
    "doubled_chain3": (doubled_chain(3), [Fraction(2)] * 3, False, False),
}


@pytest.mark.parametrize("name", sorted(FIXED_POINTS))
@pytest.mark.parametrize("s", [2, 6, 1 << 10, 3 << 40])
def test_post_fixed_point_test_at_and_beside_a_fixed_point(name, s):
    sys, q, below, above = FIXED_POINTS[name]
    at = [int(qi * s) for qi in q]
    assert _is_post_fixed_point(sys, at, s)
    assert _is_post_fixed_point(sys, [m - 1 for m in at], s) is below
    assert _is_post_fixed_point(sys, [m + 1 for m in at], s) is above
    for x in (at, [m - 1 for m in at], [m + 1 for m in at]):
        assert _is_post_fixed_point(sys, x, s) == _exact_check(sys, x, s)


# --- the value iterate ----------------------------------------------------------------


@settings(max_examples=120, derandomize=True, deadline=None)
@given(sys=systems(max_vars=4))
def test_value_iterate_matches_the_fraction_loop(sys):
    for k in range(sys.n + 1):
        assert value_iterate(sys, k) == fraction_value_iterate(sys, k)


def test_value_iterate_of_the_empty_system():
    empty = MonotoneSystem((), ())
    assert value_iterate(empty, 0) == fraction_value_iterate(empty, 0) == []
    assert value_iterate(empty, 3) == fraction_value_iterate(empty, 3) == []


def test_value_iterate_is_in_lowest_terms():
    """Every value has the reduced numerator and denominator of the rational
    loop's, not only an equal value."""
    sys = univariate("2/3", "1/6", "1/3")
    for k in range(6):
        pairs = [(v.numerator, v.denominator) for v in value_iterate(sys, k)]
        assert pairs == [(v.numerator, v.denominator) for v in fraction_value_iterate(sys, k)]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(sys=systems(max_vars=4))
def test_lowest_terms_and_the_shared_scale_match_the_fraction_loop(sys):
    # Both skip every gcd whose numerators share no factor with L; the
    # scale is still the lcm of the reduced denominators, and each pair is
    # the rational loop's reduced numerator and denominator.
    for k, (x, s) in zip(range(1, sys.n + 2), value_iterates(sys)):
        expected = fraction_value_iterate(sys, k)
        assert lowest_terms(sys, x, s) == [(v.numerator, v.denominator) for v in expected]
        assert s == lcm(1, *(v.denominator for v in expected))


# --- the diagonal-pivot test -----------------------------------------------------


def _z_matrix(rng: random.Random, n: int) -> list:
    rows = []
    for i in range(n):
        row = {j: -rng.randint(1, 4) for j in range(n) if j != i and rng.random() < 0.5}
        diagonal = rng.randint(-2, 8)
        if diagonal:
            row[i] = diagonal
        rows.append(row)
    return rows


def _both(rows: list) -> tuple:
    return (
        _diagonal_pivots_pass([dict(r) for r in rows]),
        rational_pivots_pass([{j: Fraction(v) for j, v in r.items()} for r in rows]),
    )


def test_pivot_test_matches_rational_elimination_on_random_z_matrices():
    rng = random.Random(5)
    outcomes = []
    for _ in range(600):
        rows = _z_matrix(rng, rng.randint(1, 6))
        integer, rational = _both(rows)
        assert integer == rational
        outcomes.append(integer)
    assert 30 <= sum(outcomes) <= 570


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([{0: 1, 1: -1}, {0: -1, 1: 1}], True),  # singular M-matrix: the last pivot is 0
        ([{0: 2, 1: -1, 2: -1}, {0: -1, 1: 2, 2: -1}, {0: -1, 1: -1, 2: 2}], True),  # last pivot 0
        ([{0: 3, 1: -1}, {0: -1, 1: 3}], True),  # non-singular M-matrix
        ([{1: -1}, {0: -1, 1: 1}], False),  # zero pivot before the last
        ([{0: 1, 1: -1}, {0: -1, 1: 1, 2: -1}, {1: -1, 2: 1}], False),  # second pivot 0, not last
        ([{0: 1, 1: -2}, {0: -2, 1: 1}], False),  # negative last pivot, 1 - 4
        ([{0: -1}], False),  # negative first pivot
        ([{}], True),  # a single zero pivot is the last
    ],
)
def test_pivot_test_on_chosen_matrices(rows, expected):
    assert _both(rows) == (expected, expected)


# --- the Newton-direction witness --------------------------------------------------


def _rational_steps(sys: MonotoneSystem, x: list, epsilon, h: int) -> list:
    """The two steps of the Newton-direction candidate in rationals, the
    half step first: d by ``solve_linear`` on I - B(x), then x +
    round_down(e d / max d) on the 2**-(h + 8) grid, 8 bits finer than the
    iterate's, for e = eps / 2 and e = eps; [] without a positive d."""
    try:
        d = solve_linear(identity_minus(eval_jacobian(sys, x)), [Fraction(1)] * sys.n)
    except SingularMatrix:
        return []
    if any(di <= 0 for di in d):
        return []
    return [
        [xi + round_down_dyadic(e / max(d) * di, h + 8).value() for xi, di in zip(x, d)]
        for e in (epsilon / 2, epsilon)
    ]


def _rational_direction(sys: MonotoneSystem, x: list, epsilon, h: int):
    """The Newton-direction candidate in rationals: the first of
    ``_rational_steps`` that passes the exact check, else None."""
    return next((y for y in _rational_steps(sys, x, epsilon, h) if _passes(sys, y)), None)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 5),
    h=st.integers(8, 40),
    epsilon=st.sampled_from(
        [Fraction(1, 1 << 6), Fraction(1, 3 << 10), Fraction(5, 7 << 12), Fraction(1, 1 << 20)]
    ),
)
def test_accepted_newton_direction_is_within_epsilon(seed, n, h, epsilon):
    sys = random_substochastic(random.Random(seed), n)
    lower, _ = run_rnm(sys, RnmConfig(h, h), keep_trace=False)
    x = [dy.value() for dy in lower]
    y = _newton_direction_candidate(sys, [d.mantissa for d in lower], epsilon, h)
    event("accepted" if y is not None else "rejected")
    assert y == _rational_direction(sys, x, epsilon, h)
    if y is not None:
        assert all(0 <= yi - xi <= epsilon for xi, yi in zip(x, y))
        assert _passes(sys, y)


def test_newton_direction_is_accepted_on_most_runs():
    """The property above is not vacuous: on these grids most random
    substochastic systems get a Newton-direction witness."""
    accepted = 0
    for seed in range(30):
        sys = random_substochastic(random.Random(seed), 4)
        lower, _ = run_rnm(sys, RnmConfig(32, 32), keep_trace=False)
        accepted += _newton_direction_candidate(sys, [d.mantissa for d in lower], Fraction(1, 3 << 10), 32) is not None
    assert accepted >= 20


def test_singular_newton_direction_falls_back_to_the_simplest_candidate():
    # x = x^2/2 + 1/2 at its critical q* = 1 (mantissa 1 << h): I - B(1) = 0,
    # so there is no direction d, and the simplest rational in [1, 1 + eps]
    # is 1 itself, a fixed point.
    sys, h, epsilon = univariate("1/2", 0, "1/2"), 20, Fraction(1, 1 << 16)
    assert _newton_direction_candidate(sys, [1 << h], epsilon, h) is None
    assert post_fixed_point_witness(sys, [1 << h], epsilon, h) == [1]


def _witness_calls(monkeypatch, run, *args) -> tuple:
    """run(*args)'s result, and (sys, x, epsilon, h, y) of every
    Newton-direction candidate that it tries, x the grid's iterate and y the
    candidate or None."""
    calls = []

    def recording(sys, m, epsilon, h):
        y = _newton_direction_candidate(sys, m, epsilon, h)
        calls.append((sys, [Fraction(mi, 1 << h) for mi in m], epsilon, h, y))
        return y

    with monkeypatch.context() as patch:
        patch.setattr("lfpsolve.driver._newton_direction_candidate", recording)
        result = run(*args)
    return result, calls


@pytest.mark.parametrize("bits", [16, 30])
def test_half_step_is_the_witness_wherever_it_passes(bits, monkeypatch):
    # Over generated traffic: wherever the half step passes the exact check,
    # it is the witness, so every coordinate has y_i - x_i <= eps / 2 and
    # every answer interval [y - eps, x] is at least about eps / 2 wide.
    eps = Fraction(1, 1 << bits)

    def traffic():
        for seed in range(40):
            for n in (2, 3, 4):
                solve(random_substochastic(random.Random(seed), n), eps, SolveOptions(qmax_exponent_assert=0))
        for seed in range(6):
            for r in (1, 2, 3, 4):
                termination_probabilities(random_p1ca(random.Random(seed), r), eps)

    half_passed = 0
    _, calls = _witness_calls(monkeypatch, traffic)
    for sys, x, epsilon, h, y in calls:
        steps = _rational_steps(sys, x, epsilon, h)
        if steps and _passes(sys, steps[0]):
            half_passed += 1
            assert y is not None
            assert all(0 <= yi - xi <= epsilon / 2 for xi, yi in zip(x, y))
            assert y == steps[0]
    assert half_passed >= 120


def _full_step_case(monkeypatch):
    """The first Newton-direction call of random_substochastic(Random(30),
    2) at 2**-16 under the probability flag, and its report."""
    system = random_substochastic(random.Random(30), 2)
    options = SolveOptions(qmax_exponent_assert=0)
    report, calls = _witness_calls(monkeypatch, solve, system, Fraction(1, 1 << 16), options)
    return calls[0], report


def test_full_step_is_the_witness_where_the_half_step_fails(monkeypatch):
    # The half step fails the exact check here, and the full step along the
    # same d certifies the first grid, 18; without it the ladder climbs.
    (sys, x, epsilon, h, y), report = _full_step_case(monkeypatch)
    half, full = _rational_steps(sys, x, epsilon, h)
    assert not _passes(sys, half) and _passes(sys, full)
    assert y == full
    assert report.certificate.kind == "witness" and report.certificate.attempted_h == (18,)
    assert max(yi - xi for xi, yi in zip(x, y)) > epsilon / 2


def test_both_steps_share_one_linear_solve(monkeypatch):
    # The full step reuses the half step's d: one solve_integer per call,
    # whether one exact check runs or two.
    (sys, x, epsilon, h, _), _ = _full_step_case(monkeypatch)
    counts = {"solve": 0, "check": 0}

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr("lfpsolve.driver.solve_integer", counted("solve", solve_integer))
    monkeypatch.setattr("lfpsolve.driver._is_post_fixed_point", counted("check", _is_post_fixed_point))
    one_step = univariate("1/4", 0, "1/2")  # q* = 2 - sqrt(2), far from critical
    lower, _ = run_rnm(one_step, RnmConfig(20, 20), keep_trace=False)
    for system, m, grid, checks in (
        (sys, [int(xi * (1 << h)) for xi in x], h, 2),
        (one_step, [d.mantissa for d in lower], 20, 1),
    ):
        counts.update(solve=0, check=0)
        assert _newton_direction_candidate(system, m, epsilon, grid) is not None
        assert counts == {"solve": 1, "check": checks}


# --- the trace residual ------------------------------------------------------------


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data(), sys=systems(max_degree=2), h=st.integers(0, 40))
def test_trace_residual_is_the_exact_sup_norm(data, sys, h):
    """Every residual of a kept trace is max_i |P_i(x) - x_i| with exact
    ``mps.evaluate``, at the iterates of ``run_rnm`` (h >= 1); and at any
    grid point, on and above q* (h = 0 included), ``newton_rows``' r_i over
    s 2**h, which the residual reads, is P_i(x) - x_i."""
    event(f"degree {sys.degree()}")
    records = []
    if h:
        try:
            records += run_rnm(sys, RnmConfig(h, data.draw(st.integers(1, 6))), keep_trace=True)[1].records
        except SingularMatrix:
            pass
    for record in records:
        x = [d.value() for d in record.iterate]
        assert record.residual == max(abs(p - xi) for p, xi in zip(evaluate(sys, x), x))
    m = [data.draw(st.integers(0, 3 << h)) for _ in range(sys.n)]
    x = [Fraction(mi, 1 << h) for mi in m]
    _, rhs = newton_rows(sys, m, h)
    scale = sys.integer_form.back_scale(1 << h) << h
    assert [Fraction(r, scale) for r in rhs] == [p - xi for p, xi in zip(evaluate(sys, x), x)]
