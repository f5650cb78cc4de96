"""The exact checks that run in integers over a system's common coefficient
denominator: the post-fixed-point test of the witnesses, the value iterate
behind the q*_min bound, the diagonal-pivot test of the q* = 1 pre-pass,
the Newton-direction step, and the residual of the Newton trace.  Each is
held to its rational form: exact ``mps.evaluate``, or the oracles of
``reference.py``."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import doubled_chain, random_substochastic, univariate
from hypothesis import event, given, settings
from hypothesis import strategies as st
from reference import fraction_value_iterate, rational_pivots_pass

from lfpsolve import Monomial, MonotoneSystem, RnmConfig, SingularMatrix, run_rnm, value_iterate
from lfpsolve.driver import _diagonal_pivots_pass, _is_post_fixed_point, _newton_direction_candidate
from lfpsolve.mps import eval_jacobian, evaluate
from lfpsolve.newton import _record
from lfpsolve.ratmath import identity_minus, round_down_dyadic, solve_linear

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


def _exact_check(sys: MonotoneSystem, x: list, s: int) -> bool:
    y = [Fraction(xi, s) for xi in x]
    return all(p <= yi for p, yi in zip(evaluate(sys, y), y))


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


def _rational_direction(sys: MonotoneSystem, lower, epsilon, h: int):
    """The step of the Newton-direction candidate in rationals: d by
    ``solve_linear`` on I - B(x), then round_down(eps d / max d) on the
    2**-(h + 8) grid, 8 bits finer than the iterate's."""
    x = [dy.value() for dy in lower]
    d = solve_linear(identity_minus(eval_jacobian(sys, x)), [Fraction(1)] * sys.n)
    if any(di <= 0 for di in d):
        return None
    step = epsilon / max(d)
    return [xi + round_down_dyadic(step * di, h + 8).value() for xi, di in zip(x, d)]


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
    y = _newton_direction_candidate(sys, lower, epsilon, h)
    expected = _rational_direction(sys, lower, epsilon, h)
    event("accepted" if y is not None else "rejected")
    if y is None:
        scale = 1 << (h + 8)
        assert expected is None or not _exact_check(sys, [int(v * scale) for v in expected], scale)
        return
    assert y == expected
    x = [dy.value() for dy in lower]
    assert all(0 <= yi - xi <= epsilon for xi, yi in zip(x, y))
    assert all(p <= yi for p, yi in zip(evaluate(sys, y), y))


def test_newton_direction_is_accepted_on_most_runs():
    """The property above is not vacuous: on these grids most random
    substochastic systems get a Newton-direction witness."""
    accepted = 0
    for seed in range(30):
        sys = random_substochastic(random.Random(seed), 4)
        lower, _ = run_rnm(sys, RnmConfig(32, 32), keep_trace=False)
        accepted += _newton_direction_candidate(sys, lower, Fraction(1, 3 << 10), 32) is not None
    assert accepted >= 20


# --- the trace residual ------------------------------------------------------------


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data(), sys=systems(max_degree=2), h=st.integers(0, 40))
def test_trace_residual_is_the_exact_sup_norm(data, sys, h):
    """Every residual of a kept trace is max_i |P_i(x) - x_i| with exact
    ``mps.evaluate``, at the iterates of ``run_rnm`` (h >= 1) and at any
    grid point, on and above q* (h = 0 included)."""
    event(f"degree {sys.degree()}")
    records = []
    if h:
        try:
            records += run_rnm(sys, RnmConfig(h, data.draw(st.integers(1, 6))), keep_trace=True)[1].records
        except SingularMatrix:
            pass
    m = [data.draw(st.integers(0, 3 << h)) for _ in range(sys.n)]
    records.append(_record(sys, 0, m, h))
    for record in records:
        x = [d.value() for d in record.iterate]
        assert record.residual == max(abs(p - xi) for p, xi in zip(evaluate(sys, x), x))
