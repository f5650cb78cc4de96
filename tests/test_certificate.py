"""Post-fixed-point certificates, re-checked with nothing but ``mps.evaluate``.

A witness y certifies an answer x when P(y) <= y holds exactly on the input
system (so q* <= y by Knaster-Tarski) and x <= y <= x + epsilon.  These
tests check exactly that for every witness a report carries, without
trusting any Newton, linear-algebra or bound code.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import (
    chain_system,
    critical_quartic,
    doubled_chain,
    gamblers_ruin,
    leaky_chain,
    random_p1ca,
    random_substochastic,
    univariate,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from lfpsolve import (
    SolveOptions,
    qmax_upper_exponent,
    rat,
    run_rnm,
    solve,
    system_of,
    termination_probabilities,
)
from lfpsolve.cli import main
from lfpsolve.driver import _simplest_rational
from lfpsolve.errors import LfpError, ParamsInfeasible
from lfpsolve.mps import evaluate, serialize_mps
from lfpsolve.p1ca import build_termination_mps, p1ca_to_json
from lfpsolve.ratmath import rat_str

P1CA_EPS = rat(1, 2**20)
SUBSTOCH_EPS = rat(1, 2**30)
CHAIN_EPS = rat(1, 2**16)

# SHA-256 of json.dumps([rat_str(x) for x in iterate]) for the last Newton
# iterate of doubled_chain(3) (q* = 2) at 2**-16 without normal form, under
# the asserted bound q* <= 2, on the theorem's grid h = 2530, g = 2530.
DOUBLED_CHAIN3_THEOREM_ITERATE = "57eb17d932d6d63a3e2030d35f0b29e54912d795d369b843186134d7cd79093c"
# The same digest for LEAKY_CHAIN2 (below) at 2**-16 under the probability
# flag, on its theorem grid h = 1067, and at 2**-8 without normal form
# under q* <= 4, on its theorem grid h = 753.
LEAKY_CHAIN2_THEOREM_ANSWER = "13123bc4e9562da13f5fb5f1f6a475b22d34bbacdece269c15006c4b6b354139"
LEAKY_CHAIN2_RESCALED_ANSWER = "c717887c3f6450becca57867e83fac29068115376805b3d44e57fe6418a5df1e"
# SHA-256 of random_outcomes(mode) below: substochastic n = 8, seeds 0-19,
# and in certified mode also random_p1ca(Random(7), r) for r = 1..3.
RANDOM_OUTCOMES = {
    "certified": "f581439cc2b8104d3d6f48ed5f911596f4b935ff1d729361956e3ee8e68f3a1c",
    "adaptive": "d2cabda6f220727c97f70d5b69b1f8ecbac567b7d2cfadbad43c67bed53ce527",
}

# SHA-256 of rescaled_outcomes() below: small substochastic systems under
# asserted q*_max bounds 2 and 4, so u = 1 and u = 2 without normal form and
# twice that with it (its product variables are quadratic in the input's).
# The witness grids are the unscaled ladder h0 2**k, so only the runs that
# reach the theorem's grid report u > 0.
RESCALED_OUTCOMES = "2fc50ac29c96466e32d31bf8b2460a3312813316fc2ac87d0b046c1c23587d41"

# a = a^2/4 + 1, b = b/2 + a/8: q* = (2, 1/2).  a is critical, so the
# Newton-direction witness fails, and b is far from 1; q* is rational, so
# the simplest rationals within eps above the iterate are q* itself.
# P_a(1) = 5/4, so the q* = 1 pre-pass leaves a alone.  (MIXED, its q* = 1
# analogue, is in test_exact_one.py.)
MIXED2 = system_of(
    ["a", "b"], [("1/4", {"a": 2}), ("1", {})], [("1/2", {"b": 1}), ("1/8", {"a": 1})]
)
# chain3 with the bottom constant 1/2 - 2**-200: q* < 1, P_0(1) < 1, yet every
# coordinate is within 2**-24 of 1, so the simplest rationals within eps
# above the iterate are y = 1, which certifies it.
LEAKY_CHAIN3 = leaky_chain(3, rat(1, 2**200))
# chain2 with a 2**-32 leak: q* is about (1 - 2**-15.5, 1 - 2**-7.75),
# irrational and nearly critical.  P_1(y) <= y_1 with y_1 <= q*_1 + eps
# needs y_0 within about 2**-23 above q*_0, which neither candidate hits,
# so no grid below the theorem's has a witness.
LEAKY_CHAIN2 = leaky_chain(2, rat(1, 2**32))


def answer_digest(report):
    answer = json.dumps([rat_str(a) for a in report.approximation])
    return hashlib.sha256(answer.encode()).hexdigest()


def last_iterate(report):
    """The grid's iterate at the original variables, read from the last
    trace record of each nonlinear component (``keep_traces=True``); None
    where no component traced the variable (linear, proved 1, or zero)."""
    last = {}
    for run in report.scc_runs:
        if run.trace is not None:
            last.update(zip(run.names, run.trace.records[-1].iterate))
    return [rat_str(last[name].value()) if name in last else None for name in report.names]


def last_iterate_digest(report):
    """``answer_digest`` of ``last_iterate``."""
    return hashlib.sha256(json.dumps(last_iterate(report)).encode()).hexdigest()


def _outcome(report):
    """The answer, its certificate and the last traced iterate, which pins
    the Newton kernel where a witnessed answer is coarser than it."""
    cert = report.certificate
    upper = None if cert.upper is None else [rat_str(rat(y)) for y in cert.upper]
    approx = [rat_str(a) for a in report.approximation]
    iterate = last_iterate(report)
    return [report.status, report.params.h, approx, cert.kind, upper, list(cert.attempted_h), iterate]


def random_outcomes(mode):
    """Every exact answer, certificate and last traced iterate of a fixed set
    of random inputs in one mode."""
    outcomes = []
    for seed in range(20):
        system = random_substochastic(random.Random(seed), 8)
        try:
            options = SolveOptions(mode=mode, qmax_exponent_assert=0, keep_traces=True)
            report = solve(system, SUBSTOCH_EPS, options)
        except ParamsInfeasible as exc:
            outcomes.append([seed, mode, type(exc).__name__])
            continue
        outcomes.append([seed, mode, _outcome(report)])
    if mode == "certified":
        for r in (1, 2, 3):
            result = termination_probabilities(random_p1ca(random.Random(7), r), P1CA_EPS, keep_traces=True)
            entries = [[rat_str(a) for a in row] for row in result.entries]
            outcomes.append([r, entries, _outcome(result.report)])
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def rescaled_outcomes():
    """Answers, params, certificates and last traced iterates at u = 1 and
    u = 2, where the theorem is stated on x = 2**-u P(2**u x) and its grid
    runs on the input."""
    outcomes = []
    for seed in range(20):
        system = random_substochastic(random.Random(seed), 1 + seed % 3)
        for u in (1, 2):
            for use_snf in (True, False):
                for bits in (10, 20):
                    options = SolveOptions(qmax_exponent_assert=u, use_snf=use_snf, keep_traces=True)
                    try:
                        report = solve(system, rat(1, 2**bits), options)
                    except LfpError as exc:
                        outcomes.append([seed, u, use_snf, bits, type(exc).__name__])
                        continue
                    params = report.params
                    row = [rat_str(params.alpha), params.h, params.g, params.u, params.mode]
                    outcomes.append([seed, u, use_snf, bits, row + _outcome(report)])
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def least_denominator_scan(lo, hi):
    """The rational in [lo, hi] with the least denominator q, and the least
    numerator ceil(lo q) for that q, by trying q = 1, 2, ..."""
    q = 1
    while True:
        p = -(-lo.numerator * q // lo.denominator)
        if p * hi.denominator <= hi.numerator * q:
            return Fraction(p, q)
        q += 1


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    lo=st.fractions(min_value=0, max_value=5, max_denominator=64),
    width=st.fractions(min_value=0, max_value=2, max_denominator=64),
)
def test_simplest_rational_matches_a_denominator_scan(lo, width):
    assert _simplest_rational(lo, lo + width) == least_denominator_scan(lo, lo + width)


@pytest.mark.parametrize(
    "lo,hi,simplest",
    [
        (0, 0, 0),
        (0, Fraction(1, 2), 0),
        (2, 2, 2),
        (Fraction(3, 2), 2, 2),
        (Fraction(1, 3), 1, 1),
        (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)),
        (Fraction(5, 2), 3, 3),
        (Fraction(7, 3), Fraction(12, 5), Fraction(7, 3)),
        (Fraction(1, 1000), Fraction(1, 999), Fraction(1, 999)),
    ],
)
def test_simplest_rational_at_integer_and_tight_ends(lo, hi, simplest):
    lo, hi = Fraction(lo), Fraction(hi)
    assert _simplest_rational(lo, hi) == simplest == least_denominator_scan(lo, hi)


def test_simplest_rational_on_ends_of_thousands_of_bits():
    # A dyadic lower end with a 6003-bit numerator and an upper end 2**-16
    # above it, checked against the scan; then a point interval at a ratio
    # of Fibonacci numbers of about 6000 bits, whose continued fraction has
    # over 8000 terms, far past Python's recursion limit.
    lo = Fraction(3**3787, 2**6010)
    hi = lo + Fraction(1, 2**16)
    assert lo.numerator.bit_length() > 6000
    assert _simplest_rational(lo, hi) == least_denominator_scan(lo, hi)
    a, b = 1, 1
    while b.bit_length() <= 6000:
        a, b = b, a + b
    point = Fraction(b, a)
    assert _simplest_rational(point, point) == point


def assert_witness(system, approx, upper, eps):
    assert len(upper) == len(approx) == system.n
    assert all(a <= y <= a + eps for a, y in zip(approx, upper))
    assert all(p <= y for p, y in zip(evaluate(system, upper), upper))


# Each is certified on the first witness grid (20 + 2 bits), below its
# closed-form h: 72 for gambler's ruin and 102, 5627 and 90682 for r = 1..3.
# The first two are below 8 times that grid, which still leaves it one try.
P1CA_CASES = [
    ("gambler", gamblers_ruin("2/3"), "witness", 22),
    ("random_p1ca_7_r1", random_p1ca(random.Random(7), 1), "witness", 22),
    ("random_p1ca_7_r2", random_p1ca(random.Random(7), 2), "witness", 22),
    ("random_p1ca_7_r3", random_p1ca(random.Random(7), 3), "witness", 22),
]


@pytest.mark.parametrize("label,model,kind,h", P1CA_CASES)
def test_p1ca_certificates(label, model, kind, h):
    result = termination_probabilities(model, P1CA_EPS)
    report = result.report
    assert report.status == "certified-eps"
    assert (report.certificate.kind, report.params.h) == (kind, h)
    approx = list(report.approximation)
    assert_witness(build_termination_mps(model), approx, report.certificate.upper, P1CA_EPS)


def test_p1ca_ceiling_bounds_the_closed_form_grid():
    # The closed-form h of r = 2 is 5627.  Below the first witness grid (22)
    # the ceiling refuses it; from 22 up the witness certifies the answer.
    model = random_p1ca(random.Random(7), 2)
    with pytest.raises(ParamsInfeasible):
        termination_probabilities(model, P1CA_EPS, max_h=16)
    for max_h in (22, 5626):
        result = termination_probabilities(model, P1CA_EPS, max_h=max_h)
        assert result.params["h"] == 5627
        report = result.report
        assert (report.certificate.kind, report.params.h) == ("witness", 22)


@pytest.mark.parametrize("n", [4, 8])
def test_random_substochastic_witnesses_recheck(n):
    witnesses = 0
    for seed in range(20):
        system = random_substochastic(random.Random(seed), n)
        try:
            report = solve(system, SUBSTOCH_EPS, SolveOptions(qmax_exponent_assert=0))
        except ParamsInfeasible:
            continue  # no q*_min bound at this size after normal form
        assert report.status == "certified-eps"
        if report.certificate.kind == "witness":
            witnesses += 1
            approx = list(report.approximation)
            assert_witness(system, approx, report.certificate.upper, SUBSTOCH_EPS)
    assert witnesses >= 15


@pytest.fixture(scope="module")
def chain3_theorem_grid():
    # The certified route runs the theorem's grid h_theorem - u = 2530 with
    # g = h_theorem - 1 = 2530 steps here (u = 1); the override runs exactly
    # that grid.
    options = SolveOptions(
        qmax_exponent_assert=1, use_snf=False, h_override=2530, g_override=2530, keep_traces=True
    )
    return solve(doubled_chain(3), CHAIN_EPS, options)


def test_chain3_theorem_grid_is_unchanged(chain3_theorem_grid):
    # The iterate stays bit for bit; q* = 2 is the witness, so the answer is
    # the simplest rational in [2 - eps, iterate], its lower end.
    report = chain3_theorem_grid
    assert report.params.h == 2530 and report.params.g == 2530
    assert last_iterate_digest(report) == DOUBLED_CHAIN3_THEOREM_ITERATE
    assert report.certificate.upper == (2, 2, 2)
    assert report.approximation == (2 - CHAIN_EPS,) * 3


@pytest.mark.parametrize("bits", [16, 30])
def test_first_witness_grid_certifies_generated_traffic(bits):
    # The first witness grid sits two bits above the tolerance, spacing eps
    # / 4; that still certifies every system the test generators draw here.
    eps = rat(1, 2**bits)
    reports = [
        solve(
            random_substochastic(random.Random(seed), 4), eps, SolveOptions(qmax_exponent_assert=0)
        )
        for seed in range(120)
    ]
    reports += [
        termination_probabilities(random_p1ca(random.Random(seed), r), eps).report
        for seed in range(6)
        for r in range(1, 5)
    ]
    for report in reports:
        assert report.certificate.kind == "witness"
        assert report.certificate.attempted_h == (bits + 2,)


def test_random_answers_are_unchanged():
    # Exact arithmetic makes every answer independent of how the linear
    # solves and the divergence probe compute it, so these stay bit for bit.
    assert random_outcomes("certified") == RANDOM_OUTCOMES["certified"]


def test_random_adaptive_answers_are_unchanged():
    assert random_outcomes("adaptive") == RANDOM_OUTCOMES["adaptive"]


def test_steps_reported_are_steps_taken(chain3_theorem_grid):
    # The levels above the bottom pin well before g = 2530 Newton steps.
    assert [run.iterations for run in chain3_theorem_grid.scc_runs] == [2530, 1275, 643]


def test_chain3_is_certified_by_the_cap():
    # q* is below 1 but within eps of it and nearly critical, so no
    # Newton-direction witness passes; P(1) <= 1 holds exactly, and y = 1,
    # the simplest rational within eps above an iterate within eps of 1,
    # certifies the first such grid, far below the theorem's h = 4499.
    system = LEAKY_CHAIN3
    report = solve(system, CHAIN_EPS, SolveOptions(qmax_exponent_assert=0))
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "witness"
    assert report.params.h == 72 and cert.attempted_h == (18, 36, 72)
    assert [run.iterations for run in report.scc_runs] == [71, 41, 23]
    assert cert.upper == (1, 1, 1)
    approx = list(report.approximation)
    assert_witness(system, approx, cert.upper, CHAIN_EPS)


def test_critical_chain_falls_back_to_theorem():
    # A nearly critical chain with irrational q* has neither witness on the
    # grids below h_theorem / 8, so the theorem's grid decides.
    report = solve(LEAKY_CHAIN2, CHAIN_EPS, SolveOptions(qmax_exponent_assert=0))
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "theorem" and cert.upper is None
    assert (report.params.h, report.params.g, report.params.u) == (1067, 1066, 0)
    assert cert.attempted_h == (18, 36, 72)
    assert all(8 * h <= report.params.h for h in cert.attempted_h)
    assert cert.exact_one == ()
    assert answer_digest(report) == LEAKY_CHAIN2_THEOREM_ANSWER


@pytest.mark.parametrize(
    "system,q_star,mode,h,attempted,steps",
    [
        (doubled_chain(3), (2, 2, 2), "certified", 144, (18, 36, 72, 144), [143, 78, 43]),
        (doubled_chain(3), (2, 2, 2), "adaptive", 144, (18, 36, 72, 144), [143, 78, 43]),
        (MIXED2, (2, rat(1, 2)), "certified", 36, (18, 36), [35, 1]),
        (MIXED2, (2, rat(1, 2)), "adaptive", 36, (18, 36), [35, 1]),
    ],
    ids=["doubled_chain3", "doubled_chain3-adaptive", "mixed2", "mixed2-adaptive"],
)
def test_rational_critical_q_is_the_witness(system, q_star, mode, h, attempted, steps):
    # A critical q* has no Newton-direction witness, but a rational q* is
    # the simplest rational within eps above an iterate close enough below
    # it, and P(q*) = q* passes the exact check.  The theorem's grid was
    # h = 6417 for doubled_chain(3) and h = 649 for MIXED2.  Both modes
    # climb the same grids h0 2**k with g = h - 1 steps.  For doubled_chain(3)
    # grid 72 fails with g = h, h + 1 and h + 2 steps as well, so the grid,
    # not the step budget, is what makes 144 the first rung that passes.
    report = solve(system, CHAIN_EPS, SolveOptions(mode=mode, qmax_exponent_assert=1))
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "witness"
    assert (report.params.h, cert.attempted_h) == (h, attempted)
    assert [run.iterations for run in report.scc_runs] == steps
    assert cert.upper == q_star
    approx = list(report.approximation)
    assert_witness(system, approx, cert.upper, CHAIN_EPS)


def test_first_witness_grid_runs_below_a_small_theorem_grid():
    # x = x^2/4 + 1 (q* = 2) under q* <= 2 without normal form has
    # h_theorem = 99, so (h_theorem - u) / 8 = 12 is below the first witness
    # grid 18; that grid still runs, once, unscaled, and certifies.  Below
    # it only the theorem's grid is left, and max_h = 17 refuses that.
    system = univariate("1/4", 0, "1")
    report = solve(system, CHAIN_EPS, SolveOptions(qmax_exponent_assert=1, use_snf=False))
    cert = report.certificate
    assert (cert.kind, cert.upper, cert.attempted_h) == ("witness", (2,), (18,))
    assert (report.params.h, report.params.g, report.params.u) == (18, 17, 0)
    with pytest.raises(ParamsInfeasible, match="certified h = 99"):
        solve(system, CHAIN_EPS, SolveOptions(qmax_exponent_assert=1, use_snf=False, max_h=17))


def test_second_witness_grid_runs_below_a_small_theorem_grid():
    # With normal form, x = x^2/4 + 1 under q* <= 2 has u = 2 and h_theorem
    # = 181, so (h_theorem - u) / 8 = 22 lies below the second witness grid
    # 36.  Grid 18 finds no witness there; the ceiling of at least 2 h0
    # still runs grid 36, which certifies, instead of the theorem's grid 179.
    system = univariate("1/4", 0, "1")
    report = solve(system, CHAIN_EPS, SolveOptions(qmax_exponent_assert=1))
    cert = report.certificate
    assert (cert.kind, cert.upper, cert.attempted_h) == ("witness", (2,), (18, 36))
    assert (report.params.h, report.params.g, report.params.u) == (36, 35, 0)
    with pytest.raises(ParamsInfeasible, match=r"certified h = 181 \(u = 2\)"):
        solve(system, CHAIN_EPS, SolveOptions(qmax_exponent_assert=1, max_h=35))


def test_adaptive_matches_certified_where_a_witness_passes():
    # At u = 0 both modes double h from the same first grid and try the same
    # witness on each, so wherever certified mode finds a witness, adaptive
    # mode returns the same answer, grid and certificate.
    cases = [(LEAKY_CHAIN3, CHAIN_EPS)]
    cases += [(random_substochastic(random.Random(seed), 8), SUBSTOCH_EPS) for seed in range(20)]
    witnessed = 0
    for system, eps in cases:
        try:
            certified = solve(system, eps, SolveOptions(qmax_exponent_assert=0))
        except ParamsInfeasible:
            continue  # no q*_min bound at this size after normal form
        if certified.certificate.kind != "witness":
            continue
        adaptive = solve(system, eps, SolveOptions(mode="adaptive", qmax_exponent_assert=0))
        assert adaptive.status == "certified-eps"
        assert adaptive.approximation == certified.approximation
        assert (adaptive.params.h, adaptive.params.g) == (certified.params.h, certified.params.g)
        assert adaptive.certificate == certified.certificate
        witnessed += 1
    assert witnessed == 20


@pytest.mark.parametrize("mode", ["certified", "adaptive"])
@pytest.mark.parametrize(
    "system,h,attempted",
    [
        (LEAKY_CHAIN3, 72, (18, 36, 72)),
        (doubled_chain(3), 144, (18, 36, 72, 144)),
        (univariate("1/12", 0, "3"), 36, (18, 36)),
    ],
    ids=["leaky_chain3", "doubled_chain3", "x2_over_12_plus_3"],
)
def test_flagless_runs_find_the_witness_of_the_flagged_ones(system, h, attempted, mode):
    # With no flag the worst-case u is 10**7 to 10**8 for the chains and
    # 5100 for x = x^2/12 + 3 (q* = 6, no power of two bounds it by a
    # post-fixed point), yet the witness grids carry no u, so each is
    # certified on the grids it would take under a true flag.
    report = solve(system, CHAIN_EPS, SolveOptions(mode=mode))
    cert = report.certificate
    assert report.bounds.qmax_source == "worst-case-formula"
    assert report.status == "certified-eps" and cert.kind == "witness"
    assert (report.params.h, report.params.u, cert.attempted_h) == (h, 0, attempted)
    approx = list(report.approximation)
    assert_witness(system, approx, cert.upper, CHAIN_EPS)


def test_flagless_quartic_is_refused_after_a_few_grids(monkeypatch):
    # No rational witness exists at the quartic's critical irrational q*, so
    # the ladder stops where two grids agree, and the theorem's grid under
    # the worst-case u is refused without being run.
    grids = set()

    def counting_run_rnm(system, config, **kwargs):
        grids.add(config.h)
        assert len(grids) <= 3, "a fourth grid, on the way to max_h"
        return run_rnm(system, config, **kwargs)

    monkeypatch.setattr("lfpsolve.driver.run_rnm", counting_run_rnm)
    with pytest.raises(ParamsInfeasible, match=r"\(u = 22968750\) exceeds the ceiling"):
        solve(critical_quartic(), CHAIN_EPS)
    assert 0 < len(grids) <= 3


def test_both_modes_climb_the_same_ladder():
    # Both modes try witnesses on the grids h0 2**k with h - 1 steps and stop
    # on the same events; certified mode's ceiling is the lower one, so its
    # grids are the first of adaptive mode's, and the same ones, with the
    # same answer, when a witness passes.
    cases = [
        (LEAKY_CHAIN3, CHAIN_EPS, {}),
        (LEAKY_CHAIN3, CHAIN_EPS, {"qmax_exponent_assert": 0}),
        (LEAKY_CHAIN2, CHAIN_EPS, {"qmax_exponent_assert": 0}),
        (LEAKY_CHAIN2, rat(1, 2**8), {"qmax_exponent_assert": 3, "use_snf": False}),
        (doubled_chain(3), CHAIN_EPS, {}),
        (doubled_chain(3), CHAIN_EPS, {"qmax_exponent_assert": 1}),
        (MIXED2, CHAIN_EPS, {}),
        (MIXED2, CHAIN_EPS, {"qmax_exponent_assert": 1}),
        (critical_quartic(), CHAIN_EPS, {"qmax_exponent_assert": 0}),
        (NEAR_CRITICAL, CHAIN_EPS, {}),
        (univariate("1/12", 0, "3"), CHAIN_EPS, {}),
    ]
    cases += [
        (random_substochastic(random.Random(seed), 4), SUBSTOCH_EPS, flag)
        for seed in range(30)
        for flag in ({}, {"qmax_exponent_assert": 0})
    ]
    witnessed = 0
    for system, eps, options in cases:
        certified = solve(system, eps, SolveOptions(**options))
        adaptive = solve(system, eps, SolveOptions(mode="adaptive", **options))
        grids = certified.certificate.attempted_h
        assert adaptive.certificate.attempted_h[: len(grids)] == grids
        if certified.certificate.kind == "witness":
            assert adaptive.certificate == certified.certificate
            assert adaptive.approximation == certified.approximation
            assert adaptive.params == replace(certified.params, mode="adaptive")
            witnessed += 1
    assert witnessed == len(cases) - 3  # the two leaky chain2 runs and the quartic


def test_adaptive_falls_back_to_agreement():
    # With no witness, adaptive doubling settles where two grids agree
    # within eps/4, uncertified, after trying each grid.
    options = SolveOptions(mode="adaptive", qmax_exponent_assert=0)
    report = solve(LEAKY_CHAIN2, CHAIN_EPS, options)
    cert = report.certificate
    assert report.status == "adaptive-heuristic"
    assert cert.kind == "none" and cert.upper is None
    assert (report.params.h, cert.attempted_h) == (72, (18, 36, 72))
    assert [run.iterations for run in report.scc_runs] == [21, 14]


def test_cap_requires_exact_post_fixed_point_check():
    # x = a x^2 + b with roots r1 = 1 - 3 eps/4 < r2 = 1 - 3 eps/8 < 1 (the
    # probability flag is a false assertion here): the iterate at 2**-24 is
    # within eps of 1, so the simplest rational within eps above it is 1,
    # yet P(1) > 1, so y = 1 is no witness.  The Newton-direction step eps
    # overshoots r2 and fails as well.
    r1, r2 = 1 - 3 * CHAIN_EPS / 4, 1 - 3 * CHAIN_EPS / 8
    a = 1 / (r1 + r2)
    system = system_of(["x"], [(a, {"x": 2}), (a * r1 * r2, {})])
    assert evaluate(system, [rat(1)])[0] > 1
    report = solve(
        system,
        CHAIN_EPS,
        SolveOptions(qmax_exponent_assert=0, use_snf=False, h_override=24),
    )
    assert 1 - report.approximation[0] <= CHAIN_EPS
    assert report.status == "uncertified"
    assert report.certificate.kind == "none" and report.certificate.upper is None


def test_rescaled_route_finds_witness():
    # x = x^2/8 + 1, q* = 4 - 2 sqrt(2), with no bound asserted: the
    # worst-case u sets the theorem's grid, yet the first witness grid, run
    # unscaled on the input system, certifies it, so the answer's u is 0.
    system = univariate("1/8", 0, "1")
    eps = rat(1, 2**20)
    report = solve(system, eps, SolveOptions(use_snf=False))
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "witness"
    assert report.bounds.qmax_exponent == qmax_upper_exponent(system)
    assert report.params.u == 0
    assert report.params.h == 22 and cert.attempted_h == (22,)
    approx = list(report.approximation)
    assert_witness(system, approx, cert.upper, eps)


def test_worst_case_u_route_finds_witness():
    # With no bound asserted u is 950000 here; the witness grid is still
    # the first one, h = 12 with u = 0, and the witness is exact on the input
    # system.
    system = random_substochastic(random.Random(2), 2)
    eps = rat(1, 2**10)
    report = solve(system, eps)
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "witness"
    assert report.bounds.qmax_exponent == 950000
    assert (report.params.h, report.params.g, report.params.u) == (12, 11, 0)
    assert cert.attempted_h == (12,)
    approx = list(report.approximation)
    assert_witness(system, approx, cert.upper, eps)


def test_rescaled_answers_are_unchanged():
    # Grid H of x = 2**-u P(2**u x) is grid H - u of the input, so running
    # the theorem's grid on the input, and every witness grid unscaled,
    # moves no answer, parameter or certificate.
    assert rescaled_outcomes() == RESCALED_OUTCOMES


def test_witness_grids_keep_the_rescaled_schedule():
    # Under u = 3 the witness grids are still h0 2**k = 10, 20, 40, each
    # with h - 1 steps; 40 agrees with 20 within eps / 4, below the ceiling
    # (h_theorem - u) / 8 = 114, so the ladder stops there.  The fallback
    # grid is h_theorem - u with g = h_theorem - 1: the grid and step budget
    # of x = 2**-3 P(2**3 x).
    options = SolveOptions(qmax_exponent_assert=3, use_snf=False)
    report = solve(LEAKY_CHAIN2, rat(1, 2**8), options)
    params = report.params
    assert report.certificate.kind == "theorem"
    assert report.certificate.attempted_h == (10, 20, 40)
    assert (params.h, params.g, params.u) == (912, 914, 3)


# x = x^2/2 + 1/2 - 2**-40: q* = 1 - 2**-19.5 (about), nearly critical and
# within 2**-16 of 1.  Its worst-case bound is u = 16350, or u = 1880
# without normal form.
NEAR_CRITICAL = system_of(["x"], [("1/2", {"x": 2}), (rat(1, 2) - rat(1, 2**40), {})])


def test_critical_cap_without_probability_flag():
    # The candidate y = 1 is checked on the input system, so a q* within eps
    # of 1 is certified on the unscaled ladder whatever u is: here on the
    # second grid, as it would be under the probability flag.
    report = solve(NEAR_CRITICAL, CHAIN_EPS)
    cert = report.certificate
    assert report.bounds.qmax_exponent == 16350
    assert report.status == "certified-eps"
    assert cert.kind == "witness" and cert.upper == (1,)
    assert (report.params.h, report.params.u) == (36, 0) and cert.attempted_h == (18, 36)
    assert_witness(NEAR_CRITICAL, [report.approximation[0]], cert.upper, CHAIN_EPS)


def test_cli_critical_cap_without_probability_flag(tmp_path):
    # Without normal form the worst-case bound is u = 1880; the witness grid
    # is unscaled, so params.u is 0, and y = 1 passes on the first grid.
    argv = ["solve", "--no-snf", "--epsilon", rat_str(CHAIN_EPS)]
    code, doc = run_cli(argv, serialize_mps(NEAR_CRITICAL), tmp_path)
    assert code == 0
    assert doc["status"] == "certified-eps"
    assert doc["bounds"]["qmax_upper_exponent"] == 1880
    assert (doc["params"]["h"], doc["params"]["u"]) == (18, 0)
    assert doc["certificate"] == {"kind": "witness", "attempted_h": [18], "post_fixed_point": {"x": "1"}}


def test_huge_u_raises_the_ceiling():
    # Without a flag the quartic's worst-case bound is u = 22968750, so its
    # theorem's grid is far above any ceiling, and no witness grid can pass
    # (its q* is critical and irrational): nothing of size 2**u may be built.
    message = r"certified h = 2388750603 \(u = 22968750\) exceeds the ceiling 1000000"
    with pytest.raises(ParamsInfeasible, match=message):
        solve(critical_quartic(), CHAIN_EPS)


def test_cli_huge_u_exits_4(tmp_path):
    argv = ["solve", "--epsilon", rat_str(CHAIN_EPS)]
    code, doc = run_cli(argv, serialize_mps(critical_quartic()), tmp_path)
    assert code == 4
    assert doc["error"]["type"] == "ParamsInfeasible"


def test_rescaled_theorem_fallback_is_unchanged():
    # LEAKY_CHAIN2 has no witness within eps = 2**-8 either, so the
    # theorem's grid for u = 2 (grid 755 of x = 2**-2 P(4 x), so grid 753 of
    # the input) decides the answer, pinned here bit for bit.
    report = solve(LEAKY_CHAIN2, rat(1, 2**8), SolveOptions(qmax_exponent_assert=2, use_snf=False))
    params = report.params
    assert (params.h, params.g, params.u) == (753, 754, 2)
    assert report.certificate.kind == "theorem"
    assert answer_digest(report) == LEAKY_CHAIN2_RESCALED_ANSWER


def test_override_without_witness_is_uncertified():
    # q* = (2, 2, 2), but the 2**-4 grid pins the iterates far below it.
    report = solve(
        doubled_chain(3), CHAIN_EPS, SolveOptions(qmax_exponent_assert=2, h_override=4)
    )
    assert list(report.approximation) == [rat(7, 4), rat(5, 4), rat(3, 4)]
    assert report.status == "uncertified"
    assert report.certificate.kind == "none"
    assert report.certificate.attempted_h == (4,)


def test_override_with_witness_stays_certified():
    system = random_substochastic(random.Random(0), 4)
    report = solve(
        system, SUBSTOCH_EPS, SolveOptions(qmax_exponent_assert=0, h_override=64)
    )
    assert report.status == "certified-eps"
    assert report.certificate.kind == "witness"
    approx = list(report.approximation)
    assert_witness(system, approx, report.certificate.upper, SUBSTOCH_EPS)


def run_cli(argv, document, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(document)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv + [str(path)])
    return code, json.loads(out.getvalue())


def test_cli_solve_witness_rechecks(tmp_path):
    system = random_substochastic(random.Random(3), 4)
    code, doc = run_cli(
        ["solve", "--assume-prob", "--epsilon", rat_str(SUBSTOCH_EPS)], serialize_mps(system), tmp_path
    )
    assert code == 0
    cert = doc["certificate"]
    assert cert["kind"] == "witness"
    upper = [rat(cert["post_fixed_point"][name]) for name in system.names]
    approx = [rat(x) for x in doc["approximation"]]
    assert_witness(system, approx, upper, SUBSTOCH_EPS)


def test_cli_solve_cap_witness(tmp_path):
    system = chain_system(3)
    code, doc = run_cli(
        ["solve", "--assume-prob", "--epsilon", rat_str(CHAIN_EPS)], serialize_mps(system), tmp_path
    )
    assert code == 0
    assert doc["status"] == "certified-eps"
    cert = doc["certificate"]
    assert cert["kind"] == "witness"
    assert cert["post_fixed_point"] == {name: "1" for name in system.names}
    upper = [rat(cert["post_fixed_point"][name]) for name in system.names]
    approx = [rat(x) for x in doc["approximation"]]
    assert_witness(system, approx, upper, CHAIN_EPS)


def test_cli_p1ca_witness_rechecks(tmp_path):
    model = random_p1ca(random.Random(7), 3)
    code, doc = run_cli(
        ["p1ca-term", "--epsilon", rat_str(P1CA_EPS)], json.dumps(p1ca_to_json(model)), tmp_path
    )
    assert code == 0
    assert doc["status"] == "certified-eps"
    assert doc["params"]["h"] == 90682  # the closed-form fallback, still reported
    cert = doc["certificate"]
    assert cert["kind"] == "witness"
    system = build_termination_mps(model)
    upper = [rat(cert["post_fixed_point"][name]) for name in system.names]
    approx = [rat(x) for row in doc["entries"] for x in row]
    assert_witness(system, approx, upper, P1CA_EPS)


def test_cli_override_reports_uncertified(tmp_path):
    code, doc = run_cli(
        ["solve", "--assume-prob", "--epsilon", "1/65536", "--h", "4"],
        serialize_mps(LEAKY_CHAIN3),
        tmp_path,
    )
    assert code == 0
    assert doc["status"] == "uncertified"
    assert doc["certificate"] == {"kind": "none", "attempted_h": [4]}
    assert doc["approximation"] == ["13/16", "9/16", "5/16"]


def test_cli_adaptive_override_with_witness_is_certified(tmp_path):
    code, doc = run_cli(
        ["solve", "--mode", "adaptive", "--assume-prob", "--epsilon", "1/65536", "--h", "96"],
        serialize_mps(LEAKY_CHAIN3),
        tmp_path,
    )
    assert code == 0
    assert doc["status"] == "certified-eps"
    cap = {"x0": "1", "x1": "1", "x2": "1"}
    assert doc["certificate"] == {"kind": "witness", "attempted_h": [96], "post_fixed_point": cap}
