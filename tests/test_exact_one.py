"""The exact q* = 1 pre-pass: a component whose lower dependencies are all
proved to be 1, whose rows all have P_i(1) = 1 and whose I - B(1) passes
elimination with diagonal pivots (rho(B(1)) <= 1) is set to exactly 1, and
no Newton step runs on it."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from conftest import chain_system, gamblers_ruin, univariate
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lfpsolve import SolveOptions, rat, serialize_mps, solve, system_of, termination_probabilities
from lfpsolve.cli import main
from lfpsolve.errors import ParamsInfeasible, SingularMatrix
from lfpsolve.mps import evaluate
from lfpsolve.p1ca import p1ca_to_json
from reference import univariate_quadratic_lfp

EPS = rat(1, 2**16)

# a = a^2/2 + 1/2, b = b/2 + a/4: q* = (1, 1/2).
MIXED = system_of(
    ["a", "b"], [("1/2", {"a": 2}), ("1/2", {})], [("1/2", {"b": 1}), ("1/4", {"a": 1})]
)


def run_cli(argv, document, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(document)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv + [str(path)])
    return code, json.loads(out.getvalue())


def assert_exact_ones(report):
    assert [d.value() for d in report.approximation] == [1] * len(report.names)
    assert report.certificate.exact_one == report.names
    assert report.scc_runs and all(run.iterations == 0 for run in report.scc_runs)


def test_chain5_is_exact_without_newton_steps():
    report = solve(chain_system(5), rat(1, 2**30), SolveOptions(qmax_exponent_assert=0))
    assert_exact_ones(report)
    assert report.status == "certified-eps"
    assert report.certificate.kind == "witness" and report.certificate.upper == (1,) * 5
    assert report.certificate.attempted_h == ()
    # the normal form's product variables are components too
    assert len(report.scc_runs) == 5


def test_chain3_needs_no_probability_flag(tmp_path):
    # P(1) = 1 is checked exactly, so no flag is needed, and the bounds of
    # the empty reduced system are labelled by where they come from.
    code, doc = run_cli(["solve", "--epsilon", "1/65536"], serialize_mps(chain_system(3)), tmp_path)
    assert code == 0
    assert doc["status"] == "certified-eps"
    assert doc["approximation"] == ["1", "1", "1"]
    assert doc["bounds"]["qmin_source"] == "exact"
    assert doc["bounds"]["qmax_source"] == "exact"
    assert [run["iterations"] for run in doc["sccs"]] == [0, 0, 0]
    assert doc["certificate"] == {
        "kind": "witness",
        "attempted_h": [],
        "post_fixed_point": {"x0": "1", "x1": "1", "x2": "1"},
        "exact_one": ["x0", "x1", "x2"],
    }
    argv = ["solve", "--assume-prob", "--epsilon", "1/65536"]
    code, doc = run_cli(argv, serialize_mps(chain_system(3)), tmp_path)
    assert doc["bounds"]["qmax_source"] == "probability-flag"


def test_adaptive_mode_keeps_the_exact_ones():
    report = solve(chain_system(3), EPS, SolveOptions(mode="adaptive"))
    assert_exact_ones(report)
    assert report.status == "certified-eps"
    assert report.certificate.kind == "witness" and report.certificate.upper == (1,) * 3
    assert report.certificate.attempted_h == ()


def test_mixed_is_certified_far_below_the_old_theorem_grid():
    # Only b = b/2 + 1/4 is left, and it is linear; before the pre-pass the
    # theorem's grid h = 371 ran, with 370 Newton steps on a.  Under the
    # flag the reduced system's own theorem grid is h = 48, below 8 times
    # the first witness grid 18, which still runs once and certifies.
    # Without the flag u = 340, and the first witness grid certifies.
    flagged = solve(MIXED, EPS, SolveOptions(qmax_exponent_assert=0))
    assert flagged.status == "certified-eps"
    assert (flagged.certificate.kind, flagged.params.h) == ("witness", 18)
    report = solve(MIXED, EPS)
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "witness" and cert.exact_one == ("a",)
    assert report.params.h == 18 and cert.attempted_h == (18,)
    for run in (flagged, report):
        assert [d.value() for d in run.approximation] == [1, rat(1, 2)]
        assert [(r.names, r.iterations) for r in run.scc_runs] == [(("a", "w1"), 0), (("b",), 1)]
    approx = [d.value() for d in report.approximation]
    y = cert.upper
    assert y[0] == 1
    assert all(p <= yi for p, yi in zip(evaluate(MIXED, y), y))
    assert all(x <= yi <= x + EPS for x, yi in zip(approx, y))


def test_lower_dependency_below_one_is_not_marked():
    # a = 3a^2/4 + 1/4 has P(1) = 1 but q* = 1/3 (B(1) = 3/2 > 1); b's row is
    # full and B_b(1) = 1/2, yet b depends on a, so q*_b = 1/3 as well.
    system = system_of(
        ["a", "b"], [("3/4", {"a": 2}), ("1/4", {})], [("1/2", {"b": 1}), ("1/2", {"a": 1})]
    )
    report = solve(system, EPS, SolveOptions(qmax_exponent_assert=0))
    assert report.certificate.exact_one == ()
    for d in report.approximation:
        assert d.value() <= rat(1, 3) <= d.value() + EPS


def test_gamblers_ruin_terminates_surely_at_one_half_and_one_third(tmp_path):
    for p_up in ("1/2", "1/3"):
        result = termination_probabilities(gamblers_ruin(p_up), rat(1, 2**20))
        assert result.entries[0][0].value() == 1
        assert result.report.certificate.exact_one == ("s→s",)
        document = json.dumps(p1ca_to_json(gamblers_ruin(p_up)))
        code, doc = run_cli(["p1ca-term", "--epsilon", "1/1048576"], document, tmp_path)
        assert code == 0
        assert doc["entries"] == [["1"]]
        assert doc["certificate"]["exact_one"] == ["s→s"]
    # at 2/3 the walk drifts up: q* = 1/2, and nothing is marked
    result = termination_probabilities(gamblers_ruin("2/3"), rat(1, 2**20))
    assert result.report.certificate.exact_one == ()
    assert result.entries[0][0].value() <= rat(1, 2)


# --- the univariate property ---------------------------------------------------


@st.composite
def stochastic_quadratics(draw):
    """(a, b, c) >= 0 over a common denominator with a + b + c <= 1.  Most
    draws have a + b + c = 1, with 2a + b = B(1) below, at or above 1,
    where the answer turns."""
    den = draw(st.integers(1, 16))
    shape = draw(st.sampled_from(["deficient", "full", "full-critical"]))
    if shape == "full-critical":  # a + b + c = 1 and 2a + b = 1, so c = a
        i = draw(st.integers(0, den // 2))
        return Fraction(i, den), Fraction(den - 2 * i, den), Fraction(i, den)
    i = draw(st.integers(0, den))
    j = draw(st.integers(0, den - i))
    k = den - i - j if shape == "full" else draw(st.integers(0, den - i - j))
    return Fraction(i, den), Fraction(j, den), Fraction(k, den)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(abc=stochastic_quadratics())
def test_marked_iff_the_lfp_is_exactly_one(abc):
    a, b, c = abc
    q = univariate_quadratic_lfp(a, b, c)
    is_one = isinstance(q, Fraction) and q == 1
    full = "=" if a + b + c == 1 else "<"
    slope = "<" if 2 * a + b < 1 else "=" if 2 * a + b == 1 else ">"
    event(f"a + b + c {full} 1, 2a + b {slope} 1")
    try:
        report = solve(univariate(a, b, c), EPS, SolveOptions(max_h=2000))
    except (ParamsInfeasible, SingularMatrix):
        assert not is_one  # a proved q* = 1 returns before any grid
        return
    assert (report.certificate.exact_one == ("x",)) == is_one
    x = report.approximation[0].value()
    if is_one:
        assert x == 1 and all(run.iterations == 0 for run in report.scc_runs)
    assert x <= q <= x + EPS
