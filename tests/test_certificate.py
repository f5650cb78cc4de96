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

import pytest
from conftest import (
    chain_system,
    doubled_chain,
    gamblers_ruin,
    leaky_chain,
    random_p1ca,
    random_substochastic,
    univariate,
)

from lfpsolve import (
    SolveOptions,
    qmax_upper_exponent,
    rat,
    solve,
    system_of,
    termination_probabilities,
)
from lfpsolve.cli import main
from lfpsolve.errors import LfpError, ParamsInfeasible
from lfpsolve.mps import evaluate, serialize_mps
from lfpsolve.p1ca import build_termination_mps, p1ca_to_json
from lfpsolve.ratmath import rat_str

P1CA_EPS = rat(1, 2**20)
SUBSTOCH_EPS = rat(1, 2**30)
CHAIN_EPS = rat(1, 2**16)

# SHA-256 of json.dumps([rat_str(x) for x in approximation]) for
# doubled_chain(3) (q* = 2) at 2**-16 without normal form, under the
# asserted bound q* <= 2, on the theorem's grid h = 2530, g = 2530.
DOUBLED_CHAIN3_THEOREM_ANSWER = "57eb17d932d6d63a3e2030d35f0b29e54912d795d369b843186134d7cd79093c"
# The same digest for MIXED2 (below) at 2**-16 under q* <= 4, which bounds
# its normal form's product variable by 2**4, on its theorem grid h = 871.
MIXED2_THEOREM_ANSWER = "691d8dd0e793e30124e5a6fd186f17c969685b1ffea03eb98b5281f31195f13e"
# SHA-256 of random_outcomes() below: substochastic n = 8, seeds 0-19, in
# certified and adaptive mode, and random_p1ca(Random(7), r) for r = 1..3.
RANDOM_OUTCOMES = "fa51ea10fa3467c59eef1f994dfecd8db649c6020747f0c3f6f222b407fced98"

# SHA-256 of rescaled_outcomes() below: small substochastic systems under
# asserted q*_max bounds 2 and 4, so u = 1 and u = 2 without normal form and
# twice that with it (its product variables are quadratic in the input's).
RESCALED_OUTCOMES = "78e645c351dc5dbba437da317797506cd1a2a93f124a27580c3d7a13a34279d1"

# a = a^2/4 + 1, b = b/2 + a/8: q* = (2, 1/2).  a is critical, so the
# Newton-direction witness fails, and b is far from the cap y = 1.  P_a(1) =
# 5/4, so the q* = 1 pre-pass leaves a alone.  (MIXED, its q* = 1 analogue,
# is in test_exact_one.py.)
MIXED2 = system_of(
    ["a", "b"], [("1/4", {"a": 2}), ("1", {})], [("1/2", {"b": 1}), ("1/8", {"a": 1})]
)
# chain3 with the bottom constant 1/2 - 2**-200: q* < 1, P_0(1) < 1, yet every
# coordinate is within 2**-24 of 1, so the cap y = 1 certifies it.
LEAKY_CHAIN3 = leaky_chain(3, rat(1, 2**200))


def answer_digest(report):
    answer = json.dumps([rat_str(d.value()) for d in report.approximation])
    return hashlib.sha256(answer.encode()).hexdigest()


def _outcome(report):
    cert = report.certificate
    upper = None if cert.upper is None else [rat_str(rat(y)) for y in cert.upper]
    approx = [rat_str(d.value()) for d in report.approximation]
    return [report.status, report.params.h, approx, cert.kind, upper, list(cert.attempted_h)]


def random_outcomes():
    """Every exact answer and certificate of a fixed set of random inputs."""
    outcomes = []
    for seed in range(20):
        system = random_substochastic(random.Random(seed), 8)
        for mode in ("certified", "adaptive"):
            try:
                report = solve(system, SUBSTOCH_EPS, SolveOptions(mode=mode, assume_probabilistic=True))
            except ParamsInfeasible as exc:
                outcomes.append([seed, mode, type(exc).__name__])
                continue
            outcomes.append([seed, mode, _outcome(report)])
    for r in (1, 2, 3):
        result = termination_probabilities(random_p1ca(random.Random(7), r), P1CA_EPS)
        entries = [[rat_str(d.value()) for d in row] for row in result.entries]
        outcomes.append([r, entries, _outcome(result.report)])
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def rescaled_outcomes():
    """Answers, params and certificates at u = 1 and u = 2, where the theorem
    is stated on x = 2**-u P(2**u x) and the grids run on the input."""
    outcomes = []
    for seed in range(20):
        system = random_substochastic(random.Random(seed), 1 + seed % 3)
        for u in (1, 2):
            for use_snf in (True, False):
                for bits in (10, 20):
                    options = SolveOptions(qmax_exponent_assert=u, use_snf=use_snf)
                    try:
                        report = solve(system, rat(1, 2**bits), options)
                    except LfpError as exc:
                        outcomes.append([seed, u, use_snf, bits, type(exc).__name__])
                        continue
                    params = report.params
                    row = [rat_str(params.alpha), params.h, params.g, params.u, params.mode]
                    outcomes.append([seed, u, use_snf, bits, row + _outcome(report)])
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def assert_witness(system, approx, upper, eps):
    assert len(upper) == len(approx) == system.n
    assert all(a <= y <= a + eps for a, y in zip(approx, upper))
    assert all(p <= y for p, y in zip(evaluate(system, upper), upper))


# The closed-form h of gambler's ruin (72) and of r = 1 (102) is below 8
# times the first witness grid (20 + 8 bits), so they keep the theorem's
# grid; r = 2 and r = 3 are certified on that first grid.
P1CA_CASES = [
    ("gambler", gamblers_ruin("2/3"), "theorem", 72),
    ("random_p1ca_7_r1", random_p1ca(random.Random(7), 1), "theorem", 102),
    ("random_p1ca_7_r2", random_p1ca(random.Random(7), 2), "witness", 28),
    ("random_p1ca_7_r3", random_p1ca(random.Random(7), 3), "witness", 28),
]


@pytest.mark.parametrize("label,model,kind,h", P1CA_CASES)
def test_p1ca_certificates(label, model, kind, h):
    result = termination_probabilities(model, P1CA_EPS)
    report = result.report
    assert report.status == "certified-eps"
    assert (report.certificate.kind, report.params.h) == (kind, h)
    if kind == "witness":
        approx = [d.value() for d in report.approximation]
        assert_witness(build_termination_mps(model), approx, report.certificate.upper, P1CA_EPS)
    else:
        assert h == result.params["h"]


def test_p1ca_ceiling_bounds_the_closed_form_grid():
    # The closed-form h of r = 2 is 5627.  Below the first witness grid (28)
    # the ceiling refuses it; from 28 up the witness certifies the answer.
    model = random_p1ca(random.Random(7), 2)
    with pytest.raises(ParamsInfeasible):
        termination_probabilities(model, P1CA_EPS, max_h=16)
    for max_h in (28, 5626):
        result = termination_probabilities(model, P1CA_EPS, max_h=max_h)
        assert result.params["h"] == 5627
        report = result.report
        assert (report.certificate.kind, report.params.h) == ("witness", 28)


@pytest.mark.parametrize("n", [4, 8])
def test_random_substochastic_witnesses_recheck(n):
    witnesses = 0
    for seed in range(20):
        system = random_substochastic(random.Random(seed), n)
        try:
            report = solve(system, SUBSTOCH_EPS, SolveOptions(assume_probabilistic=True))
        except ParamsInfeasible:
            continue  # no q*_min bound at this size after normal form
        assert report.status == "certified-eps"
        if report.certificate.kind == "witness":
            witnesses += 1
            approx = [d.value() for d in report.approximation]
            assert_witness(system, approx, report.certificate.upper, SUBSTOCH_EPS)
    assert witnesses >= 15


@pytest.fixture(scope="module")
def chain3_theorem_grid():
    # The certified route runs the theorem's grid h_theorem - u = 2530 with
    # g = h_theorem - 1 = 2530 steps here (u = 1); the override runs exactly
    # that grid.
    return solve(
        doubled_chain(3),
        CHAIN_EPS,
        SolveOptions(qmax_exponent_assert=1, use_snf=False, h_override=2530, g_override=2530),
    )


def test_chain3_theorem_grid_is_unchanged(chain3_theorem_grid):
    report = chain3_theorem_grid
    assert report.params.h == 2530 and report.params.g == 2530
    assert answer_digest(report) == DOUBLED_CHAIN3_THEOREM_ANSWER


def test_random_answers_are_unchanged():
    # Exact arithmetic makes every answer independent of how the linear
    # solves and the divergence probe compute it, so these stay bit for bit.
    assert random_outcomes() == RANDOM_OUTCOMES


def test_steps_reported_are_steps_taken(chain3_theorem_grid):
    # The levels above the bottom pin well before g = 2530 Newton steps.
    assert [run.iterations for run in chain3_theorem_grid.scc_runs] == [2530, 1275, 643]


def test_chain3_is_certified_by_the_cap():
    # q* is below 1 but within eps of it and nearly critical, so no
    # Newton-direction witness passes; P(1) <= 1 holds exactly, and y = 1
    # certifies the first grid whose iterate is within eps of it, far below
    # the theorem's h = 4499.
    system = LEAKY_CHAIN3
    report = solve(system, CHAIN_EPS, SolveOptions(assume_probabilistic=True))
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "witness"
    assert report.params.h == 96 and cert.attempted_h == (24, 48, 96)
    assert [run.iterations for run in report.scc_runs] == [95, 53, 30]
    assert cert.upper == (1, 1, 1)
    approx = [d.value() for d in report.approximation]
    assert_witness(system, approx, cert.upper, CHAIN_EPS)


def test_critical_chain_falls_back_to_theorem():
    # A critical q* = 2 component below a q* = 1/2 one has neither witness,
    # so the theorem's grid decides, bit for bit as before the pre-pass.
    report = solve(MIXED2, CHAIN_EPS, SolveOptions(qmax_exponent_assert=2))
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "theorem" and cert.upper is None
    assert (report.params.h, report.params.g, report.params.u) == (871, 874, 4)
    assert cert.attempted_h == (24, 52)
    assert all(8 * h <= report.params.h for h in cert.attempted_h)
    assert cert.exact_one == ()
    assert answer_digest(report) == MIXED2_THEOREM_ANSWER


def test_cap_requires_exact_post_fixed_point_check():
    # x = a x^2 + b with roots r1 = 1 - 3 eps/4 < r2 = 1 - 3 eps/8 < 1 (the
    # probability flag is a false assertion here): the iterate at 2**-24 is
    # within eps of the cap, yet P(1) > 1, so y = 1 is no witness.  The
    # Newton-direction step eps overshoots r2 and fails as well.
    r1, r2 = 1 - 3 * CHAIN_EPS / 4, 1 - 3 * CHAIN_EPS / 8
    a = 1 / (r1 + r2)
    system = system_of(["x"], [(a, {"x": 2}), (a * r1 * r2, {})])
    assert evaluate(system, [rat(1)])[0] > 1
    report = solve(
        system,
        CHAIN_EPS,
        SolveOptions(assume_probabilistic=True, use_snf=False, h_override=24),
    )
    assert 1 - report.approximation[0].value() <= CHAIN_EPS
    assert report.status == "uncertified"
    assert report.certificate.kind == "none" and report.certificate.upper is None


def test_rescaled_route_finds_witness():
    # x = x^2/8 + 1, q* = 4 - 2 sqrt(2), with no bound asserted: the
    # worst-case u sets the theorem's grid and the step budget, yet the
    # first witness grid, run on the input system, certifies it.
    system = univariate("1/8", 0, "1")
    eps = rat(1, 2**20)
    report = solve(system, eps, SolveOptions(use_snf=False))
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "witness"
    assert report.params.u == qmax_upper_exponent(system, False)
    assert report.params.h == 28 and cert.attempted_h == (28,)
    approx = [d.value() for d in report.approximation]
    assert_witness(system, approx, cert.upper, eps)


def test_worst_case_u_route_finds_witness():
    # With no bound asserted u is 950000 here; the witness grid is still
    # the first one, h = 18, and the witness is exact on the input system.
    system = random_substochastic(random.Random(2), 2)
    eps = rat(1, 2**10)
    report = solve(system, eps)
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "witness"
    assert report.params.u == 950000
    assert report.params.h == 18 and cert.attempted_h == (18,)
    approx = [d.value() for d in report.approximation]
    assert_witness(system, approx, cert.upper, eps)


def test_rescaled_answers_are_unchanged():
    # Grid H of x = 2**-u P(2**u x) is grid H - u of the input, so running
    # the grids on the input moves no answer, parameter or certificate.
    assert rescaled_outcomes() == RESCALED_OUTCOMES


def test_witness_grids_keep_the_rescaled_schedule():
    # Under u = 3 the witness grids are H - u for H = 16 + 3 and 2 (16 + 3),
    # each with H - 1 steps, and the fallback grid is h_theorem - u with
    # g = h_theorem - 1: the grids and step budgets of x = 2**-3 P(2**3 x).
    report = solve(MIXED2, rat(1, 2**8), SolveOptions(qmax_exponent_assert=3, use_snf=False))
    params = report.params
    assert report.certificate.kind == "theorem"
    assert report.certificate.attempted_h == (16, 35)
    assert (params.h, params.g, params.u) == (532, 534, 3)


# x = x^2/2 + 1/2 - 2**-40: q* = 1 - 2**-19.5 (about), nearly critical and
# within 2**-16 of 1.  Its worst-case bound is u = 16350, or u = 1880
# without normal form.
NEAR_CRITICAL = system_of(["x"], [("1/2", {"x": 2}), (rat(1, 2) - rat(1, 2**40), {})])


def test_critical_cap_without_probability_flag():
    # The cap y = 1 is checked on the input system, so a q* within eps of 1
    # is certified on the first grid whatever u is.
    report = solve(NEAR_CRITICAL, CHAIN_EPS)
    cert = report.certificate
    assert report.params.u == 16350
    assert report.status == "certified-eps"
    assert cert.kind == "witness" and cert.upper == (1,)
    assert report.params.h == 24 and cert.attempted_h == (24,)
    assert_witness(NEAR_CRITICAL, [report.approximation[0].value()], cert.upper, CHAIN_EPS)


def test_cli_critical_cap_without_probability_flag(tmp_path):
    # Without normal form u = 1880 keeps params.alpha printable.
    argv = ["solve", "--no-snf", "--epsilon", rat_str(CHAIN_EPS)]
    code, doc = run_cli(argv, serialize_mps(NEAR_CRITICAL), tmp_path)
    assert code == 0
    assert doc["status"] == "certified-eps"
    assert (doc["params"]["h"], doc["params"]["u"]) == (24, 1880)
    assert doc["certificate"] == {"kind": "witness", "attempted_h": [24], "post_fixed_point": {"x": "1"}}


def _huge_u_system():
    # The third system drawn here has the worst-case bound u = 114726562500,
    # far above any ceiling: nothing of size 2**u may be built.
    rng = random.Random(5)
    return [random_substochastic(rng, rng.randint(1, 5)) for _ in range(3)][2]


def test_huge_u_raises_the_ceiling():
    with pytest.raises(ParamsInfeasible, match=r"\(u = 114726562500\) exceeds the ceiling"):
        solve(_huge_u_system(), rat(1, 1024))


def test_cli_huge_u_exits_4(tmp_path):
    code, doc = run_cli(["solve", "--epsilon", "1/1024"], serialize_mps(_huge_u_system()), tmp_path)
    assert code == 4
    assert doc["error"]["type"] == "ParamsInfeasible"


def test_rescaled_theorem_fallback_is_unchanged():
    # x = x^2/4 + 1 is critical at q* = 2: no witness exists, so the
    # theorem's grid for u = 2 (grid 131 of x = 2**-2 P(4 x), so grid 129 of
    # the input) decides the answer, pinned here bit for bit.
    report = solve(
        univariate("1/4", 0, "1"),
        rat(1, 2**20),
        SolveOptions(qmax_exponent_assert=2, use_snf=False),
    )
    params = report.params
    assert (params.h, params.g, params.u) == (129, 130, 2)
    assert report.certificate.kind == "theorem"
    assert report.approximation[0].mantissa == 1361129467683753853853498429727072845823
    assert report.approximation[0].scale == 129


def test_override_without_witness_is_uncertified():
    # q* = (2, 2, 2), but the 2**-4 grid pins the iterates far below it.
    report = solve(
        doubled_chain(3), CHAIN_EPS, SolveOptions(qmax_exponent_assert=2, h_override=4)
    )
    assert [d.value() for d in report.approximation] == [rat(7, 4), rat(5, 4), rat(3, 4)]
    assert report.status == "uncertified"
    assert report.certificate.kind == "none"
    assert report.certificate.attempted_h == (4,)


def test_override_with_witness_stays_certified():
    system = random_substochastic(random.Random(0), 4)
    report = solve(
        system, SUBSTOCH_EPS, SolveOptions(assume_probabilistic=True, h_override=64)
    )
    assert report.status == "certified-eps"
    assert report.certificate.kind == "witness"
    approx = [d.value() for d in report.approximation]
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
