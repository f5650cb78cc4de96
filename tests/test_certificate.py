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
from conftest import chain_system, gamblers_ruin, random_p1ca, random_substochastic, univariate

from lfpsolve import SolveOptions, qmax_upper_exponent, rat, solve, termination_probabilities
from lfpsolve.cli import main
from lfpsolve.errors import ParamsInfeasible
from lfpsolve.mps import evaluate, serialize_mps
from lfpsolve.p1ca import build_termination_mps, p1ca_to_json
from lfpsolve.ratmath import rat_str

P1CA_EPS = rat(1, 2**20)
SUBSTOCH_EPS = rat(1, 2**30)
CHAIN_EPS = rat(1, 2**16)

# SHA-256 of json.dumps([rat_str(x) for x in approximation]) for chain3 at
# 2**-16 on the theorem's grid h = 4499, g = 4498.
CHAIN3_THEOREM_ANSWER = "7cc04c8f9eea53678301ee9bfb8439de1641e447fe0962b76f7461bee375c42b"


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
def chain3_report():
    return solve(chain_system(3), CHAIN_EPS, SolveOptions(assume_probabilistic=True))


def test_critical_chain_falls_back_to_theorem(chain3_report):
    report = chain3_report
    cert = report.certificate
    assert report.status == "certified-eps"
    assert cert.kind == "theorem" and cert.upper is None
    assert report.params.h == 4499 and report.params.g == 4498
    assert cert.attempted_h == (24, 48, 96, 192, 384)
    assert all(8 * h <= report.params.h for h in cert.attempted_h)
    answer = json.dumps([rat_str(d.value()) for d in report.approximation])
    assert hashlib.sha256(answer.encode()).hexdigest() == CHAIN3_THEOREM_ANSWER


def test_steps_reported_are_steps_taken(chain3_report):
    # Each level of the chain pins well before g = 4498 Newton steps.
    assert [run.iterations for run in chain3_report.scc_runs] == [4498, 2260, 1136]


def test_rescaled_route_finds_witness():
    # x = x^2/8 + 1, q* = 4 - 2 sqrt(2), with no bound asserted: the solve
    # runs on the system rescaled by the worst-case u, yet the first witness
    # grid certifies it; grids and the witness are on the input's scale.
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


def test_rescaled_theorem_fallback_is_unchanged():
    # x = x^2/4 + 1 is critical at q* = 2: no witness exists, so the
    # theorem's grid on the system rescaled by 2**-2 decides the answer,
    # pinned here bit for bit.
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
    # q* = (1, 1, 1), but the 2**-4 grid pins the iterates far below it.
    report = solve(
        chain_system(3), CHAIN_EPS, SolveOptions(assume_probabilistic=True, h_override=4)
    )
    assert [d.value() for d in report.approximation] == [rat(7, 8), rat(5, 8), rat(3, 8)]
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
        serialize_mps(chain_system(3)),
        tmp_path,
    )
    assert code == 0
    assert doc["status"] == "uncertified"
    assert doc["certificate"] == {"kind": "none", "attempted_h": [4]}
    assert doc["approximation"] == ["7/8", "5/8", "3/8"]
