"""Property tests.  A certified solve of a random univariate quadratic
x = a x^2 + b x + c either raises one of the documented errors or returns
an answer x with x <= q* <= x + epsilon, checked against the exact least
fixed point of ``univariate_quadratic_lfp``; a witness it reports must
itself prove that bound.  On random substochastic systems of up to four
variables and on critical univariate quadratics, every witness is checked
with plain ``Fraction`` arithmetic on the test's own copy of the
polynomials, and on the test generator's substochastic systems, in both
modes, with ``mps.evaluate``."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import random_substochastic, univariate
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from lfpsolve import SolveOptions, solve, system_of
from lfpsolve.errors import DivergenceCertified, ParamsInfeasible, SingularMatrix
from lfpsolve.mps import evaluate
from lfpsolve.ratmath import ceil_log2
from reference import NoFiniteLfp, univariate_quadratic_lfp

ALLOWED = (DivergenceCertified, ParamsInfeasible, SingularMatrix)
MAX_H = 2000  # small, so that theorem fallbacks end fast

coefficient = st.fractions(min_value=0, max_value=1, max_denominator=16)


def _upper(q):
    """A rational upper bound on the exact root."""
    return q if isinstance(q, Fraction) else q.enclosure(64)[1]


@pytest.mark.parametrize("bound", ["worst-case", "asserted", "probability-flag"])
@settings(max_examples=80, derandomize=True, deadline=None)
@given(a=coefficient, b=coefficient, c=coefficient, bits=st.sampled_from([4, 8, 16]), slack=st.integers(0, 2))
def test_certified_answer_brackets_the_lfp(bound, a, b, c, bits, slack):
    try:
        q = univariate_quadratic_lfp(a, b, c)
    except NoFiniteLfp:
        q = None
    if bound == "worst-case":
        options = SolveOptions(max_h=MAX_H)
    elif bound == "asserted":
        assume(q is not None)
        upper = _upper(q)
        exponent = ceil_log2(upper) if upper > 1 else 0
        options = SolveOptions(qmax_exponent_assert=exponent + slack, max_h=MAX_H)
    else:
        assume(q is not None and q <= 1)
        options = SolveOptions(qmax_exponent_assert=0, max_h=MAX_H)
    eps = Fraction(1, 2**bits)
    system = univariate(a, b, c)
    try:
        report = solve(system, eps, options)
    except ALLOWED as exc:
        event(type(exc).__name__)
        return
    assert q is not None, "certified answer for a system without a finite LFP"
    assert report.status == "certified-eps"
    cert = report.certificate
    event(cert.kind)
    x = report.approximation[0].value()
    assert x <= q <= x + eps
    if cert.kind == "witness":
        # the witness itself must prove the bound, checked exactly
        (y,) = cert.upper
        assert evaluate(system, [y])[0] <= y
        assert x <= y <= x + eps


@st.composite
def substochastic_rows(draw):
    """Rows of (coefficient, variable indices) terms, each with a positive
    constant and coefficients summing to at most 1, so q* <= 1."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(n):
        constant = draw(st.fractions(min_value=Fraction(1, 16), max_value=Fraction(1, 2), max_denominator=16))
        budget = 1 - constant
        row = [(constant, ())]
        for _ in range(draw(st.integers(0, 3))):
            factors = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)))
            coefficient = budget * draw(st.fractions(min_value=0, max_value=1, max_denominator=8))
            if coefficient:
                budget -= coefficient
                row.append((coefficient, factors))
        rows.append(row)
    return rows


def _evaluate_rows(rows, y):
    values = []
    for row in rows:
        total = Fraction(0)
        for coefficient, factors in row:
            term = coefficient
            for v in factors:
                term *= y[v]
            total += term
        values.append(total)
    return values


def _system(rows):
    names = [f"v{i}" for i in range(len(rows))]
    equations = []
    for row in rows:
        terms = []
        for coefficient, factors in row:
            if not coefficient:
                continue
            powers: dict = {}
            for v in factors:
                powers[names[v]] = powers.get(names[v], 0) + 1
            terms.append((coefficient, powers))
        equations.append(terms)
    return system_of(names, *equations)


def _assert_witness_brackets(rows, report, eps):
    approx = [d.value() for d in report.approximation]
    upper = [Fraction(y) for y in report.certificate.upper]
    assert all(p <= y for p, y in zip(_evaluate_rows(rows, upper), upper))
    assert all(x <= y <= x + eps for x, y in zip(approx, upper))
    return approx, upper


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rows=substochastic_rows(), bits=st.sampled_from([8, 16]))
def test_substochastic_witness_rechecks(rows, bits):
    eps = Fraction(1, 2**bits)
    try:
        report = solve(_system(rows), eps, SolveOptions(qmax_exponent_assert=0, max_h=512))
    except (ParamsInfeasible, SingularMatrix) as exc:
        event(type(exc).__name__)
        return
    assert report.status == "certified-eps"
    event(report.certificate.kind)
    if report.certificate.kind == "witness":
        _assert_witness_brackets(rows, report, eps)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 4),
    bits=st.sampled_from([8, 16]),
    mode=st.sampled_from(["certified", "adaptive"]),
    h_override=st.sampled_from([None, None, 4]),
)
def test_multivariate_witness_is_sound(seed, n, bits, mode, h_override):
    # Every witness of a random substochastic system brackets the answer
    # from above by at most eps and is a post-fixed point, checked with
    # mps.evaluate on Fractions; the status is certified exactly when some
    # certificate backs it.  A coarse --h grid gives runs without one.
    system = random_substochastic(random.Random(seed), n)
    eps = Fraction(1, 2**bits)
    options = SolveOptions(mode=mode, qmax_exponent_assert=0, h_override=h_override)
    try:
        report = solve(system, eps, options)
    except ParamsInfeasible as exc:
        event(type(exc).__name__)
        return
    cert = report.certificate
    event(cert.kind)
    assert (report.status == "certified-eps") == (cert.kind != "none")
    if cert.kind == "witness":
        approx = [Fraction(d.value()) for d in report.approximation]
        upper = [Fraction(y) for y in cert.upper]
        assert all(x <= y <= x + eps for x, y in zip(approx, upper))
        assert all(p <= y for p, y in zip(evaluate(system, upper), upper))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    a=st.fractions(min_value=Fraction(1, 16), max_value=2, max_denominator=16),
    b=st.fractions(min_value=0, max_value=Fraction(15, 16), max_denominator=16),
    bits=st.sampled_from([8, 16]),
    use_snf=st.booleans(),
)
def test_critical_witness_brackets_the_double_root(a, b, bits, use_snf):
    # c = (1 - b)^2 / (4a) makes the discriminant zero: q* = (1 - b) / (2a)
    # is a double root, where I - B(q*) is singular.
    c = (1 - b) ** 2 / (4 * a)
    q_star = (1 - b) / (2 * a)
    exponent = 0
    while 2**exponent < q_star:
        exponent += 1
    rows = [[(a, (0, 0)), (b, (0,)), (c, ())]]
    eps = Fraction(1, 2**bits)
    options = SolveOptions(qmax_exponent_assert=exponent, use_snf=use_snf, max_h=512)
    try:
        report = solve(_system(rows), eps, options)
    except ParamsInfeasible:
        event("ParamsInfeasible")
        return
    event(report.certificate.kind)
    x = report.approximation[0].value()
    assert x <= q_star <= x + eps
    if report.certificate.kind == "witness":
        (x,), (y,) = _assert_witness_brackets(rows, report, eps)
        assert x <= q_star <= y
