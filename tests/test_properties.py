"""Property test: a certified solve of a random univariate quadratic
x = a x^2 + b x + c either raises one of the documented errors or returns
an answer x with x <= q* <= x + epsilon, checked against the exact least
fixed point of ``univariate_quadratic_lfp``; a witness it reports must
itself prove that bound."""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import univariate
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from lfpsolve import SolveOptions, solve, univariate_quadratic_lfp
from lfpsolve.errors import DivergenceCertified, NoFiniteLfp, ParamsInfeasible, SingularMatrix
from lfpsolve.mps import evaluate
from lfpsolve.ratmath import ceil_log2

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
        options = SolveOptions(assume_probabilistic=True, max_h=MAX_H)
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
