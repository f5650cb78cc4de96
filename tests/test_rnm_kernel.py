"""Property test: ``run_rnm`` gives the same iterates, the same step count
and the same exception as rounded Newton written from the exact rational
operator ``newton_step`` and ``round_down_dyadic``, on random quadratic
systems with zero diagonals and singular I - B among them."""

from __future__ import annotations

from fractions import Fraction

from conftest import univariate
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lfpsolve import (
    DivergenceCertified,
    Dyadic,
    MonotoneSystem,
    RnmConfig,
    SingularMatrix,
    make_monomial,
    newton_step,
    round_down_dyadic,
    run_rnm,
    system_of,
)

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
