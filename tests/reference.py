"""Formulas from the paper's proofs that no solve runs, written out so the
tests can hold the solver and the paper's claims against them.

- ``rescale``: the map x = 2**-u P(2**u x).  The solver never builds it;
  it runs grid H - u of the input instead, which is sound only because
  rounded Newton commutes with the map bit for bit.
- ``certify_params_scc``: the convergence theorem's (h, g) for one
  strongly connected system with q* <= 1.
- ``perturbation_bound``: how far a component's LFP can move when its
  inputs move down by dy.
- ``zero_set_oracle``: the zero set of q* read off P^n(0), independent of
  ``mps.detect_zero_variables``.
- ``linear_lfp``: the exact LFP of a linear system.
- ``sqrt_upper`` and ``mat_vec_mul``: the rational helpers of the above.
"""

from __future__ import annotations

from math import isqrt

from lfpsolve import (
    Monomial,
    MonotoneSystem,
    RnmConfig,
    ceil_log2,
    evaluate,
    rat,
    solve_linear,
    value_iterate,
)
from lfpsolve.mps import eval_jacobian
from lfpsolve.ratmath import ONE, ZERO, Rat, identity_minus


def rescale(sys: MonotoneSystem, u: int) -> MonotoneSystem:
    """The system x = 2**-u P(2**u x), whose LFP is 2**-u q*.

    Concretely the coefficient of every degree-k monomial is multiplied by
    2**(u(k-1)); the variable support is untouched, so the decomposition of
    the original system carries over verbatim.
    """
    if u < 0:
        raise ValueError("u must be non-negative")
    if u == 0:
        return sys
    equations = []
    for terms in sys.equations:
        scaled = []
        for mono in terms:
            shift = u * (mono.degree - 1)
            if shift >= 0:
                coeff = mono.coeff * (1 << shift)
            else:
                coeff = mono.coeff / (1 << -shift)
            scaled.append(Monomial(coeff, mono.exponents))
        equations.append(tuple(scaled))
    return MonotoneSystem(sys.names, tuple(equations))


def certify_params_scc(n: int, alpha, epsilon) -> RnmConfig:
    """Certified (h, g) for one strongly connected system with LFP <= 1.

    h = ceil(2 + n*log2(1/alpha) + log2(1/epsilon)) with each logarithm
    over-approximated by its exact integer ceiling (never under), g = h - 1.
    With these parameters the final rounded iterate is within epsilon of the
    component's least fixed point.
    """
    alpha = rat(alpha)
    epsilon = rat(epsilon)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if n < 1:
        raise ValueError("need at least one variable")
    h = 2 + n * ceil_log2(ONE / alpha) + ceil_log2(ONE / epsilon)
    return RnmConfig(h=h, g=h - 1)


def perturbation_bound(scc_sys: MonotoneSystem, alpha, norm_p1, dy, linear: bool):
    """Predicted LFP shift of a component when its inputs move down by dy.

    Nonlinear components get sqrt(4 n alpha^-(3n+1) ||P(1,1)|| dy) (square
    root over-approximated by a rational upper bound); linear components get
    2 n alpha^-(n+2) ||P(1,1)|| dy.
    """
    alpha, norm_p1, dy = rat(alpha), rat(norm_p1), rat(dy)
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    if dy < 0:
        raise ValueError("dy must be non-negative")
    if dy == 0:
        return ZERO
    n = scc_sys.n
    inv = ONE / alpha
    if linear:
        return 2 * n * inv ** (n + 2) * norm_p1 * dy
    return sqrt_upper(4 * n * inv ** (3 * n + 1) * norm_p1 * dy)


def zero_set_oracle(sys: MonotoneSystem) -> frozenset:
    """Indices with P^n(0) coordinate exactly 0 == the zero set of the LFP."""
    x = value_iterate(sys, sys.n)
    return frozenset(i for i, xi in enumerate(x) if xi == 0)


def linear_lfp(sys: MonotoneSystem) -> list:
    """Exact LFP (I - B)^-1 P(0) of a system of degree <= 1 whose matrix B
    has spectral radius below 1.  Raises SingularMatrix when I - B has no
    inverse."""
    if sys.degree() > 1:
        raise ValueError("linear_lfp needs a system of degree <= 1")
    zero = [ZERO] * sys.n
    return solve_linear(identity_minus(eval_jacobian(sys, zero)), evaluate(sys, zero))


def sqrt_upper(q):
    """A rational upper bound on sqrt(q), exact when q is a perfect square."""
    if q < 0:
        raise ValueError("negative radicand")
    p, s = int(q.numerator), int(q.denominator)
    r = isqrt(p * s)
    if r * r == p * s:
        return Rat(r, s)
    return Rat(r + 1, s)


def mat_vec_mul(a, x) -> list:
    """A x for sparse rows, or for dense list rows."""
    out = []
    for row in a:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        acc = ZERO
        for j, coeff in items:
            xv = x[j]
            if coeff != 0 and xv != 0:
                acc = acc + coeff * xv
        out.append(acc)
    return out
