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
- ``brute_force_decomposition``: SCCs, their order, linearity and heights
  from their definitions, independent of ``decomposition.decompose``.
- ``univariate_quadratic_lfp`` and ``AlgebraicRoot``: the least
  non-negative root of x = a x**2 + b x + c in closed form, exact also
  when it is irrational; ``NoFiniteLfp`` when there is none.  They share
  no code with the Newton solver.
- ``sqrt_upper``, ``is_perfect_square``, ``sqrt_exact``, ``sqrt_bounds``
  and ``mat_vec_mul``: the rational helpers of the above.

Two more are the rational forms of checks the solver runs in integers, kept
so that the tests can hold the integer versions to them:

- ``fraction_value_iterate``: P^k(0) by ``evaluate``, one normalized
  rational per operation, against ``oracle.value_iterate``;
- ``rational_pivots_pass``: diagonal-pivot elimination in rationals,
  against ``driver._diagonal_pivots_pass``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from lfpsolve import (
    LfpError,
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


def fraction_value_iterate(sys: MonotoneSystem, k: int) -> list:
    """Exact P^k(0), one ``evaluate`` per step."""
    x = [ZERO] * sys.n
    for _ in range(k):
        x = evaluate(sys, x)
    return x


def rational_pivots_pass(rows: list) -> bool:
    """Elimination of a Z-matrix given as sparse rows with diagonal pivots
    only, in order, in rationals: True when the first n - 1 pivots are > 0
    and the last is >= 0.  Consumes ``rows``."""
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row.get(k, ZERO)
        if pivot < 0 or (pivot == 0 and k < len(rows) - 1):
            return False
        for row in rows[k + 1 :]:
            factor = row.pop(k, None)
            if factor is None:
                continue
            scale = Rat(factor, pivot)
            for j, a in pivot_row.items():
                if j > k:
                    value = row.get(j, ZERO) - scale * a
                    if value:
                        row[j] = value
                    else:
                        row.pop(j, None)
    return True


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


def is_perfect_square(q) -> bool:
    """Whether q is the square of a rational (q in lowest terms)."""
    if q < 0:
        return False
    p, s = int(q.numerator), int(q.denominator)
    return isqrt(p) ** 2 == p and isqrt(s) ** 2 == s


def sqrt_exact(q):
    """Exact square root of a perfect rational square."""
    return Rat(isqrt(int(q.numerator)), isqrt(int(q.denominator)))


def sqrt_bounds(q, bits: int = 64):
    """Rational bracket (lo, hi) with lo <= sqrt(q) <= hi and hi - lo <= 2**-bits."""
    if q < 0:
        raise ValueError("negative radicand")
    p, s = int(q.numerator), int(q.denominator)
    r = isqrt((p << (2 * bits)) * s)
    denom = s << bits
    return Rat(r, denom), Rat(r + 1, denom)


class NoFiniteLfp(LfpError):
    """Closed-form analysis shows the equation has no finite least fixed point."""


@dataclass(frozen=True)
class AlgebraicRoot:
    """Exact value (p - sqrt(d)) / q with rational p, q > 0, and d > 0 not a
    perfect square.  Comparisons against rationals reduce to integer sign
    tests, so oracle checks stay exact."""

    p: object
    d: object
    q: object

    def __post_init__(self):
        if self.q <= 0 or self.d < 0:
            raise ValueError("need q > 0 and d >= 0")

    def compare(self, r) -> int:
        """Sign of (self - r) for rational r."""
        t = self.p - rat(r) * self.q  # self >= r  <=>  t >= sqrt(d)
        if t < 0:
            return -1
        tt = t * t
        if tt > self.d:
            return 1
        if tt < self.d:
            return -1
        return 0

    def __lt__(self, r):
        return self.compare(r) < 0

    def __le__(self, r):
        return self.compare(r) <= 0

    def __gt__(self, r):
        return self.compare(r) > 0

    def __ge__(self, r):
        return self.compare(r) >= 0

    def enclosure(self, bits: int = 64):
        lo_s, hi_s = sqrt_bounds(self.d, bits)
        return (self.p - hi_s) / self.q, (self.p - lo_s) / self.q

    def __float__(self):
        lo, hi = self.enclosure(60)
        mid = lo + hi
        return float(mid.numerator) / float(mid.denominator) / 2.0


def univariate_quadratic_lfp(a, b, c):
    """Least non-negative root of x = a*x**2 + b*x + c, exactly.

    Returns a rational when the root is rational and an AlgebraicRoot in
    (p - sqrt(D))/q form otherwise; raises NoFiniteLfp when no non-negative
    fixed point exists (negative discriminant, or both roots negative).
    """
    a, b, c = rat(a), rat(b), rat(c)
    if a < 0 or b < 0 or c < 0:
        raise ValueError("need a, b, c >= 0")
    if a == 0:
        if b < 1:
            return c / (ONE - b)
        if c == 0:
            return ZERO
        raise NoFiniteLfp(f"x = {b}x + {c} has no finite least fixed point")
    disc = (b - ONE) ** 2 - 4 * a * c
    if disc < 0:
        raise NoFiniteLfp("negative discriminant: the parabola never meets the line")
    if c == 0:
        return ZERO  # 0 is a root and no root is smaller than 0
    if b >= 1:
        # With c > 0 both roots share a sign and their sum (1-b)/a is <= 0.
        raise NoFiniteLfp("both fixed points are negative")
    if is_perfect_square(disc):
        return ((ONE - b) - sqrt_exact(disc)) / (2 * a)
    return AlgebraicRoot(p=ONE - b, d=disc, q=2 * a)


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


def brute_force_decomposition(sys: MonotoneSystem) -> tuple:
    """(components, depth, nonlinear depth) of ``sys`` from the definitions,
    each component as (sorted vars, nonlinear, height, nonlinear height).

    Components are the classes of mutual reachability in the graph with an
    edge i -> j when x_j occurs in P_i.  They come in the pinned order: by
    height, ties by smallest variable.  A component is nonlinear when
    some monomial of its equations has degree >= 2 in its own variables;
    its heights count the components, and the nonlinear ones, on the
    longest dependency path that starts at it.
    """
    n = sys.n
    edges = [{v for mono in terms for v, _ in mono.exponents} for terms in sys.equations]
    reach = []
    for i in range(n):
        seen, todo = {i}, [i]
        while todo:
            for j in edges[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    comp = [frozenset(j for j in reach[i] if i in reach[j]) for i in range(n)]
    deps = {c: {comp[j] for i in c for j in edges[i]} - {c} for c in set(comp)}

    def nonlinear(c) -> bool:
        return any(sum(e for v, e in mono.exponents if v in c) >= 2 for i in c for mono in sys.equations[i])

    def longest(c, weight) -> int:
        return weight(c) + max((longest(d, weight) for d in deps[c]), default=0)

    sccs = sorted(
        ((tuple(sorted(c)), nonlinear(c), longest(c, lambda _: 1), longest(c, nonlinear)) for c in deps),
        key=lambda s: (s[2], s[0][0]),
    )
    return sccs, max((s[2] for s in sccs), default=0), max((s[3] for s in sccs), default=0)
