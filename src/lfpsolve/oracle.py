"""Value iteration, the divergence probe, and the closed-form univariate
solver.

``univariate_quadratic_lfp`` and ``AlgebraicRoot`` are independent
oracles: they share no code path with the Newton solver, and the test
suite holds the solver against them.  ``value_iterate`` is the solver's
q*_min bound, which ``driver`` computes for every reduced system of up to
``driver.VALUE_ITERATION_CAP`` variables.
``detect_divergence`` is the solver's divergence probe (``driver`` runs it
in the grid loop of most solves); it steps on ``mps.grid_system``, the
integer grid form of the Newton kernel, so it is no independent check of
that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import NoFiniteLfp
from .mps import MonotoneSystem, evaluate_on_grid, evaluate_scaled, grid_system
from .mps import evaluate  # unused here; perfbench/spans.py times it at this import
from .ratmath import (
    ONE,
    ZERO,
    Rat,
    den,
    is_perfect_square,
    num,
    rat,
    rational_exceeds_pow2,
    sqrt_bounds,
    sqrt_exact,
)

PROBE_GRID_BITS = 64  # the divergence probe rounds down to multiples of 2**-64


def value_iterate(sys: MonotoneSystem, k: int) -> list:
    """Exact k-fold value iterate P^k(0), in lowest terms.

    Monotone nondecreasing in k, and every coordinate is a certified lower
    bound on the least fixed point.  The iterate is kept as integer
    numerators x over one shared scale s, x_k = x / s, starting from x = 0
    and s = 1: each step is x <- L s**D P(x / s) (``mps.evaluate_scaled``)
    and s <- L s**D, and then divides out gcd(s, x_1, ..., x_n), which keeps
    the numbers near the size of the reduced fractions.  Values can grow
    without bound on systems with no finite LFP; the caller owns the step
    budget.
    """
    if k < 0:
        raise ValueError("step count must be >= 0")
    form = sys.integer_form
    x, s = [0] * sys.n, 1
    for _ in range(k):
        x = evaluate_scaled(sys, x, s)
        s = form.denominator * s**form.degree
        g = gcd(s, *x)
        if g > 1:
            x = [xi // g for xi in x]
            s //= g
    return [Rat(xi, s) for xi in x]


def detect_divergence(
    sys: MonotoneSystem,
    qmax_exponent: int,
    max_steps: int = 48,
    bit_budget: int = 1 << 20,
) -> bool:
    """Bounded probe: does value iteration certifiably escape 2**qmax_exponent?

    Iterates x_0 = 0, x_{k+1} = floor(P(x_k)) on the 2**-PROBE_GRID_BITS
    grid.  Since P is monotone, induction gives x_k <= P^k(0) <= q*, so
    every iterate is a lower bound on any finite LFP, and exceeding an upper
    bound that every finite LFP must respect certifies that none exists.
    Rounding keeps iterates at a fixed number of fractional bits instead of
    doubling them each step.  The iterates are kept as integer mantissas m
    (x = m * 2**-PROBE_GRID_BITS) and each step is computed in integers
    only, by ``mps.evaluate_on_grid`` over the coefficients' common
    denominator, and so is the test against the bound (the largest mantissa
    against 2**(PROBE_GRID_BITS + qmax_exponent)).  The rounded map is
    deterministic, so once an iterate repeats the sequence is constant and
    can never cross the bound: the probe stops there.  The probe is
    one-directional: a False answer proves nothing (the budget, on the bit
    size of the iterates as reduced fractions, keeps runaway growth from
    eating the machine).
    """
    grid = grid_system(sys, PROBE_GRID_BITS)
    # Each coordinate's reduced size is at most its mantissa's bit length
    # plus PROBE_GRID_BITS + 1, so the exact count is needed only near the
    # budget.
    slack = (PROBE_GRID_BITS + 1) * sys.n
    x = [0] * sys.n
    for _ in range(max_steps):
        nxt = evaluate_on_grid(grid, x)
        # The crossing test is monotone in the mantissa: the largest decides,
        # and m * 2**-bits > 2**e is the integer test m > 2**(bits + e).
        if nxt and rational_exceeds_pow2(max(nxt), PROBE_GRID_BITS + qmax_exponent):
            return True
        if nxt == x:
            return False
        x = nxt
        if sum(map(int.bit_length, x)) + slack > bit_budget and sum(map(_reduced_bits, x)) > bit_budget:
            return False
    return False


def _reduced_bits(m: int) -> int:
    """Numerator plus denominator bit lengths of m * 2**-PROBE_GRID_BITS in
    lowest terms."""
    if m == 0:
        return 1  # 0/1
    twos = min((m & -m).bit_length() - 1, PROBE_GRID_BITS)
    return m.bit_length() - twos + PROBE_GRID_BITS - twos + 1


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
        return float(num(lo + hi)) / float(den(lo + hi)) / 2.0


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
