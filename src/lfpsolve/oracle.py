"""Value iteration and the divergence probe.

``value_iterate`` (the q*_min bound of reduced systems of up to
``driver.VALUE_ITERATION_CAP`` variables) and the ``value-iter`` command
step through ``value_iterates``; ``detect_divergence`` is the grid loop's
divergence probe.  Both step on ``mps.evaluate_scaled`` over
``MonotoneSystem.integer_form``, which the Newton kernel reads too, so
neither is an independent check of that kernel.
"""

from __future__ import annotations

from math import gcd

from .mps import MonotoneSystem, evaluate_scaled
from .mps import evaluate  # unused here; perfbench/spans.py times it at this import
from .ratmath import Rat, rational_exceeds_pow2

PROBE_GRID_BITS = 64  # the divergence probe rounds down to multiples of 2**-64


def value_iterates(sys: MonotoneSystem):
    """Yield the exact value iterates P^k(0) = x / s, k = 1, 2, ..., as
    integer numerators x over one shared scale s.  From x = 0 and s = 1,
    each step is x <- L s**D P(x / s) (``mps.evaluate_scaled``) and s <- L
    s**D, and then divides out gcd(s, x_1, ..., x_n), so s is the lcm of
    the reduced denominators.  Every prime factor of s divides L (s_1
    divides L, and s_k divides L s_(k-1)**D), so that gcd is 1 whenever
    gcd(L, x_1, ..., x_n) is, and only then is it skipped: CPython's gcd
    is quadratic, and on a high-degree input the step that outgrows a
    caller's budget has numerators of millions of bits.  Values can grow
    without bound on systems with no finite LFP; the caller owns the step
    budget."""
    form = sys.integer_form
    x, s = [0] * sys.n, 1
    while True:
        x = evaluate_scaled(sys, x, s)
        s = form.denominator * s**form.degree
        g = gcd(s, *x) if gcd(form.denominator, *x) > 1 else 1
        if g > 1:
            x = [xi // g for xi in x]
            s //= g
        yield x, s


def lowest_terms(sys: MonotoneSystem, x: list, s: int) -> list:
    """(p, q) with p / q = x_i / s in lowest terms, for each numerator of an
    iterate (x, s) of ``value_iterates``.  A numerator coprime to L is
    coprime to s, whose prime factors all divide L, so it needs no gcd with
    s."""
    denominator = sys.integer_form.denominator
    pairs = []
    for xi in x:
        g = gcd(xi, s) if gcd(xi, denominator) > 1 else 1
        pairs.append((xi // g, s // g))
    return pairs


def value_iterate(sys: MonotoneSystem, k: int) -> list:
    """P^k(0) in lowest terms, step k of ``value_iterates``: monotone
    nondecreasing in k, and every coordinate is a certified lower bound on
    the least fixed point."""
    if k < 0:
        raise ValueError("step count must be >= 0")
    x, s = [0] * sys.n, 1
    for _, (x, s) in zip(range(k), value_iterates(sys)):
        pass
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
    only: floor(2**bits P(x)) is ``mps.evaluate_scaled``'s L 2**(bits D)
    P(x) floor-divided by the back-scale L 2**(bits (D-1)) of
    ``IntegerForm.back_scale``, and so is the test against the bound (the
    largest mantissa against 2**(PROBE_GRID_BITS + qmax_exponent)).  The
    rounded map is deterministic, so once an iterate repeats the sequence
    is constant and can never cross the bound: the probe stops there.  The probe is
    one-directional: a False answer proves nothing (the budget, on the bit
    size of the iterates as reduced fractions, keeps runaway growth from
    eating the machine).
    """
    scale = 1 << PROBE_GRID_BITS
    back = sys.integer_form.back_scale(scale)
    # Each coordinate's reduced size is at most its mantissa's bit length
    # plus PROBE_GRID_BITS + 1, so the exact count is needed only near the
    # budget.
    slack = (PROBE_GRID_BITS + 1) * sys.n
    x = [0] * sys.n
    for _ in range(max_steps):
        nxt = [acc // back for acc in evaluate_scaled(sys, x, scale)]
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
