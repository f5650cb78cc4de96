"""Exact arithmetic: rationals, dyadic fixed-point values, and sparse
linear algebra.

Every certificate in this package rests on intermediate values being exact,
so this module offers no floating-point escape hatch.  Solves and commands
compute on Python integers; a rational (``Rat``, ``fractions.Fraction``)
only enters (parsing, coefficients) or leaves (bounds, witnesses, answers,
traces).  Linear systems are solved by one fraction-free sparse elimination
on integer rows (``solve_integer``).  The rational ``solve_linear`` and
``round_down_dyadic`` run in no solve: the benchmark's traced spans
(``perfbench/spans.py``) and independent checks use them.  All values are
immutable and all functions are pure, so everything is thread-safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction as Rat
from math import gcd, lcm
from typing import Sequence

from .errors import SingularMatrix

RAT_BACKEND = "fractions"  # the one rational type; perfbench/run.py prints it

ZERO = Rat(0)
ONE = Rat(1)
HALF = Rat(1, 2)

_RAT_RE = re.compile(r"^(-?\d+)(?:/([1-9][0-9]*))?$")


def rat(value, denominator=None):
    """Coerce to an exact rational.

    Accepts ints, rationals, ``"p"`` / ``"p/q"`` strings, and an optional
    explicit denominator.  Floats are deliberately rejected: a binary float
    smuggled into a certificate would silently change the input.
    """
    if denominator is not None:
        return Rat(value, denominator)
    if isinstance(value, str):
        return parse_rat(value)
    if isinstance(value, float):
        raise ValueError("floats are not accepted; pass an exact rational")
    return Rat(value)


def parse_rat(text: str):
    """Parse the strict wire form ``"p"`` or ``"p/q"`` (decimal digits only)."""
    match = _RAT_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    p = int(match.group(1))
    q = int(match.group(2)) if match.group(2) else 1
    return Rat(p, q)


def rat_str(q) -> str:
    """Serialize as ``"p/q"``, or just ``"p"`` when the denominator is 1."""
    return str(q)


def ceil_log2(q) -> int:
    """Smallest integer L with q <= 2**L, computed exactly.

    Used to over-approximate the logarithms in parameter formulas: replacing
    log2(x) by ceil_log2(x) never rounds a certificate in the unsafe
    direction, and is tight on exact powers of two.
    """
    if q <= 0:
        raise ValueError("ceil_log2 requires a positive argument")
    # With gap = bitlen(num) - bitlen(den), 2**(gap - 1) < q < 2**(gap + 1),
    # so the answer is gap or gap + 1.
    gap = q.numerator.bit_length() - q.denominator.bit_length()
    return gap + 1 if rational_exceeds_pow2(q, gap) else gap


def rational_exceeds_pow2(q, exponent: int) -> bool:
    """Exact test of q > 2**exponent.

    Safe for astronomically large exponents: bit-length comparisons decide
    all but a one-bit window, so 2**exponent is never materialized unless it
    is no larger than q itself.
    """
    if q <= 0:
        return False
    a, b = q.numerator, q.denominator
    gap = a.bit_length() - b.bit_length()  # log2(q) lies in (gap-1, gap+1)
    if exponent <= gap - 1:
        return True
    if exponent >= gap + 1:
        return False
    # exponent == gap: compare a with b * 2**gap; the shifted side has the
    # same bit length as an existing operand, so this stays cheap.
    if gap >= 0:
        return a > (b << gap)
    return (a << -gap) > b


@dataclass(frozen=True)
class Dyadic:
    """Exact value ``mantissa * 2**-scale`` on the 2**-scale grid.

    Kept distinct from Rational so that "is a multiple of 2**-h" is a fact
    of the type, not something to re-check by value inspection.
    """

    mantissa: int
    scale: int

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be non-negative")

    def value(self):
        return Rat(self.mantissa, 1 << self.scale)


def round_down_dyadic(v, h: int) -> Dyadic:
    """Largest multiple of 2**-h that is <= max(v, 0)."""
    if h < 1:
        raise ValueError("rounding parameter h must be >= 1")
    if v <= 0:
        return Dyadic(0, h)
    return Dyadic((v.numerator << h) // v.denominator, h)


# --- sparse linear algebra ----------------------------------------------------
#
# Vectors are plain lists.  A matrix is a list of rows, and each row is a
# {column: nonzero value} dict: the Jacobian of a decomposed component has
# only a few nonzeros per row, so work proportional to the nonzeros, not to
# n**2, is what keeps each exact Newton step cheap.  Entries that are exactly
# zero are never stored.  Dimensions are validated at the entry points that
# need them.


def identity_minus(b: Sequence[dict]) -> list:
    """I - B for a square matrix B given as sparse rows."""
    out = []
    for i, row in enumerate(b):
        neg = {j: -v for j, v in row.items()}
        diagonal = ONE - row[i] if i in row else ONE
        if diagonal:
            neg[i] = diagonal
        else:
            del neg[i]
        out.append(neg)
    return out


def vec_sub(a: Sequence, b: Sequence) -> list:
    return [x - y for x, y in zip(a, b)]


def _integer_rows(a: Sequence, b: Sequence) -> tuple:
    """Integer copies of the square system A x = b, each row (right-hand side
    included) scaled by the lcm of its denominators; dense list rows become
    sparse here, once."""
    n = len(a)
    if len(b) != n:
        raise ValueError("right-hand side has wrong dimension")
    rows, rhs = [], []
    for row, bi in zip(a, b):
        if isinstance(row, dict):
            if any(not 0 <= j < n for j in row):
                raise ValueError("matrix must be square")
            entries = {j: v for j, v in row.items() if v != 0}
        else:
            if len(row) != n:
                raise ValueError("matrix must be square")
            entries = {j: v for j, v in enumerate(row) if v != 0}
        scale = lcm(bi.denominator, *(v.denominator for v in entries.values()))
        rows.append({j: v.numerator * (scale // v.denominator) for j, v in entries.items()})
        rhs.append(bi.numerator * (scale // bi.denominator))
    return rows, rhs


def solve_linear(a: Sequence, b: Sequence) -> list:
    """Exact solution of A x = b for square A with rational entries.

    A is given as sparse rows ({column: value} dicts) or as dense lists.
    Each row is scaled to integers and solved by ``solve_integer``, the one
    elimination routine of this package.  Raises SingularMatrix when A has
    no inverse, which during Newton iteration signals an undefined iterate.
    """
    rows, rhs = _integer_rows(a, b)
    return [Rat(p, q) for p, q in solve_integer(rows, rhs)]


def solve_integer(rows: list, rhs: list) -> list:
    """Exact solution of A x = r for integer sparse rows, as (numerator,
    denominator) pairs in lowest terms with positive denominators.  Consumes
    ``rows`` and ``rhs``.

    Fraction-free sparse elimination.  Pivots follow Markowitz's rule: the
    remaining nonzero diagonal entry with the smallest (row nonzeros - 1) *
    (column nonzeros - 1), which bounds its fill-in, ties on the lowest
    index; with no nonzero diagonal entry left, the lowest remaining column
    with a nonzero entry pivots on its lowest row.  A row with entry c under
    pivot p becomes (p/g) row - (c/g) pivot row, g = gcd(p, c), and is then
    divided by its content (the gcd of its entries and right-hand side), so
    entries stay near the size of the row's own minors.  Entries that cancel
    to 0 are dropped.  Every update scales a row by a nonzero integer, so
    the pivots, and the SingularMatrix raised when none is left, are those
    of rational elimination.
    """
    n = len(rows)
    cols = [set() for _ in range(n)]  # column -> remaining rows with a nonzero there
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    remaining = list(range(n))  # columns not yet pivoted, ascending
    row_done = [False] * n
    pivots = []  # (row, column) in elimination order
    for _ in range(n):
        pr = pc = None
        best = None
        for i in remaining:
            if not row_done[i] and i in rows[i]:
                score = (len(rows[i]) - 1) * (len(cols[i]) - 1)
                if best is None or score < best:
                    pr, pc, best = i, i, score
                    if score == 0:
                        break
        if pr is None:
            pc = next((j for j in remaining if cols[j]), None)
            if pc is None:
                raise SingularMatrix(f"no pivot in column {remaining[0]}")
            pr = min(cols[pc])
        pivot_row = rows[pr]
        lead = pivot_row[pc]
        for j in pivot_row:
            cols[j].discard(pr)
        others = [(j, v) for j, v in pivot_row.items() if j != pc]
        pivot_rhs = rhs[pr]
        for r in cols[pc]:
            row = rows[r]
            entry = row.pop(pc)
            g = gcd(lead, entry)
            keep, factor = lead // g, entry // g
            if keep != 1:
                for j in row:
                    row[j] *= keep
            for j, v in others:
                prev = row.get(j)
                if prev is None:
                    row[j] = -factor * v
                    cols[j].add(r)
                else:
                    updated = prev - factor * v
                    if updated:
                        row[j] = updated
                    else:
                        del row[j]
                        cols[j].discard(r)
            value = keep * rhs[r] - factor * pivot_rhs
            content = gcd(value, *row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
                value //= content
            rhs[r] = value
        cols[pc] = set()
        remaining.remove(pc)
        row_done[pr] = True
        pivots.append((pr, pc))
    x = [(0, 1)] * n
    for pr, pc in reversed(pivots):
        row = rows[pr]
        p, q = rhs[pr], 1  # the value p/q of rhs - sum of the solved terms
        for j, v in row.items():
            xn, xd = x[j]
            if j != pc and xn:
                g = gcd(q, xd)
                p, q = p * (xd // g) - v * xn * (q // g), q // g * xd
        q *= row[pc]
        if q < 0:
            p, q = -p, -q
        g = gcd(p, q)
        x[pc] = (p // g, q // g)
    return x
