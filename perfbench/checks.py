"""Answer checks that share no code with the solver.

Everything here works on the model JSON the benchmark wrote and on the
result JSON the CLI printed.  The only arithmetic is exact polynomial
evaluation with ``fractions.Fraction``:

* a lower reference comes from value iteration rounded down onto a 2**-G
  grid, which stays below q* because P is monotone;
* an upper bound y is accepted only after P(y) <= y has been checked
  exactly, because by Knaster-Tarski every such y >= 0 is >= q*.

An answer a to tolerance eps passes when lower - eps <= a <= upper in every
coordinate: a sound one-sided answer lies in [q* - eps, q*].
"""

from __future__ import annotations

from fractions import Fraction


def compile_mps(doc: dict) -> list:
    """Equations as lists of (coefficient, ((index, exponent), ...))."""
    index = {name: i for i, name in enumerate(doc["vars"])}
    return [
        [(Fraction(t["c"]), tuple((index[v], e) for v, e in t["m"].items())) for t in eq]
        for eq in doc["eqs"]
    ]


def termination_equations(doc: dict) -> list:
    """x_uv = p-(u,v) + sum_w p0(u,w) x_wv + sum_y p+(u,y) sum_z x_yz x_zv,
    one variable per state pair at index u*r + v."""
    states = doc["states"]
    r = len(states)
    pos = {s: i for i, s in enumerate(states)}
    eqs = [[] for _ in range(r * r)]
    for t in doc["delta"]:
        u, y, p = pos[t["from"]], pos[t["to"]], Fraction(t["p"])
        for v in range(r):
            eq = eqs[u * r + v]
            if t["k"] == -1 and y == v:
                eq.append((p, ()))
            elif t["k"] == 0:
                eq.append((p, ((y * r + v, 1),)))
            elif t["k"] == 1:
                for z in range(r):
                    a, b = y * r + z, z * r + v
                    eq.append((p, ((a, 2),) if a == b else tuple(sorted(((a, 1), (b, 1))))))
    return eqs


def evaluate(eqs: list, x: list) -> list:
    out = []
    for eq in eqs:
        acc = Fraction(0)
        for coeff, mono in eq:
            term = coeff
            for v, e in mono:
                term *= x[v] ** e
            acc += term
        out.append(acc)
    return out


def zero_set(eqs: list) -> set:
    """Indices whose least-fixed-point coordinate is exactly 0."""
    positive: set = set()
    changed = True
    while changed:
        changed = False
        for i, eq in enumerate(eqs):
            if i not in positive and any(all(v in positive for v, _ in m) for _, m in eq):
                positive.add(i)
                changed = True
    return set(range(len(eqs))) - positive


def lower_reference(eqs: list, grid_bits: int, max_steps: int) -> list:
    """Value iteration from 0, rounded down to 2**-grid_bits, until it stops
    moving; every iterate is <= q*."""
    scale = 1 << grid_bits
    x = [Fraction(0)] * len(eqs)
    for _ in range(max_steps):
        nxt = [Fraction((v.numerator * scale) // v.denominator, scale) for v in evaluate(eqs, x)]
        if nxt == x:
            return x
        x = nxt
    raise RuntimeError(f"rounded value iteration did not settle in {max_steps} steps")


def is_post_fixed_point(eqs: list, y: list) -> bool:
    return all(p <= v for p, v in zip(evaluate(eqs, y), y))


def upper_bound(eqs: list, lower: list, first_gap_bits: int, last_gap_bits: int) -> list:
    """The smallest y = lower + 2**-g on the positive coordinates, for g from
    first_gap_bits down to last_gap_bits, with P(y) <= y checked exactly."""
    zeros = zero_set(eqs)
    for gap_bits in range(first_gap_bits, last_gap_bits - 1, -2):
        gap = Fraction(1, 1 << gap_bits)
        y = [v if i in zeros else v + gap for i, v in enumerate(lower)]
        if is_post_fixed_point(eqs, y):
            return y
    raise RuntimeError("no post-fixed point found above the lower reference")


def answer_bits(texts) -> int:
    """Summed numerator and denominator bit lengths of "p/q" strings."""
    total = 0
    for text in texts:
        q = Fraction(text)
        total += q.numerator.bit_length() + q.denominator.bit_length()
    return total


def within(answer: list, lower: list, upper: list, eps: Fraction) -> bool:
    return len(answer) == len(lower) and all(
        lo - eps <= a <= hi for a, lo, hi in zip(answer, lower, upper)
    )
