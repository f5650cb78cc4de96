"""Input generators for the benchmark workloads.

Every generator returns model JSON in the wire formats the CLI reads
("vars"/"eqs" for a monotone polynomial system, "states"/"delta"/"delta0"
for a p1CA) and draws its randomness only from the ``random.Random`` it is
given, so a workload seed fixes every input.  ``chain_system``,
``random_substochastic`` and ``random_p1ca`` make the same random calls in
the same order as the generators of the same names in the test suite, so
one seed gives the same model in both places; the benchmark never imports
the tests.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _rat(q: Fraction) -> str:
    return str(q)


def chain_system(k: int) -> dict:
    """x_0 = x_0^2/2 + 1/2 and x_i = x_i^2/2 + x_{i-1}/2; q* is all ones.

    Every component is critical, so Newton gains one bit per step.
    """
    names = [f"x{i}" for i in range(k)]
    eqs = [[{"c": "1/2", "m": {"x0": 2}}, {"c": "1/2", "m": {}}]]
    for i in range(1, k):
        eqs.append([{"c": "1/2", "m": {f"x{i}": 2}}, {"c": "1/2", "m": {f"x{i-1}": 1}}])
    return {"vars": names, "eqs": eqs}


def random_substochastic(rng: random.Random, n: int) -> dict:
    """Random quadratic system with P(1) <= 1, hence q* <= 1, and no zero
    variables: each equation has a positive constant and nonconstant
    coefficients summing below 7/16."""
    names = [f"v{i}" for i in range(n)]
    eqs = []
    for _ in range(n):
        terms = []
        budget = Fraction(7, 16)
        for _ in range(rng.randint(1, 3)):
            coeff = budget * Fraction(rng.randint(1, 4), 16)
            budget -= coeff
            degree = rng.choice([1, 1, 2])
            if degree == 1:
                powers = {rng.choice(names): 1}
            else:
                a, b = rng.choice(names), rng.choice(names)
                powers = {a: 2} if a == b else {a: 1, b: 1}
            terms.append({"c": _rat(coeff), "m": powers})
        terms.append({"c": _rat(Fraction(rng.randint(1, 8), 16)), "m": {}})
        eqs.append(terms)
    return {"vars": names, "eqs": eqs}


def random_p1ca(rng: random.Random, r: int, denominator: int = 16) -> dict:
    """Random one-counter automaton with probabilities over /denominator;
    every state has some decrement, so termination is not trivially 0."""
    states = [f"q{i}" for i in range(r)]
    delta = []
    for u in states:
        weights = []
        remaining = denominator
        moves = rng.randint(2, 4)
        for m in range(moves):
            if remaining <= 1:
                break
            w = rng.randint(1, max(1, remaining // (moves - m)))
            remaining -= w
            weights.append(w)
        kinds = [-1] + [rng.choice([-1, 0, 1]) for _ in weights[1:]]
        for w, k in zip(weights, kinds):
            delta.append(
                {"from": u, "p": _rat(Fraction(w, denominator)), "k": k, "to": rng.choice(states)}
            )
    return {"states": states, "delta": delta, "delta0": []}


def gamblers_ruin(p_up: Fraction) -> dict:
    """One state stepping up with probability p_up and down otherwise; for
    p_up > 1/2 the termination probability is (1 - p_up) / p_up."""
    return {
        "states": ["s"],
        "delta": [
            {"from": "s", "p": _rat(1 - p_up), "k": -1, "to": "s"},
            {"from": "s", "p": _rat(p_up), "k": 1, "to": "s"},
        ],
        "delta0": [],
    }


def wide_chain(rng: random.Random, n: int, exponent: int, zero_tail: int) -> dict:
    """A linear chain x_i = a_i x_{i-1} + b_i of n variables carrying one
    monomial c * x_k^exponent in equation j = n/2, with k = n/4, and whose
    last ``zero_tail`` variables have no constant term (their least fixed
    point is 0).  The rng draws only the coefficients: the shape sets the
    time and memory of decompose, so it does not vary with the seed.

    Simple normal form adds exponent - 1 product variables.  The dependency
    graph stays acyclic, so every component is a single variable.
    """
    names = [f"x{i}" for i in range(n)]
    first_zero = n - zero_tail
    eqs = [[{"c": _rat(Fraction(rng.randint(1, 8), 16)), "m": {}}]]
    for i in range(1, n):
        link = {"c": _rat(Fraction(rng.randint(1, 7), 16)), "m": {names[i - 1]: 1}}
        if i < first_zero:
            eqs.append([link, {"c": _rat(Fraction(rng.randint(1, 8), 16)), "m": {}}])
        elif i == first_zero:
            eqs.append([{"c": "1/2", "m": {names[i]: 1}}])  # x = x/2 starts the zero tail
        else:
            eqs.append([link])
    eqs[n // 2].append({"c": _rat(Fraction(1, rng.randint(2, 16))), "m": {names[n // 4]: exponent}})
    return {"vars": names, "eqs": eqs}
