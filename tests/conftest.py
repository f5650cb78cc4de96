"""Shared fixtures: the analytic example families and seeded random models."""

from __future__ import annotations

import random

import pytest

from lfpsolve import P1CA, MonotoneSystem, Transition, rat, system_of


def chain_system(k: int) -> MonotoneSystem:
    """x_0 = x_0^2/2 + 1/2 and x_i = x_i^2/2 + x_{i-1}/2; LFP is all-ones.

    The bottom equation gains exactly one bit per Newton iteration, and each
    level of the chain takes a square root of the remaining error, which is
    the canonical depth blow-up witness.
    """
    names = [f"x{i}" for i in range(k)]
    eqs = [[("1/2", {"x0": 2}), ("1/2", {})]]
    for i in range(1, k):
        eqs.append([("1/2", {f"x{i}": 2}), ("1/2", {f"x{i-1}": 1})])
    return system_of(names, *eqs)


def doubled_chain(k: int) -> MonotoneSystem:
    """chain_system(k) under x -> 2x: x_0 = x_0^2/4 + 1 and x_i = x_i^2/4 +
    x_{i-1}/2.  The LFP is all twos and every component is critical, as in
    the chain, but P_0(1) = 5/4, so no coordinate is proved to be 1."""
    names = [f"x{i}" for i in range(k)]
    eqs = [[("1/4", {"x0": 2}), ("1", {})]]
    for i in range(1, k):
        eqs.append([("1/4", {f"x{i}": 2}), ("1/2", {f"x{i-1}": 1})])
    return system_of(names, *eqs)


def leaky_chain(k: int, leak) -> MonotoneSystem:
    """chain_system(k) with the bottom constant 1/2 - leak.  P_0(1) < 1, so
    q* < 1 everywhere, yet each level takes a square root of the gap below
    it: the top coordinate is about (2 leak)**(2**-k) below 1."""
    names = [f"x{i}" for i in range(k)]
    eqs = [[("1/2", {"x0": 2}), (rat(1, 2) - rat(leak), {})]]
    for i in range(1, k):
        eqs.append([("1/2", {f"x{i}": 2}), ("1/2", {f"x{i-1}": 1})])
    return system_of(names, *eqs)


def repeated_squaring(n: int, x0) -> MonotoneSystem:
    """x_0 = x0 (constant), x_i = x_{i-1}^2; LFP coordinate i is x0**(2**i)."""
    names = [f"s{i}" for i in range(n)]
    eqs = [[(x0, {})]]
    for i in range(1, n):
        eqs.append([("1", {f"s{i-1}": 2})])
    return system_of(names, *eqs)


def univariate(a, b, c) -> MonotoneSystem:
    """x = a x^2 + b x + c with any of a, b, c possibly zero (omitted)."""
    terms = []
    if rat(a) != 0:
        terms.append((a, {"x": 2}))
    if rat(b) != 0:
        terms.append((b, {"x": 1}))
    if rat(c) != 0:
        terms.append((c, {}))
    return system_of(["x"], terms)


def gamblers_ruin(p_up) -> P1CA:
    """One counter, one state: step up with probability p_up, down otherwise."""
    up = rat(p_up)
    down = 1 - up
    return P1CA(
        states=("s",),
        delta=(Transition("s", down, -1, "s"), Transition("s", up, 1, "s")),
        delta0=(),
    )


def random_substochastic(rng: random.Random, n: int) -> MonotoneSystem:
    """Random quadratic system with q* <= 1 and no zero variables.

    Each equation has a positive constant term and nonconstant coefficients
    summing below 7/16, so P(1) <= 1 (hence q* <= 1) and I - B(z) stays
    nonsingular along the whole rounded Newton run.
    """
    names = [f"v{i}" for i in range(n)]
    eqs = []
    for _ in range(n):
        terms = []
        budget = rat(7, 16)
        for _ in range(rng.randint(1, 3)):
            coeff = budget * rat(rng.randint(1, 4), 16)
            if coeff == 0:
                continue
            budget -= coeff
            degree = rng.choice([1, 1, 2])
            powers: dict[str, int] = {}
            if degree == 1:
                powers[rng.choice(names)] = 1
            else:
                a, b = rng.choice(names), rng.choice(names)
                if a == b:
                    powers[a] = 2
                else:
                    powers[a] = 1
                    powers[b] = 1
            terms.append((coeff, powers))
        terms.append((rat(rng.randint(1, 8), 16), {}))
        eqs.append(terms)
    return system_of(names, *eqs)


def random_with_zero_variables(rng: random.Random, n: int) -> MonotoneSystem:
    """Random sparse system mixing constant-fed equations with starved ones.

    Some equations get no constant term and feed off each other (or off
    higher-degree combinations), so a nontrivial zero set is common but not
    guaranteed; good raw material for zero-set equivalence checks.
    """
    names = [f"z{i}" for i in range(n)]
    eqs = []
    for i in range(n):
        terms = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.25:
                terms.append((rat(rng.randint(1, 4), 8), {}))
            elif kind < 0.7:
                terms.append((rat(rng.randint(1, 4), 8), {rng.choice(names): 1}))
            else:
                a, b = rng.choice(names), rng.choice(names)
                powers = {a: 2} if a == b else {a: 1, b: 1}
                terms.append((rat(rng.randint(1, 4), 8), powers))
        if not terms:
            terms.append((rat(1, 2), {names[i]: 1}))
        eqs.append(terms)
    return system_of(names, *eqs)


def random_p1ca(rng: random.Random, r: int, denominator: int = 16) -> P1CA:
    """Random one-counter automaton with exact probabilities over /denominator.

    Every state gets a positive-counter distribution with total mass <= 1
    that always includes some decrement, so termination probabilities are
    not degenerately zero everywhere.
    """
    states = tuple(f"q{i}" for i in range(r))
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
            delta.append(Transition(u, rat(w, denominator), k, rng.choice(states)))
    return P1CA(states, tuple(delta), ())


@pytest.fixture
def rng():
    return random.Random(20260809)
