"""The independent verification engines the rest of the suite leans on."""

from __future__ import annotations

import math

import pytest

from lfpsolve import (
    AlgebraicRoot,
    NoFiniteLfp,
    detect_divergence,
    detect_zero_variables,
    evaluate,
    oracle,
    rat,
    system_of,
    univariate_quadratic_lfp,
    value_iterate,
)

from conftest import random_with_zero_variables, univariate
from reference import zero_set_oracle

CRITICAL = univariate("1/2", 0, "1/2")


class TestValueIteration:
    def test_critical_prefix(self):
        assert value_iterate(CRITICAL, 1) == [rat(1, 2)]
        assert value_iterate(CRITICAL, 2) == [rat(5, 8)]
        assert value_iterate(CRITICAL, 3) == [rat(89, 128)]

    def test_constant_is_stationary(self):
        sys = univariate(0, 0, "1")
        assert value_iterate(sys, 1) == [rat(1)]
        assert value_iterate(sys, 7) == [rat(1)]

    def test_unbounded_growth_without_lfp(self):
        sys = univariate(0, "1", "1")  # x = x + 1
        for k in (0, 1, 5, 9):
            assert value_iterate(sys, k) == [rat(k)]

    def test_monotone_in_k(self, rng):
        for _ in range(20):
            sys = random_with_zero_variables(rng, rng.randint(1, 5))
            previous = value_iterate(sys, 0)
            for k in range(1, 8):
                current = value_iterate(sys, k)
                assert all(a <= b for a, b in zip(previous, current))
                previous = current

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            value_iterate(CRITICAL, -1)


class TestZeroSetOracle:
    def test_starved_product(self):
        sys = system_of(
            ["x1", "x2"],
            [("1", {"x1": 1, "x2": 1})],
            [("1/2", {"x2": 1}), ("1/2", {})],
        )
        assert zero_set_oracle(sys) == frozenset({0})

    def test_all_constant(self):
        sys = system_of(["a", "b"], [("1", {})], [("2/3", {})])
        assert zero_set_oracle(sys) == frozenset()

    def test_cross_module_agreement(self, rng):
        for _ in range(80):
            sys = random_with_zero_variables(rng, rng.randint(1, 5))
            assert zero_set_oracle(sys) == detect_zero_variables(sys)


class TestDivergenceProbe:
    def test_catches_squaring_growth(self):
        sys = univariate("1", 0, "1")  # x = x^2 + 1
        assert detect_divergence(sys, 4500, max_steps=48)

    def test_bounded_system_never_flagged(self):
        assert not detect_divergence(CRITICAL, 0, max_steps=48)

    def test_budget_limits_slow_growth(self):
        sys = univariate(0, "1", "1")  # x = x + 1 grows one unit per step
        assert not detect_divergence(sys, 10**6, max_steps=30)
        assert detect_divergence(sys, 4, max_steps=30)

    def test_catches_fractional_growth(self):
        sys = univariate("1/2", 0, "5/8")  # x = x^2/2 + 5/8 has no real fixed point
        assert detect_divergence(sys, 0)

    def test_firing_implies_exact_iterate_escapes(self, rng):
        # Rounded iterates lie below the exact ones, so the probe may fire
        # only where exact value iteration escapes the bound too.
        steps = 8
        fired = 0
        for _ in range(50):
            sys = random_with_zero_variables(rng, rng.randint(1, 5))
            for exponent in (-2, -1, 0):
                if detect_divergence(sys, exponent, max_steps=steps):
                    fired += 1
                    exact = value_iterate(sys, steps)
                    assert any(xi > rat(2) ** exponent for xi in exact)
        assert fired > 0

    def test_matches_the_rational_probe(self, rng):
        # The integer probe takes the same steps as rounding each exact
        # rational P(x) down to the grid, so every verdict, including the
        # ones the step and bit budgets decide, is the same.
        verdicts = set()
        for _ in range(60):
            sys = random_with_zero_variables(rng, rng.randint(1, 5))
            if rng.random() < 0.3:
                sys = univariate("1", 0, "1") if rng.random() < 0.5 else univariate(0, "3/2", "1/3")
            for exponent in (-3, 0, 5, 40):
                for budget in (70, 200, 1 << 20):
                    steps = rng.randint(1, 12)
                    verdict = detect_divergence(sys, exponent, max_steps=steps, bit_budget=budget)
                    assert verdict == rational_probe(sys, exponent, steps, budget)
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_stops_once_the_rounded_iterate_repeats(self, monkeypatch):
        calls = []
        real = oracle.evaluate_scaled

        def counting(sys, x, s):
            calls.append(1)
            return real(sys, x, s)

        monkeypatch.setattr(oracle, "evaluate_scaled", counting)
        sys = univariate(0, "1/4", "1/4")  # x = x/4 + 1/4, q* = 1/3
        assert not detect_divergence(sys, 0, max_steps=48)
        assert 0 < len(calls) < 48


def rational_probe(sys, qmax_exponent, max_steps, bit_budget):
    """The probe on exact rationals: each P(x) is evaluated exactly, then
    rounded down to the 2**-64 grid."""
    x = [rat(0)] * sys.n
    for _ in range(max_steps):
        nxt = [rat(math.floor(v * 2**64), 2**64) for v in evaluate(sys, x)]
        if any(xi > rat(2) ** qmax_exponent for xi in nxt):
            return True
        if nxt == x:
            return False
        x = nxt
        size = sum(int(xi.numerator).bit_length() + int(xi.denominator).bit_length() for xi in x)
        if size > bit_budget:
            return False
    return False


class TestUnivariateQuadratic:
    def test_critical_lfp_is_one(self):
        assert univariate_quadratic_lfp("1/2", 0, "1/2") == rat(1)

    def test_gambler_lfp(self):
        assert univariate_quadratic_lfp("2/3", 0, "1/3") == rat(1, 2)
        assert univariate_quadratic_lfp("1/3", 0, "2/3") == rat(1)

    def test_negative_discriminant(self):
        with pytest.raises(NoFiniteLfp):
            univariate_quadratic_lfp("1", 0, "1")

    def test_linear_fallback(self):
        assert univariate_quadratic_lfp(0, "1/2", "1/4") == rat(1, 2)
        with pytest.raises(NoFiniteLfp):
            univariate_quadratic_lfp(0, "1", "1")
        with pytest.raises(NoFiniteLfp):
            univariate_quadratic_lfp(0, "2", "1/8")
        assert univariate_quadratic_lfp(0, "2", 0) == rat(0)

    def test_zero_constant_root_is_zero(self):
        assert univariate_quadratic_lfp("1/2", "1/4", 0) == rat(0)

    def test_irrational_root_comparisons(self):
        root = univariate_quadratic_lfp("1/2", 0, "1/4")
        # x^2/2 - x + 1/4 = 0 -> x = 1 - sqrt(1/2), irrational
        assert isinstance(root, AlgebraicRoot)
        assert root.compare(rat(0)) > 0
        assert root.compare(rat(1)) < 0
        assert root.compare(rat(29, 100)) > 0  # 1 - sqrt(1/2) = 0.2928932...
        assert root.compare(rat(2929, 10000)) < 0
        lo, hi = root.enclosure(bits=100)
        assert lo < hi
        assert hi - lo <= rat(1, 2**99)
        assert abs(float(root) - 0.2928932188) < 1e-9

    def test_value_iteration_approaches_root_from_below(self):
        root = univariate_quadratic_lfp("1/2", 0, "1/4")
        sys = univariate("1/2", 0, "1/4")
        gaps = []
        for k in (2, 5, 8, 11):
            value = value_iterate(sys, k)[0]
            assert root.compare(value) > 0
            lo, _ = root.enclosure(bits=80)
            gaps.append(lo - value)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            univariate_quadratic_lfp("-1", 0, "1")
