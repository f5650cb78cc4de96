"""Newton steps, the rounded loop, and certified per-component parameters."""

from __future__ import annotations

import math

import pytest

from lfpsolve import (
    DivergenceCertified,
    RnmConfig,
    SingularMatrix,
    newton_step,
    rat,
    round_down_dyadic,
    run_rnm,
)
from lfpsolve.mps import eval_jacobian
from lfpsolve.newton import _rounded_step, newton_rows
from lfpsolve.ratmath import identity_minus, solve_integer, solve_linear

from conftest import univariate
from reference import certify_params_scc, univariate_quadratic_lfp

CRITICAL = univariate("1/2", 0, "1/2")  # x = x^2/2 + 1/2, LFP 1


class TestNewtonStep:
    def test_one_bit_per_step(self):
        z = [rat(0)]
        for expected in ("1/2", "3/4", "7/8"):
            z = newton_step(CRITICAL, z)
            assert z == [rat(expected)]

    def test_linear_system_solved_in_one_step(self):
        sys = univariate(0, "1/2", "1/4")
        assert newton_step(sys, [rat(0)]) == [rat(1, 2)]

    def test_undefined_at_singular_jacobian(self):
        sys = univariate(0, "1", "1")  # x = x + 1
        with pytest.raises(SingularMatrix):
            newton_step(sys, [rat(0)])


class TestRunRnm:
    def test_one_bit_law_with_wide_grid(self):
        final, trace = run_rnm(CRITICAL, RnmConfig(h=40, g=20))
        for record in trace.records:
            expected = rat(2**record.k - 1, 2**record.k)
            assert record.iterate[0].value() == expected
        assert final[0].value() == rat(2**20 - 1, 2**20)

    def test_stall_on_coarse_grid(self):
        final, trace = run_rnm(CRITICAL, RnmConfig(h=3, g=10))
        assert final[0].value() == rat(7, 8)
        # iterate 3 reaches 7/8 and rounding pins it there
        for record in trace.records[3:]:
            assert record.iterate[0].value() == rat(7, 8)
        assert rat(1) - final[0].value() <= rat(1, 2 ** (3 - 2))

    def test_linear_lfp_hit_exactly(self):
        sys = univariate(0, "1/2", "1/4")
        for h in (2, 5, 30):
            final, _ = run_rnm(sys, RnmConfig(h=h, g=1))
            assert final[0].value() == rat(1, 2)

    def test_iterates_live_on_the_grid(self, rng):
        from conftest import random_substochastic

        for _ in range(15):
            sys = random_substochastic(rng, rng.randint(1, 4))
            h = rng.randint(2, 24)
            _, trace = run_rnm(sys, RnmConfig(h=h, g=6))
            for record in trace.records:
                for d in record.iterate:
                    assert d.scale == h
                    assert d.mantissa >= 0
                    assert d.value() * 2**h == d.mantissa

    def test_trace_shape(self):
        _, trace = run_rnm(CRITICAL, RnmConfig(h=10, g=4))
        assert [r.k for r in trace.records] == [0, 1, 2, 3, 4]
        assert trace.records[0].iterate[0].mantissa == 0
        assert trace.records[0].residual == rat(1, 2)  # ||P(0) - 0||

    def test_divergence_threshold_fires(self):
        sys = univariate(0, 0, "2")  # x = 2, exceeds a q*max bound of 1
        with pytest.raises(DivergenceCertified):
            run_rnm(sys, RnmConfig(h=4, g=3), divergence_exponent=0)

    def test_iterates_stay_below_lfp_on_fixtures(self):
        gambler = univariate("2/3", 0, "1/3")
        lfp = univariate_quadratic_lfp("2/3", 0, "1/3")
        _, trace = run_rnm(gambler, RnmConfig(h=30, g=25))
        previous_error = None
        for record in trace.records:
            value = record.iterate[0].value()
            assert value <= lfp
            error = lfp - value
            if previous_error is not None:
                assert error <= previous_error
            previous_error = error

    def test_certified_error_on_gambler_quadratic(self):
        # alpha = min(1, c_min) * q*_min / 2 = (1/3) * (1/4) = 1/12
        epsilon = rat(1, 2**12)
        cfg = certify_params_scc(1, rat(1, 12), epsilon)
        final, _ = run_rnm(univariate("2/3", 0, "1/3"), cfg)
        assert rat(1, 2) - final[0].value() <= epsilon
        assert final[0].value() <= rat(1, 2)


class TestIntegerKernel:
    def test_step_down_from_above_floors(self):
        # At x = 11/8 > q* = 1 the exact step lands on 19/16 = 9.5 / 8, so
        # the mantissa floors to 9, not 10.
        assert round_down_dyadic(newton_step(CRITICAL, [rat(11, 8)])[0], 3).mantissa == 9
        assert _rounded_step(*newton_rows(CRITICAL, [11], 3), [11]) == [9]

    def test_linear_system_steps_over_the_plain_denominator(self):
        # x = x/2 + 1/3 has D = 1, so s = L = 6 and the step from 0 lands on
        # q* = 2/3, whose mantissa at h = 5 is floor(64/3) = 21.
        sys = univariate(0, "1/2", "1/3")
        assert sys.integer_form.back_scale(1 << 5) == 6
        assert _rounded_step(*newton_rows(sys, [0], 5), [0]) == [21]

    def test_matches_the_rounded_exact_step_at_any_grid_point(self, rng):
        # Both right-hand sides the solver gives newton_rows' A: r for the
        # rounded step, and s 1 for the witness direction (I - B(x))^-1 1.
        # I - B(1) = 0 for CRITICAL, so x = 1 = 8 / 2**3 is singular.
        from conftest import random_substochastic

        cases = [(CRITICAL, 3, [8])]
        for _ in range(100):
            sys = random_substochastic(rng, rng.randint(1, 5))
            h = rng.randint(1, 30)
            cases.append((sys, h, [rng.randint(0, 3 << h) for _ in range(sys.n)]))  # some above q*
        for sys, h, m in cases:
            x = [rat(mi, 1 << h) for mi in m]
            rows, _ = newton_rows(sys, m, h)
            try:
                direction = solve_linear(identity_minus(eval_jacobian(sys, x)), [rat(1)] * sys.n)
                expected = [(d.numerator, d.denominator) for d in direction]
            except SingularMatrix as exc:
                expected = str(exc)
            try:
                assert solve_integer(rows, [sys.integer_form.back_scale(1 << h)] * sys.n) == expected
            except SingularMatrix as exc:
                assert str(exc) == expected
            try:
                exact = newton_step(sys, x)
            except SingularMatrix as exc:
                with pytest.raises(SingularMatrix, match=str(exc)):
                    _rounded_step(*newton_rows(sys, m, h), m)
                continue
            expected = [round_down_dyadic(v, h).mantissa for v in exact]
            assert _rounded_step(*newton_rows(sys, m, h), m) == expected


class TestCertifyParams:
    def test_exact_powers_of_two(self):
        cfg = certify_params_scc(1, rat(1, 4), rat(1, 2**10))
        assert (cfg.h, cfg.g) == (14, 13)

    def test_trivial_logs(self):
        cfg = certify_params_scc(1, rat(1), rat(1, 2))
        assert (cfg.h, cfg.g) == (3, 2)

    def test_one_third_rounds_up_to_two_bits(self):
        cfg = certify_params_scc(1, rat(1, 3), rat(1, 2))
        assert cfg.h == 2 + 2 + 1
        cfg5 = certify_params_scc(5, rat(1, 3), rat(1, 2))
        assert cfg5.h == 2 + 5 * 2 + 1

    def test_never_below_real_valued_formula(self, rng):
        for _ in range(200):
            n = rng.randint(1, 8)
            alpha = rat(rng.randint(1, 64), 64)
            epsilon = rat(rng.randint(1, 1023), 1024)
            cfg = certify_params_scc(n, alpha, epsilon)
            real = 2 + n * math.log2(1 / float(alpha)) + math.log2(1 / float(epsilon))
            assert cfg.h >= real - 1e-9
            assert cfg.g == cfg.h - 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certify_params_scc(1, rat(2), rat(1, 2))
        with pytest.raises(ValueError):
            certify_params_scc(1, rat(1, 2), rat(2))
        with pytest.raises(ValueError):
            certify_params_scc(0, rat(1, 2), rat(1, 2))


@pytest.mark.parametrize("h, g", [(0, 1), (1, 0)])
def test_rnm_config_needs_positive_h_and_g(h, g):
    with pytest.raises(ValueError, match="^need h >= 1 and g >= 1$"):
        RnmConfig(h, g)
