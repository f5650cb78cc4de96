"""The decomposed solver: bounds, parameter selection and the full pipeline;
and the paper's rescaling map and perturbation bound it rests on."""

from __future__ import annotations

import pytest

from lfpsolve import (
    DegreeTooHigh,
    DivergenceCertified,
    LfpBounds,
    ParamsInfeasible,
    RnmConfig,
    SingularMatrix,
    SolveOptions,
    build_graph,
    c_min,
    clean,
    decompose,
    encoding_size,
    qmax_upper_exponent,
    rat,
    run_rnm,
    solve,
    system_of,
)
from lfpsolve.driver import VALUE_ITERATION_CAP, _qmin_bound, compute_bounds
from lfpsolve.ratmath import rational_exceeds_pow2

from conftest import (
    chain_system,
    critical_quartic,
    doubled_chain,
    leaky_chain,
    random_substochastic,
    repeated_squaring,
    univariate,
)
from reference import linear_lfp, perturbation_bound, rescale, univariate_quadratic_lfp


class TestQminLowerBound:
    def test_repeated_squaring_formula_bound(self):
        # Above VALUE_ITERATION_CAP variables the bound is (1/2)^(2^n - 1).
        n = VALUE_ITERATION_CAP + 1
        formula = rat(1, 2) ** (2**n - 1)
        assert _qmin_bound(repeated_squaring(n, "1/2")) == (formula, "worst-case-formula")
        bound, _ = _qmin_bound(repeated_squaring(2, "1/2"))
        assert bound >= rat(1, 8)  # (1/2)^(2^2 - 1)
        assert bound <= rat(1, 4)  # true q*_min

    def test_value_iteration_floor_never_below_the_formula(self, rng):
        # Every coordinate first positive at value iteration step k is at
        # least min(1, c_min)^(2^k - 1), so the floor dominates the formula.
        for _ in range(40):
            sys = random_substochastic(rng, rng.randint(1, VALUE_ITERATION_CAP))
            formula = min(rat(1), c_min(sys)) ** (2**sys.n - 1)
            assert _qmin_bound(sys)[0] >= formula

    def test_value_iteration_floor_dominates(self):
        sys = univariate("1/2", 0, "1/2")
        assert _qmin_bound(sys)[0] == rat(1, 2)  # P(0) = 1/2, vs (1/2)^1 formula

    def test_constant_system_exact(self):
        sys = univariate(0, 0, "1")
        assert _qmin_bound(sys)[0] == rat(1)

    def test_cubic_system_is_refused(self):
        # a = 1/2, b = a^3/2: q*_min = 1/16, but c_min**(2**n - 1) = 1/8 is
        # a bound only for quadratic systems.
        sys = system_of(["a", "b"], [("1/2", {})], [("1/2", {"a": 3})])
        with pytest.raises(DegreeTooHigh):
            _qmin_bound(sys)
        with pytest.raises(DegreeTooHigh):
            compute_bounds(sys, SolveOptions(qmax_exponent_assert=0))
        # its normal form is quadratic, and solve bounds q*_min soundly there
        report = solve(sys, rat(1, 2**10), SolveOptions(qmax_exponent_assert=0))
        assert report.bounds.qmin_lower <= rat(1, 16)
        assert list(report.approximation) == [rat(1, 2), rat(1, 16)]

    def test_below_true_minimum_on_analytic_fixtures(self):
        for n in range(2, 9):
            sys = repeated_squaring(n, "1/2")
            truth = rat(1, 2) ** (2 ** (n - 1))
            assert _qmin_bound(sys)[0] <= truth


class TestQmaxUpperExponent:
    def test_formula_value_on_univariate(self):
        sys = univariate("1/2", 0, "1/2")
        bits = encoding_size(sys)
        assert bits == 9
        # 2 (n+1) (|P| + 2 (n+1) ceil(log2(2n+2))) 5^n with n = 1
        assert qmax_upper_exponent(sys) == 2 * 2 * (bits + 4 * 2) * 5

    def test_worked_example_with_injected_size(self):
        # n = 1 and |P| = 12 plugs to 2*2*(12 + 4*2)*5 = 400.
        assert 2 * 2 * (12 + 4 * 2) * 5 == 400

    def test_contains_true_maximum(self):
        sys = repeated_squaring(2, "2")  # q* = (2, 4)
        exponent = qmax_upper_exponent(sys)
        assert not rational_exceeds_pow2(rat(4), exponent)

    def test_bounds_object_rejects_contradiction(self):
        sys = univariate(0, 0, "2")  # q* = 2 > 1, flag is a lie
        with pytest.raises(DivergenceCertified):
            compute_bounds(sys, SolveOptions(qmax_exponent_assert=0))


class TestQmaxAssertion:
    """``qmax_exponent_assert`` is the one option that asserts q*_max <=
    2**k: 0 says q* is a vector of probabilities, any other k is the
    caller's bound, and None takes the worst-case formula."""

    @pytest.mark.parametrize(
        "k, source", [(0, "probability-flag"), (3, "user-asserted"), (None, "worst-case-formula")]
    )
    def test_one_field_sets_the_bound_and_its_tag(self, k, source):
        sys = univariate("2/3", 0, "1/3")  # q* = 1/2
        options = SolveOptions(qmax_exponent_assert=k, use_snf=False)
        bounds = compute_bounds(sys, options)
        exponent = qmax_upper_exponent(sys) if k is None else k
        assert (bounds.qmax_exponent, bounds.qmax_source) == (exponent, source)
        report = solve(sys, rat(1, 2**10), options)
        assert report.certificate.attempted_h != ()  # the grid path ran
        assert report.bounds == bounds

    def test_zero_is_the_probability_flag_when_every_coordinate_is_exact(self):
        # The pre-pass proves q* = 1 everywhere, so no grid runs and the
        # bounds are exact; the tag says whether the caller asserted q* <= 1.
        eps = rat(1, 2**10)
        for k, source in ((0, "probability-flag"), (None, "exact"), (1, "exact")):
            report = solve(chain_system(3), eps, SolveOptions(qmax_exponent_assert=k))
            assert report.certificate.attempted_h == ()
            assert (report.bounds.qmax_exponent, report.bounds.qmax_source) == (0, source)


class TestRescale:
    def test_zero_is_identity(self):
        sys = chain_system(2)
        assert rescale(sys, 0) is sys

    def test_critical_becomes_double_root(self):
        scaled = rescale(univariate("1/2", 0, "1/2"), 1)
        coeffs = {m.degree: m.coeff for m in scaled.equations[0]}
        assert coeffs == {2: rat(1), 0: rat(1, 4)}
        assert univariate_quadratic_lfp("1", 0, "1/4") == rat(1, 2)  # = q*/2

    def test_linear_rescale(self):
        scaled = rescale(univariate(0, "1/2", "1/4"), 2)
        coeffs = {m.degree: m.coeff for m in scaled.equations[0]}
        assert coeffs == {1: rat(1, 2), 0: rat(1, 16)}
        assert univariate_quadratic_lfp(0, "1/2", "1/16") == rat(1, 8)

    def test_lfp_scales_on_random_fixtures(self, rng):
        for _ in range(10):
            sys = random_substochastic(rng, rng.randint(1, 3))
            u = rng.randint(1, 3)
            scaled = rescale(sys, u)
            a, _ = run_rnm(sys, RnmConfig(h=40, g=30))
            b, _ = run_rnm(scaled, RnmConfig(h=40 + u, g=30))
            for x, y in zip(a, b):
                assert x.mantissa == y.mantissa
                assert y.scale == x.scale + u


class TestScalingEquivariance:
    def test_bit_exact_iterate_relation(self, rng):
        checked = 0
        for _ in range(25):
            sys = random_substochastic(rng, rng.randint(1, 4))
            for u in (1, 2, 3):
                h = rng.randint(6, 20)
                _, torig = run_rnm(sys, RnmConfig(h=h, g=8))
                _, tscaled = run_rnm(rescale(sys, u), RnmConfig(h=h + u, g=8))
                for ra, rb in zip(torig.records, tscaled.records):
                    for da, db in zip(ra.iterate, rb.iterate):
                        assert da.mantissa == db.mantissa
                        assert db.scale == da.scale + u
                checked += 1
        assert checked == 75


class TestPerturbationBound:
    def test_zero_shift(self):
        sys = univariate(0, "1/2", "1/4")
        assert perturbation_bound(sys, rat(1), rat(1), rat(0), linear=True) == 0

    def test_linear_formula(self):
        sys = univariate(0, "1/2", "1/4")
        got = perturbation_bound(sys, rat(1), rat(1), rat(1, 16), linear=True)
        assert got == rat(1, 8)  # 2 * 1 * 1 * 1/16

    def test_nonlinear_formula_perfect_square(self):
        sys = univariate("1/2", 0, "1/2")
        got = perturbation_bound(sys, rat(1), rat(1), rat(1, 64), linear=False)
        assert got == rat(1, 4)  # sqrt(4/64)

    def test_containment_on_two_level_fixtures(self, rng):
        # Lower level: a constant y; upper level: one equation in x fed by y.
        # Truncating y by dy must shift the upper LFP by at most the bound.
        for _ in range(50):
            linear = rng.random() < 0.5
            y1 = rat(rng.randint(8, 16), 16)
            dy = rat(1, 2 ** rng.choice([8, 12]))
            y2 = y1 - dy
            b = rat(rng.randint(0, 6), 16)  # <= 3/8 keeps the discriminant positive
            feed = rat(rng.randint(1, 8), 16)
            a = rat(0) if linear else rat(rng.randint(1, 2), 16)
            lo1, hi1 = _min_root_enclosure(a, b, feed * y1)
            lo2, hi2 = _min_root_enclosure(a, b, feed * y2)
            shift_upper = hi1 - lo2  # certainly >= the true LFP shift
            # alpha = min(1, c_min) min(y_min, q*_min / 2); everything here
            # is <= 1, and P(1,1) sums every coefficient with y treated as
            # a variable of its own.
            qmin_lower = min(lo1, lo2, y2)
            assert qmin_lower > 0
            cmin = min(c for c in (a, b, feed) if c > 0)
            alpha = min(rat(1), cmin) * min(y1, qmin_lower / 2)
            norm = a + b + feed
            sys_x = univariate(a, b, feed)  # shape only; n = 1
            bound = perturbation_bound(sys_x, alpha, norm, dy, linear=linear)
            assert shift_upper <= bound

    def test_validation(self):
        sys = univariate(0, "1/2", "1/4")
        with pytest.raises(ValueError):
            perturbation_bound(sys, rat(2), rat(1), rat(1, 4), linear=True)
        with pytest.raises(ValueError):
            perturbation_bound(sys, rat(1), rat(1), rat(-1), linear=True)


def _min_root_enclosure(a, b, c, bits=120):
    """Tight rational bracket around the least non-negative fixed point of
    x = a x^2 + b x + c (the generator ranges guarantee it exists)."""
    root = univariate_quadratic_lfp(a, b, c)
    if hasattr(root, "enclosure"):
        return root.enclosure(bits)
    return root, root


class TestSolveCertified:
    def test_linear_system_is_exact(self):
        report = solve(univariate(0, "1/2", "1/4"), rat(1, 2**10))
        assert report.status == "certified-eps"
        assert report.approximation[0] == rat(1, 2)

    def test_two_scc_chain(self):
        sys = system_of(
            ["x1", "x2"],
            [("1/2", {"x1": 2}), ("1/2", {"x2": 1})],
            [("1/2", {"x2": 2}), ("1/2", {})],
        )
        eps = rat(1, 2**12)
        report = solve(sys, eps, SolveOptions(qmax_exponent_assert=0))
        for a in report.approximation:
            assert rat(1) - a <= eps
            assert a <= 1

    def test_chain3_smoke(self):
        eps = rat(1, 2**8)
        report = solve(chain_system(3), eps, SolveOptions(qmax_exponent_assert=0))
        assert report.status == "certified-eps"
        assert report.info["snf_applied"]
        for a in report.approximation:
            assert 0 <= rat(1) - a <= eps

    def test_no_snf_matches_snf_route(self):
        eps = rat(1, 2**8)
        with_snf = solve(chain_system(2), eps, SolveOptions(qmax_exponent_assert=0))
        without = solve(
            chain_system(2), eps, SolveOptions(qmax_exponent_assert=0, use_snf=False)
        )
        for a, b in zip(with_snf.approximation, without.approximation):
            assert abs(a - b) <= 2 * eps

    def test_rescaled_route_on_supercritical_lfp(self):
        # x = x/2 + 3/2 has LFP 3, above 1, under the asserted q*max bound 4:
        # the first witness grid, unscaled (u = 0), returns the exact dyadic
        # 3, and the theorem's rescaling is never needed.
        sys = univariate(0, "1/2", "3/2")
        report = solve(sys, rat(1, 2**10), SolveOptions(qmax_exponent_assert=2))
        assert report.bounds.qmax_exponent == 2
        assert (report.certificate.kind, report.params.h, report.params.u) == ("witness", 12, 0)
        assert report.approximation[0] == rat(3)
        assert report.bounds.qmax_source == "user-asserted"

    def test_rescaled_route_nonlinear(self):
        # x = x^2/8 + 1: LFP is 4 - 2 sqrt(2) = 1.1715..., q*max asserted 2.
        sys = univariate("1/8", 0, "1")
        eps = rat(1, 2**10)
        report = solve(sys, eps, SolveOptions(qmax_exponent_assert=1, use_snf=False))
        root = univariate_quadratic_lfp("1/8", 0, "1")
        value = report.approximation[0]
        assert root.compare(value) >= 0
        lo, _ = root.enclosure(bits=40)
        assert lo - value <= eps

    def test_scc_runs_in_height_order(self):
        # a depends on c; c and b are constants.  decompose lists them by
        # height, then least variable, and solve runs and reports them so:
        # c, b, a.
        sys = system_of(
            ["a", "c", "b"], [("1/2", {"c": 1}), ("1/4", {})], [("1/2", {})], [("1/2", {})]
        )
        cleaned, _ = clean(sys)
        decomp = decompose(build_graph(cleaned), cleaned)
        assert [cleaned.names[v] for scc in decomp.sccs for v in scc.vars] == ["c", "b", "a"]
        report = solve(sys, rat(1, 2**10), SolveOptions(use_snf=False))
        assert [run.names for run in report.scc_runs] == [("c",), ("b",), ("a",)]

    def test_empty_after_cleaning(self):
        sys = system_of(["a", "b"], [("1", {"b": 1})], [("1", {"a": 1})])
        report = solve(sys, rat(1, 4))
        assert report.status == "certified-eps"
        assert list(report.approximation) == [rat(0), rat(0)]

    def test_zero_polynomial_equation(self):
        sys = system_of(["x"], [])  # x = 0 (empty polynomial)
        report = solve(sys, rat(1, 4))
        assert report.approximation[0] == rat(0)
        assert report.status == "certified-eps"

    def test_zero_coordinates_reinserted(self):
        sys = system_of(
            ["dead", "alive"],
            [("1", {"dead": 1, "alive": 1})],
            [("1/2", {"alive": 2}), ("1/2", {})],
        )
        eps = rat(1, 2**8)
        report = solve(sys, eps, SolveOptions(qmax_exponent_assert=0))
        assert report.approximation[0] == 0
        assert rat(1) - report.approximation[1] <= eps
        # the normal-form product fed by the dead variable is dead too
        assert "dead" in report.info["removed_zero_variables"]

    def test_singular_linear_scc(self):
        with pytest.raises(SingularMatrix):
            solve(univariate(0, "1", "1"), rat(1, 4))

    def test_singular_linear_scc_in_adaptive_mode(self):
        # no theorem grid to fall back on: the ladder's singular step propagates
        with pytest.raises(SingularMatrix):
            solve(univariate(0, "1", "1"), rat(1, 4), SolveOptions(mode="adaptive"))

    def test_divergence_certified_for_x_squared_plus_one(self):
        with pytest.raises(DivergenceCertified):
            solve(univariate("1", 0, "1"), rat(1, 4))

    def test_divergence_certified_under_false_probability_flag(self):
        with pytest.raises(DivergenceCertified):
            solve(univariate("1", 0, "1"), rat(1, 4), SolveOptions(qmax_exponent_assert=0))

    def test_rescaled_route_probes_before_newton(self, monkeypatch):
        # Without the probability flag u > 0, so the probe runs before any
        # witness grid; otherwise Newton would climb grids of u bits first.
        calls = []

        def counting_run_rnm(*args, **kwargs):
            calls.append(args)
            return run_rnm(*args, **kwargs)

        monkeypatch.setattr("lfpsolve.driver.run_rnm", counting_run_rnm)
        with pytest.raises(DivergenceCertified):
            solve(univariate("1", 0, "1"), rat(1, 2))
        assert calls == []

    @pytest.mark.parametrize(
        "options",
        [
            SolveOptions(mode="adaptive"),
            SolveOptions(h_override=12),
            SolveOptions(mode="adaptive", h_override=12),
        ],
        ids=["adaptive", "certified-h", "adaptive-h"],
    )
    def test_every_other_mode_probes_before_newton(self, monkeypatch, options):
        # With u > 0 (no flag here) every mode and schedule probes first.
        calls = []

        def counting_run_rnm(*args, **kwargs):
            calls.append(args)
            return run_rnm(*args, **kwargs)

        monkeypatch.setattr("lfpsolve.driver.run_rnm", counting_run_rnm)
        with pytest.raises(DivergenceCertified):
            solve(univariate("1", 0, "1"), rat(1, 2), options)
        assert calls == []

    def test_linear_divergence_negative_solution(self, monkeypatch):
        # x = 2x + 1 solves to -1: certifiably no non-negative fixed point.
        # With the probe switched off, the linear component's exact solve
        # is what finds it.
        monkeypatch.setattr("lfpsolve.driver.detect_divergence", lambda *args, **kwargs: False)
        with pytest.raises(DivergenceCertified, match="linear component"):
            solve(univariate(0, "2", "1"), rat(1, 4), SolveOptions(qmax_exponent_assert=0))

    def test_linear_component_above_the_qmax_bound(self, monkeypatch):
        # x = x/2 + 1 + 2^-41 solves to 2 + 2^-40 > 2^1.  Grid 24 floors it
        # to exactly 2, so only a check on the exact solution catches it.
        monkeypatch.setattr("lfpsolve.driver.detect_divergence", lambda *args, **kwargs: False)
        sys = univariate(0, "1/2", 1 + rat(1, 2**41))
        expected = "linear component solution exceeds the q\\*_max bound 2\\*\\*1"
        with pytest.raises(DivergenceCertified, match=expected):
            solve(sys, rat(1, 2**16), SolveOptions(h_override=24, qmax_exponent_assert=1))

    def test_qmax_assertion_covers_normal_form_products(self):
        # doubled_chain(1) is x = x^2/4 + 1 with q* = 2 <= 2**1, but its
        # normal form's product variable x^2 is 4.  The assertion bounds
        # that system by 2**(1 * 2); read as 2**1 it certified divergence.
        # Its theorem grid is h = 163; q* = 2 is the witness on grid 20, the
        # second rung of the unscaled ladder 10, 20.
        eps = rat(1, 2**8)
        report = solve(doubled_chain(1), eps, SolveOptions(qmax_exponent_assert=1))
        assert report.status == "certified-eps"
        assert (report.certificate.kind, report.certificate.upper) == ("witness", (2,))
        assert (report.params.h, report.params.u, report.bounds.qmax_exponent) == (20, 0, 2)
        assert report.bounds.qmax_source == "user-asserted"
        assert 0 <= 2 - report.approximation[0] <= eps
        plain = solve(doubled_chain(1), eps, SolveOptions(qmax_exponent_assert=1, use_snf=False))
        assert plain.bounds.qmax_exponent == 1

    def test_params_infeasible_ceiling(self):
        # y = 1 certifies this chain on grid 72 only; below it the
        # theorem's h = 4499 is refused.
        with pytest.raises(ParamsInfeasible):
            solve(
                leaky_chain(3, rat(1, 2**200)),
                rat(1, 2**16),
                SolveOptions(qmax_exponent_assert=0, max_h=64),
            )

    def test_worst_case_params_infeasible_without_probability_flag(self):
        # Certified mode without any q*max knowledge takes an astronomical
        # exponent u, so the theorem's grid lies above the ceiling, which
        # must catch it.  No witness grid can pass on the critical quartic.
        with pytest.raises(ParamsInfeasible, match=r"\(u = 22968750\)"):
            solve(critical_quartic(), rat(1, 2), SolveOptions(max_h=10_000))

    def test_manual_override(self):
        # x = x^2/4 + 1 is critical at q* = 2: one bit per step from 0.  The
        # witness y = 2 reports the simplest rational in [2 - 1/4, iterate].
        report = solve(
            univariate("1/4", 0, "1"),
            rat(1, 4),
            SolveOptions(
                h_override=12, g_override=11, use_snf=False, qmax_exponent_assert=1, keep_traces=True
            ),
        )
        assert report.params.h == 12
        assert report.params.g == 11
        assert report.scc_runs[0].trace.records[-1].iterate[0].value() == rat(2**11 - 1, 2**10)
        assert report.certificate.upper == (2,)
        assert report.approximation[0] == rat(7, 4)


class TestSolveAdaptive:
    def test_chain_adaptive_close_to_analytic(self):
        eps = rat(1, 2**16)
        report = solve(
            chain_system(3), eps, SolveOptions(mode="adaptive", qmax_exponent_assert=0)
        )
        assert report.status == "certified-eps" and report.certificate.kind == "witness"
        for a in report.approximation:
            assert 0 <= rat(1) - a <= eps

    def test_without_probability_flag(self):
        report = solve(univariate(0, "1/2", "1/4"), rat(1, 2**6), SolveOptions(mode="adaptive"))
        assert report.approximation[0] == rat(1, 2)

    def test_manual_override_reports_its_grid(self):
        report = solve(
            doubled_chain(3),
            rat(1, 2**16),
            SolveOptions(mode="adaptive", qmax_exponent_assert=2, h_override=30),
        )
        assert report.status == "adaptive-heuristic"
        assert report.certificate.kind == "none"
        assert report.certificate.attempted_h == (30,)
        assert (report.params.h, report.params.g) == (30, 29)

    def test_ceiling_raises(self):
        with pytest.raises(ParamsInfeasible):
            solve(
                doubled_chain(2),
                rat(1, 2**10),
                SolveOptions(mode="adaptive", qmax_exponent_assert=2, max_h=8),
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            solve(chain_system(2), rat(1, 4), SolveOptions(mode="newton-raphson"))

    def test_epsilon_range_rejected(self):
        for eps in (rat(0), rat(1), rat(3, 2), rat(-1, 2)):
            with pytest.raises(ValueError):
                solve(chain_system(2), eps)


class TestCertifiedSoundness:
    def test_error_and_one_sidedness_on_analytic_fixtures(self):
        eps = rat(1, 2**10)
        cases = [
            (univariate("1/2", 0, "1/2"), [rat(1)]),
            (univariate("2/3", 0, "1/3"), [rat(1, 2)]),
            (chain_system(2), [rat(1), rat(1)]),
        ]
        for sys, truth in cases:
            report = solve(sys, eps, SolveOptions(qmax_exponent_assert=0))
            for a, q in zip(report.approximation, truth):
                assert a <= q
                assert q - a <= eps

    def test_bound_validity_on_fixtures(self, rng):
        fixtures = []
        for n in range(1, 9):
            fixtures.append((repeated_squaring(n, "1/2"), [rat(1, 2) ** (2**i) for i in range(n)]))
        fixtures.append((univariate("2/3", 0, "1/3"), [rat(1, 2)]))
        fixtures.append((univariate("1/2", 0, "1/2"), [rat(1)]))
        for _ in range(5):
            sys = random_substochastic(rng, rng.randint(1, 3))
            if sys.degree() <= 1:
                fixtures.append((sys, linear_lfp(sys)))
        for sys, truth in fixtures:
            lower, _ = _qmin_bound(sys)
            assert lower <= min(truth)
            exponent = qmax_upper_exponent(sys)
            assert not rational_exceeds_pow2(max(truth), exponent)


@pytest.mark.parametrize(
    "qmin, exponent, message",
    [
        (rat(0), 0, "qmin_lower must be positive"),
        (rat(3), 1, "lower bound exceeds upper bound"),
        (rat(3, 4), -1, "lower bound exceeds upper bound"),
    ],
)
def test_lfp_bounds_reject_an_empty_interval(qmin, exponent, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LfpBounds(qmin, "test", exponent, "test")
    assert LfpBounds(rat(1, 1 << 8), "test", exponent, "test").qmax_exponent == exponent
