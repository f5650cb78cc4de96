"""One-counter automata: validation, the termination system, the solver
wrapper, and its structural guarantees."""

from __future__ import annotations

import random

import pytest

from lfpsolve import (
    InvalidModel,
    P1CA,
    StructureViolation,
    Transition,
    build_graph,
    build_termination_mps,
    c_min,
    clean,
    decompose,
    detect_zero_variables,
    p1ca_to_json,
    parse_p1ca,
    rat,
    rounding_params,
    solve,
    termination_probabilities,
    validate,
)
from lfpsolve.p1ca import max_prob_bits, pair_name

from conftest import gamblers_ruin, random_p1ca
from reference import univariate_quadratic_lfp


class TestValidate:
    def test_valid_gambler(self):
        assert validate(gamblers_ruin("2/3")) == []

    def test_row_sum_violation(self):
        model = P1CA(
            ("u",),
            (Transition("u", rat(2, 3), -1, "u"), Transition("u", rat(1, 2), 1, "u")),
            (),
        )
        problems = validate(model)
        assert len(problems) == 1
        assert "7/6" in problems[0]

    def test_decrement_in_zero_table(self):
        model = P1CA(("u",), (), (Transition("u", rat(1), -1, "u"),))
        problems = validate(model)
        assert any("counter move -1" in p for p in problems)

    def test_multiple_violations_reported(self):
        model = P1CA(
            ("u", "u"),
            (Transition("u", rat(0), 1, "u"), Transition("ghost", rat(1, 2), 0, "u")),
            (Transition("u", rat(1), -1, "u"),),
        )
        problems = validate(model)
        assert len(problems) >= 4
        with pytest.raises(InvalidModel):
            build_termination_mps(model)

    def test_separate_tables_sum_independently(self):
        # 1 in delta and 1 in delta0 from the same state is fine.
        model = P1CA(
            ("u",),
            (Transition("u", rat(1), -1, "u"),),
            (Transition("u", rat(1), 1, "u"),),
        )
        assert validate(model) == []


class TestParsing:
    DOC = (
        '{"states":["s"],'
        '"delta":[{"from":"s","p":"1/3","k":-1,"to":"s"},{"from":"s","p":"2/3","k":1,"to":"s"}],'
        '"delta0":[]}'
    )

    def test_round_trip(self):
        model = parse_p1ca(self.DOC)
        assert model.states == ("s",)
        assert model.delta[0].probability == rat(1, 3)
        import json

        assert parse_p1ca(json.dumps(p1ca_to_json(model))) == model

    @pytest.mark.parametrize(
        "doc",
        [
            "nope",
            '{"states":"s","delta":[]}',
            '{"states":["s"],"delta":[{"from":"s","p":"0.5","k":1,"to":"s"}]}',
            '{"states":["s"],"delta":[{"from":"s","p":"1/2","k":"up","to":"s"}]}',
            '{"states":["s"],"delta":[{"from":"s","p":"1/2","k":1}]}',
            '{"states":["s"],"delta":[],"junk":[]}',
            '{"states":["s"],"delta":[{"from":["s"],"p":"1/2","k":0,"to":"s"}],"delta0":[]}',
            '{"states":["s"],"delta":[{"from":"s","p":"1/2","k":0,"to":{"a":1}}],"delta0":[]}',
        ],
    )
    def test_rejects_malformed(self, doc):
        from lfpsolve import ParseError

        with pytest.raises(ParseError):
            parse_p1ca(doc)

    def test_integer_literal_past_the_digit_limit_is_a_parse_error(self):
        from lfpsolve import ParseError

        # json.loads raises a plain ValueError for an int of more than 4300 digits.
        doc = '{"states":["s"],"delta":[{"from":"s","p":"1/2","k":' + "1" * 5001 + ',"to":"s"}]}'
        with pytest.raises(ParseError, match="^invalid JSON: "):
            parse_p1ca(doc)


class TestTerminationSystem:
    def test_gambler_equation(self):
        system = build_termination_mps(gamblers_ruin("2/3"))
        assert system.names == (pair_name("s", "s"),)
        by_degree = {m.degree: m.coeff for m in system.equations[0]}
        assert by_degree == {0: rat(1, 3), 2: rat(2, 3)}

    def test_immediate_termination(self):
        model = P1CA(("u",), (Transition("u", rat(1), -1, "u"),), ())
        system = build_termination_mps(model)
        assert [(m.degree, m.coeff) for m in system.equations[0]] == [(0, rat(1))]

    def test_only_stay_moves_is_linear(self):
        model = P1CA(
            ("a", "b"),
            (Transition("a", rat(1, 2), 0, "b"), Transition("b", rat(1, 3), 0, "a")),
            (),
        )
        system = build_termination_mps(model)
        assert system.n == 4
        assert system.degree() <= 1

    def test_duplicate_transitions_aggregate(self):
        model = P1CA(
            ("u",),
            (Transition("u", rat(1, 4), -1, "u"), Transition("u", rat(1, 4), -1, "u")),
            (),
        )
        system = build_termination_mps(model)
        assert system.equations[0][0].coeff == rat(1, 2)

    def test_zero_counter_table_ignored(self):
        with_zero = P1CA(
            ("u",),
            (Transition("u", rat(1, 2), -1, "u"),),
            (Transition("u", rat(1), 1, "u"),),
        )
        without = P1CA(("u",), (Transition("u", rat(1, 2), -1, "u"),), ())
        assert build_termination_mps(with_zero) == build_termination_mps(without)

    def test_nonlinear_depth_at_most_one_on_random_corpus(self, rng):
        for _ in range(40):
            model = random_p1ca(rng, rng.randint(1, 3))
            system = build_termination_mps(model)
            cleaned, _ = clean(system)
            if not cleaned.n:
                continue
            decomp = decompose(build_graph(cleaned), cleaned)
            assert decomp.nonlinear_depth <= 1


class TestRoundingParams:
    def test_gambler_parameter(self):
        params = rounding_params(gamblers_ruin("2/3"), rat(1, 2**20))
        assert params == {"r": 1, "m": 2, "h": 72, "h_headline_variant": 72}

    def test_variants_diverge_for_larger_automata(self, rng):
        model = random_p1ca(rng, 3)
        params = rounding_params(model, rat(1, 2))
        assert params["h"] - params["h_headline_variant"] == 9 * (3**4 - 3**2)

    def test_bit_width(self):
        assert max_prob_bits(gamblers_ruin("2/3")) == 2
        assert max_prob_bits(gamblers_ruin("3/16")) == 5


class TestTerminationProbabilities:
    def test_gamblers_ruin_supercritical(self):
        eps = rat(1, 2**10)
        matrix = termination_probabilities(gamblers_ruin("2/3"), eps)
        value = matrix.entries[0][0]
        assert abs(value - rat(1, 2)) <= eps
        assert matrix.report.status == "certified-eps"
        assert matrix.zero_mask == ((False,),)

    def test_gamblers_ruin_subcritical(self):
        eps = rat(1, 2**10)
        matrix = termination_probabilities(gamblers_ruin("1/3"), eps)
        assert rat(1) - matrix.entries[0][0] <= eps

    def test_immediate_termination_exact(self):
        model = P1CA(("u",), (Transition("u", rat(1), -1, "u"),), ())
        matrix = termination_probabilities(model, rat(1, 2**10))
        assert matrix.entries[0][0] == rat(1)

    def test_invalid_model_raises(self):
        bad = P1CA(("u",), (Transition("u", rat(7, 6), -1, "u"),), ())
        with pytest.raises(InvalidModel):
            termination_probabilities(bad, rat(1, 4))

    def test_entries_within_unit_interval_and_masked_zeros(self, rng):
        for _ in range(6):
            model = random_p1ca(rng, rng.randint(1, 3))
            eps = rat(1, 2**10)
            matrix = termination_probabilities(model, eps, mode="adaptive")
            zeros = detect_zero_variables(build_termination_mps(model))
            r = len(model.states)
            for u in range(r):
                row_sum = rat(0)
                for v in range(r):
                    value = matrix.entries[u][v]
                    assert 0 <= value <= 1
                    assert matrix.zero_mask[u][v] == ((u * r + v) in zeros)
                    if matrix.zero_mask[u][v]:
                        assert value == 0
                    row_sum += value
                assert row_sum <= 1

    def test_certified_mask_is_the_zero_set_of_clean(self):
        masked = unmasked = 0
        for seed in range(12):
            rng = random.Random(seed)
            model = random_p1ca(rng, rng.randint(1, 3))
            matrix = termination_probabilities(model, rat(1, 2**10))
            kept = set(clean(build_termination_mps(model))[1])
            r = len(model.states)
            for u in range(r):
                for v in range(r):
                    assert matrix.zero_mask[u][v] == ((u * r + v) not in kept)
                    masked += matrix.zero_mask[u][v]
                    unmasked += not matrix.zero_mask[u][v]
        assert masked and unmasked

    def test_depth_guard_reads_the_report(self, monkeypatch):
        def reporting_depth_two(system, epsilon, options):
            report = solve(system, epsilon, options)
            report.info["nonlinear_depth"] = 2
            return report

        monkeypatch.setattr("lfpsolve.p1ca.solve", reporting_depth_two)
        with pytest.raises(StructureViolation, match="nonlinear depth 2"):
            termination_probabilities(gamblers_ruin("2/3"), rat(1, 2**10))

    def test_decreasing_epsilon_never_hurts_on_analytic_fixture(self):
        truth = univariate_quadratic_lfp("2/3", 0, "1/3")
        previous_error = None
        for k in (4, 8, 12, 16):
            matrix = termination_probabilities(gamblers_ruin("2/3"), rat(1, 2**k))
            error = truth - matrix.entries[0][0]
            assert error >= 0
            if previous_error is not None:
                assert error <= previous_error
            previous_error = error

    def test_qmin_bound_from_state_count_on_random_corpus(self, rng):
        # q*_min >= c_min^(r^3) over the positive coordinates; checked against
        # the solver's never-overshooting approximation from below.
        checked = 0
        for _ in range(12):
            model = random_p1ca(rng, rng.randint(1, 3))
            system = build_termination_mps(model)
            cleaned, _ = clean(system)
            if not cleaned.n:
                continue
            matrix = termination_probabilities(model, rat(1, 2**24), mode="adaptive")
            r = len(model.states)
            floor = min(c_min(system), rat(1)) ** (r**3)
            positive = [
                matrix.entries[u][v]
                for u in range(r)
                for v in range(r)
                if not matrix.zero_mask[u][v]
            ]
            assert positive
            lower = min(positive)
            assert lower >= floor
            checked += 1
        assert checked >= 8

    def test_adaptive_matches_certified_on_gambler(self):
        eps = rat(1, 2**12)
        certified = termination_probabilities(gamblers_ruin("2/3"), eps)
        adaptive = termination_probabilities(gamblers_ruin("2/3"), eps, mode="adaptive")
        gap = abs(certified.entries[0][0] - adaptive.entries[0][0])
        assert gap <= 2 * eps
        assert adaptive.report.status == "certified-eps"
        assert adaptive.report.certificate.kind == "witness"
