"""System representation: parsing, serialization, evaluation, Jacobians,
normal form, size measure, zero detection, substitution, and cleaning."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfpsolve import (
    DegreeTooHigh,
    Monomial,
    MonotoneSystem,
    NotMonotone,
    ParseError,
    RnmConfig,
    c_min,
    clean,
    detect_zero_variables,
    encoding_size,
    eval_jacobian,
    evaluate,
    norm_p_one,
    parse_mps,
    rat,
    run_rnm,
    serialize_mps,
    system_from_json,
    system_of,
    to_snf,
    value_iterate,
)
from lfpsolve.mps import evaluate_scaled, restrict
from lfpsolve.ratmath import vec_sub

from conftest import random_substochastic, random_with_zero_variables, univariate
from reference import mat_vec_mul, zero_set_oracle

UNIVARIATE_DOC = '{"vars":["x"],"eqs":[[{"c":"1/2","m":{"x":2}},{"c":"1/2","m":{}}]]}'


class TestParsing:
    def test_univariate_example(self):
        sys = parse_mps(UNIVARIATE_DOC)
        assert sys.names == ("x",)
        assert [m.coeff for m in sys.equations[0]] == [rat(1, 2), rat(1, 2)]
        assert sys.equations[0][0].exponents == ((0, 2),)
        assert sys.equations[0][1].exponents == ()

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(NotMonotone):
            parse_mps('{"vars":["x"],"eqs":[[{"c":"-1","m":{}}]]}')
        with pytest.raises(NotMonotone):
            parse_mps('{"vars":["x"],"eqs":[[{"c":"0","m":{}}]]}')

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_mps('{"vars":["x"],"eqs":[]}')

    @pytest.mark.parametrize(
        "doc",
        [
            "not json",
            "[1,2]",
            '{"vars":["x"]}',
            '{"vars":["x"],"eqs":[[{"c":"1"}]]}',
            '{"vars":["x"],"eqs":[[{"c":"1","m":{},"extra":1}]]}',
            '{"vars":["x"],"eqs":[[{"c":"0.5","m":{}}]]}',
            '{"vars":["x"],"eqs":[[{"c":"1","m":{"y":1}}]]}',
            '{"vars":["x"],"eqs":[[{"c":"1","m":{"x":0}}]]}',
            '{"vars":["x"],"eqs":[[{"c":"1","m":{"x":true}}]]}',
            '{"vars":["x","x"],"eqs":[[],[]]}',
            '{"vars":["x"],"eqs":[[]],"junk":1}',
        ],
    )
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises(ParseError):
            parse_mps(doc)

    def test_integer_literal_past_the_digit_limit_is_a_parse_error(self):
        # json.loads raises a plain ValueError for an int of more than 4300 digits.
        doc = '{"vars":["x"],"eqs":[[{"c":"1/2","m":{"x":' + "1" * 5001 + '}}]]}'
        with pytest.raises(ParseError, match="^invalid JSON: "):
            parse_mps(doc)

    # (bad term of equation 1 built from its "m", error, message).  Each
    # case runs with a one-variable "m" ({"y": 1}) and a two-variable one
    # ({"x": 1, "y": 1}).  A later term of the same equation is bad too, so
    # each message must come from the first bad term.
    TERM_ERRORS = [
        (lambda m: [["c", "1/2"], ["m", m]], ParseError, 'terms must be objects with exactly "c" and "m" (equation 1)'),
        (lambda m: {"c": "1/2", "m": m, "x": 1}, ParseError, 'terms must be objects with exactly "c" and "m" (equation 1)'),
        (lambda m: {"m": m}, ParseError, 'terms must be objects with exactly "c" and "m" (equation 1)'),
        (lambda m: {"k": "1/2", "m": m}, ParseError, 'terms must be objects with exactly "c" and "m" (equation 1)'),
        (lambda m: {"c": 1, "m": m}, ParseError, 'coefficient must be a "p/q" string (equation 1)'),
        (lambda m: {"c": None, "m": m}, ParseError, 'coefficient must be a "p/q" string (equation 1)'),
        (lambda m: {"c": "0.5", "m": m}, ParseError, "not a rational literal: '0.5'"),
        (lambda m: {"c": "0", "m": m}, NotMonotone, "coefficient 0 in equation 1 is not positive"),
        (lambda m: {"c": "1/2", "m": list(m.items())}, ParseError, '"m" must be an object (equation 1)'),
    ]
    VARIABLE_ERRORS = [
        # (name, exponent) put last in "m", and the message it gives
        ("z", 1, "unknown variable 'z' in equation 1"),
        ("y", 0, "exponent of 'y' in equation 1 must be an integer >= 1"),
        ("y", True, "exponent of 'y' in equation 1 must be an integer >= 1"),
        ("y", 1.0, "exponent of 'y' in equation 1 must be an integer >= 1"),
        ("y", "2", "exponent of 'y' in equation 1 must be an integer >= 1"),
        ("y", -1, "exponent of 'y' in equation 1 must be an integer >= 1"),
    ]

    @staticmethod
    def _raises(bad_term, error, message):
        good = {"c": "1/4", "m": {"x": 1, "y": 1}}
        doc = {"vars": ["x", "y"], "eqs": [[good], [good, bad_term, {"c": "1/4", "m": {"w": 1}}]]}
        with pytest.raises(error) as exc:
            parse_mps(json.dumps(doc))
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("case", range(len(TERM_ERRORS)))
    def test_term_errors_keep_their_messages(self, case, width):
        term, error, message = self.TERM_ERRORS[case]
        self._raises(term({"y": 1} if width == 1 else {"x": 1, "y": 1}), error, message)

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("case", VARIABLE_ERRORS)
    def test_variable_errors_keep_their_messages(self, case, width):
        name, exponent, message = case
        powers = {name: exponent} if width == 1 else {"x": 2, name: exponent}
        self._raises({"c": "1/2", "m": powers}, ParseError, message)

    @pytest.mark.parametrize(
        ("term", "error", "message"),
        [
            # the term's shape, then its coefficient, then "m" in key order
            ({"c": 1, "m": {"z": 0}, "x": 1}, ParseError, 'terms must be objects with exactly "c" and "m" (equation 1)'),
            ({"c": 1, "m": [1]}, ParseError, 'coefficient must be a "p/q" string (equation 1)'),
            ({"c": "1.5", "m": [1]}, ParseError, "not a rational literal: '1.5'"),
            ({"c": "-1", "m": {"z": 1}}, NotMonotone, "coefficient -1 in equation 1 is not positive"),
            ({"c": "1/2", "m": {"z": 0, "y": 0}}, ParseError, "unknown variable 'z' in equation 1"),
            ({"c": "1/2", "m": {"y": 0, "z": 1}}, ParseError, "exponent of 'y' in equation 1 must be an integer >= 1"),
        ],
    )
    def test_error_precedence_within_a_term(self, term, error, message):
        self._raises(term, error, message)

    @pytest.mark.parametrize(
        ("bad", "error", "message"),
        [
            ("0.5", ParseError, "not a rational literal: '0.5'"),
            ("1 /2", ParseError, "not a rational literal: '1 /2'"),
            ("-1/2", NotMonotone, "coefficient -1/2 in equation 1 is not positive"),
            ("0", NotMonotone, "coefficient 0 in equation 1 is not positive"),
            (" -1/2 ", NotMonotone, "coefficient  -1/2  in equation 1 is not positive"),
        ],
    )
    def test_repeated_bad_coefficient_names_its_first_equation(self, bad, error, message):
        # Coefficient strings are parsed once per document; a bad one must
        # still fail where it first appears, with the same message.
        terms = [{"c": bad, "m": {"x": 1}}, {"c": bad, "m": {}}]
        doc = {"vars": ["x", "y", "z"], "eqs": [[{"c": "1/2", "m": {}}], terms, terms]}
        with pytest.raises(error) as exc:
            parse_mps(json.dumps(doc))
        assert str(exc.value) == message

    class _Dict(dict):
        pass

    class _List(list):
        pass

    class _Str(str):
        pass

    class _Int(int):
        pass

    @pytest.mark.parametrize(
        ("build", "message"),
        [
            # Only the exact types json.loads returns are read; a subclass
            # gives the same error as any other wrong type, at the same place.
            (lambda D, L, S, I: D({"vars": ["x"], "eqs": [[]]}), "top level must be an object"),
            (lambda D, L, S, I: {"vars": L(["x"]), "eqs": [[]]}, '"vars" must be a list of non-empty strings'),
            (lambda D, L, S, I: {"vars": [S("x")], "eqs": [[]]}, '"vars" must be a list of non-empty strings'),
            (lambda D, L, S, I: {"vars": ["x"], "eqs": L([[]])}, '"eqs" must list exactly one equation per variable'),
            (lambda D, L, S, I: {"vars": ["x"], "eqs": [L()]}, "equation 0 must be a list of terms"),
            (
                lambda D, L, S, I: {"vars": ["x"], "eqs": [[D({"c": "1", "m": {}})]]},
                'terms must be objects with exactly "c" and "m" (equation 0)',
            ),
            (
                lambda D, L, S, I: {"vars": ["x"], "eqs": [[{"c": S("1"), "m": {}}]]},
                'coefficient must be a "p/q" string (equation 0)',
            ),
            (lambda D, L, S, I: {"vars": ["x"], "eqs": [[{"c": "1", "m": D()}]]}, '"m" must be an object (equation 0)'),
            (
                lambda D, L, S, I: {"vars": ["x"], "eqs": [[{"c": "1", "m": {"x": I(1)}}]]},
                "exponent of 'x' in equation 0 must be an integer >= 1",
            ),
        ],
    )
    def test_system_from_json_refuses_subclasses(self, build, message):
        doc = build(self._Dict, self._List, self._Str, self._Int)
        with pytest.raises(ParseError) as exc:
            system_from_json(doc)
        assert str(exc.value) == message
        # The same document with plain types is valid.
        assert system_from_json(json.loads(json.dumps(doc))).names == ("x",)

    def test_coefficient_with_surrounding_whitespace_parses(self):
        terms = [{"c": " 1/4 ", "m": {"x": 2}}, {"c": "\t1/4\n", "m": {}}, {"c": "1/4", "m": {"x": 1}}]
        doc = {"vars": ["x"], "eqs": [terms]}
        sys = parse_mps(json.dumps(doc))
        assert [m.coeff for m in sys.equations[0]] == [rat(1, 4)] * 3
        assert [t["c"] for t in json.loads(serialize_mps(sys))["eqs"][0]] == ["1/4"] * 3

    def test_round_trip_on_fixtures(self, rng):
        fixtures = [parse_mps(UNIVARIATE_DOC)]
        fixtures += [random_substochastic(rng, rng.randint(1, 5)) for _ in range(20)]
        fixtures += [random_with_zero_variables(rng, rng.randint(1, 6)) for _ in range(20)]
        for sys in fixtures:
            text = serialize_mps(sys)
            again = parse_mps(text)
            assert serialize_mps(again) == text
            assert again.names == sys.names
            # same polynomial content regardless of term order
            point = [rat(k + 1, 7) for k in range(sys.n)]
            assert evaluate(again, point) == evaluate(sys, point)

    def test_serialization_order(self):
        sys = system_of(
            ["b", "a"],
            [("1/3", {}), ("1", {"a": 1, "b": 1}), ("2", {"b": 1})],
            [("1", {})],
        )
        text = serialize_mps(sys)
        first = parse_mps(text).equations[0]
        degrees = [m.degree for m in first]
        assert degrees == sorted(degrees, reverse=True)


class TestEncodingSize:
    def test_univariate_frozen_value(self):
        # 1/2 x^2: numerator 1 bit + denominator 2 bits + index 1 bit + exponent 2 bits = 6;
        # constant 1/2: 1 + 2 = 3.
        assert encoding_size(parse_mps(UNIVARIATE_DOC)) == 9

    def test_constant_one(self):
        assert encoding_size(univariate(0, 0, 1)) == 2

    def test_at_least_n(self, rng):
        for _ in range(20):
            sys = random_with_zero_variables(rng, rng.randint(1, 6))
            assert encoding_size(sys) >= sys.n


class TestEvaluation:
    def test_value_iteration_start(self):
        sys = parse_mps(UNIVARIATE_DOC)
        assert evaluate(sys, [rat(0)]) == [rat(1, 2)]

    def test_rational_point(self):
        sys = parse_mps(UNIVARIATE_DOC)
        assert evaluate(sys, [rat(5, 8)]) == [rat(89, 128)]

    def test_fixed_point_at_one(self):
        sys = parse_mps(UNIVARIATE_DOC)
        assert evaluate(sys, [rat(1)]) == [rat(1)]

    def test_monotonicity(self, rng):
        for _ in range(30):
            sys = random_substochastic(rng, rng.randint(1, 4))
            a = [rat(rng.randint(0, 8), 8) for _ in range(sys.n)]
            b = [ai + rat(rng.randint(0, 8), 8) for ai in a]
            pa, pb = evaluate(sys, a), evaluate(sys, b)
            assert all(x <= y for x, y in zip(pa, pb))

    @pytest.mark.parametrize("bits", [64, 3])
    def test_grid_evaluation_is_the_exact_floor(self, rng, bits):
        # Degree up to 3, coefficients over several denominators, and
        # mantissas that are often 0 (the monomial vanishes) or above 2**bits.
        for _ in range(60):
            n = rng.randint(1, 4)
            names = [f"v{i}" for i in range(n)]
            eqs = []
            for _ in range(n):
                terms = []
                for _ in range(rng.randint(0, 4)):
                    powers = {}
                    for _ in range(rng.randint(0, 3)):
                        v = rng.choice(names)
                        powers[v] = powers.get(v, 0) + 1
                    terms.append((rat(rng.randint(1, 40), rng.choice([1, 2, 3, 7, 12, 1 << 40])), powers))
                eqs.append(terms)
            sys = system_of(names, *eqs)
            back = sys.integer_form.back_scale(1 << bits)
            for _ in range(5):
                m = [rng.choice([0, rng.randint(0, 1 << bits), rng.randint(0, 1 << (bits + 6))]) for _ in range(n)]
                exact = evaluate(sys, [rat(mi, 1 << bits) for mi in m])
                floors = [acc // back for acc in evaluate_scaled(sys, m, 1 << bits)]
                assert floors == [math.floor(v * (1 << bits)) for v in exact]

    def test_helpers(self):
        sys = parse_mps(UNIVARIATE_DOC)
        assert c_min(sys) == rat(1, 2)
        assert norm_p_one(sys) == rat(1)


class TestJacobian:
    def test_square_rule(self):
        sys = parse_mps(UNIVARIATE_DOC)
        z = rat(3, 7)
        assert eval_jacobian(sys, [z]) == [{0: z}]

    def test_product_rule(self):
        sys = system_of(["x1", "x2"], [("1", {"x1": 1, "x2": 1})], [("1/2", {})])
        a, b = rat(2, 3), rat(5, 7)
        assert eval_jacobian(sys, [a, b]) == [{0: b, 1: a}, {}]

    def test_zero_entries_are_not_stored(self):
        sys = system_of(
            ["x1", "x2"],
            [("1", {"x1": 1, "x2": 1}), ("1/2", {"x1": 2})],
            [("1/2", {"x2": 1}), ("1/2", {"x1": 1})],
        )
        assert eval_jacobian(sys, [rat(0), rat(3)]) == [{0: rat(3)}, {0: rat(1, 2), 1: rat(1, 2)}]
        assert eval_jacobian(sys, [rat(0), rat(0)]) == [{}, {0: rat(1, 2), 1: rat(1, 2)}]
        # Contributions that cancel at a negative point leave no entry.
        assert eval_jacobian(sys, [rat(-3), rat(3)]) == [{1: rat(-3)}, {0: rat(1, 2), 1: rat(1, 2)}]

    def test_linear_constant_jacobian(self):
        sys = univariate(0, "1/2", "1/4")
        assert eval_jacobian(sys, [rat(9, 5)]) == [{0: rat(1, 2)}]

    def test_degree_too_high(self):
        with pytest.raises(DegreeTooHigh):
            eval_jacobian(univariate_cubic(), [rat(1)])

    def test_mean_value_identity(self, rng):
        # P(a) - P(b) = B((a+b)/2) (a - b) exactly, for quadratic systems.
        for _ in range(40):
            sys = random_substochastic(rng, rng.randint(1, 4))
            a = [rat(rng.randint(-12, 12), 7) for _ in range(sys.n)]
            b = [rat(rng.randint(-12, 12), 7) for _ in range(sys.n)]
            mid = [(x + y) / 2 for x, y in zip(a, b)]
            lhs = vec_sub(evaluate(sys, a), evaluate(sys, b))
            rhs = mat_vec_mul(eval_jacobian(sys, mid), vec_sub(a, b))
            assert lhs == rhs


def univariate_cubic():
    return system_of(["x"], [("2", {"x": 3}), ("1/3", {})])


class TestSnf:
    def test_cubic_split(self):
        snf = to_snf(univariate_cubic())
        sys = snf.system
        assert sys.n == 3
        assert snf.forms == ("plus", "star", "star")
        # w1 = x*x, w2 = x*w1, x = 2 w2 + 1/3
        assert sys.equations[1][0].exponents == ((0, 2),)
        assert sys.equations[2][0].exponents == ((0, 1), (1, 1))
        host = sys.equations[0]
        assert {m.degree for m in host} == {0, 1}
        assert snf.projection == (0,)

    def test_linear_unchanged(self):
        sys = univariate(0, "1/2", "1/4")
        snf = to_snf(sys)
        assert snf.system == sys
        assert snf.forms == ("plus",)

    def test_every_equation_is_star_or_plus(self, rng):
        for _ in range(15):
            sys = random_with_zero_variables(rng, rng.randint(1, 5))
            snf = to_snf(sys)
            for terms, form in zip(snf.system.equations, snf.forms):
                if form == "star":
                    assert len(terms) == 1
                    assert terms[0].coeff == rat(1)
                    assert terms[0].degree == 2
                else:
                    assert all(m.degree <= 1 for m in terms)

    def test_lfp_preserved_on_critical_univariate(self):
        # The original and its normal form are solved independently by the
        # rounded Newton loop (which keeps iterate sizes bounded where exact
        # value iteration would double its bit size per step); both converge
        # from below to the same LFP, so the projections must agree tightly.
        original = parse_mps(UNIVARIATE_DOC)
        snf = to_snf(original)
        x, _ = run_rnm(original, RnmConfig(h=64, g=48))
        y, _ = run_rnm(snf.system, RnmConfig(h=64, g=60))
        gap = abs(x[0].value() - y[snf.projection[0]].value())
        assert gap <= rat(1, 2**20)

    def test_lfp_preserved_on_random_subcritical(self, rng):
        for _ in range(10):
            sys = random_substochastic(rng, rng.randint(1, 4))
            snf = to_snf(sys)
            a, _ = run_rnm(sys, RnmConfig(h=64, g=48))
            b, _ = run_rnm(snf.system, RnmConfig(h=64, g=60))
            for i in range(sys.n):
                gap = abs(a[i].value() - b[snf.projection[i]].value())
                assert gap <= rat(1, 2**20)

    def test_snf_value_iterates_lag_the_original(self, rng):
        # The normal form's auxiliary chain only delays information, so its
        # k-step value iterate never overtakes the original's, and both are
        # monotone lower bounds on the common LFP.
        for _ in range(10):
            sys = random_substochastic(rng, 3)
            snf = to_snf(sys)
            for k in (3, 7, 11):
                a = value_iterate(sys, k)
                b = value_iterate(snf.system, k)
                for i in range(sys.n):
                    assert b[snf.projection[i]] <= a[i]


class TestZeroDetection:
    def test_product_depends_on_nothing_positive(self):
        sys = system_of(
            ["x1", "x2"],
            [("1", {"x1": 1, "x2": 1})],
            [("1/2", {"x2": 1}), ("1/2", {})],
        )
        assert detect_zero_variables(sys) == frozenset({0})

    def test_pure_cycle_is_zero(self):
        sys = system_of(["x1", "x2"], [("1", {"x2": 1})], [("1", {"x1": 1})])
        assert detect_zero_variables(sys) == frozenset({0, 1})

    def test_constants_everywhere_means_empty(self, rng):
        for _ in range(10):
            sys = random_substochastic(rng, rng.randint(1, 5))
            assert detect_zero_variables(sys) == frozenset()

    def test_matches_oracle_on_random_corpus(self, rng):
        for _ in range(120):
            sys = random_with_zero_variables(rng, rng.randint(1, 6))
            assert detect_zero_variables(sys) == zero_set_oracle(sys)

    @pytest.mark.parametrize("constant", [True, False])
    def test_long_descending_chain(self, constant):
        # x_i = x_{i+1}/2 with the only constant, if any, at the last
        # variable: each pass of a repeat-until-stable loop marks one more
        # variable, so that loop is quadratic in n here.
        n = 20_000
        half = rat(1, 2)
        eqs = [(Monomial(half, ((i + 1, 1),)),) for i in range(n - 1)]
        eqs.append((Monomial(half, ()),) if constant else (Monomial(half, ((0, 1),)),))
        sys = MonotoneSystem(tuple(f"x{i}" for i in range(n)), tuple(eqs))
        assert detect_zero_variables(sys) == (frozenset() if constant else frozenset(range(n)))


class TestClean:
    def test_removes_starved_product(self):
        sys = system_of(
            ["x1", "x2"],
            [("1", {"x1": 1, "x2": 1})],
            [("1/2", {"x2": 1}), ("1/2", {})],
        )
        cleaned, kept = clean(sys)
        assert cleaned.names == ("x2",)
        assert kept == (1,)
        assert evaluate(cleaned, [rat(0)]) == [rat(1, 2)]

    def test_identity_on_clean_system(self, rng):
        sys = random_substochastic(rng, 4)
        cleaned, kept = clean(sys)
        assert cleaned == sys
        assert kept == (0, 1, 2, 3)

    def test_cascade_to_empty(self):
        sys = system_of(
            ["x1", "x2"],
            [("1", {"x2": 1}), ("1", {"x1": 2})],
            [("1", {"x2": 1})],
        )
        assert zero_set_oracle(sys) == frozenset({0, 1})
        cleaned, kept = clean(sys)
        assert cleaned.n == 0
        assert kept == ()

    def test_cleaned_system_has_positive_lfp(self, rng):
        for _ in range(40):
            sys = random_with_zero_variables(rng, rng.randint(1, 6))
            cleaned, _ = clean(sys)
            if cleaned.n:
                floor = value_iterate(cleaned, cleaned.n)
                assert all(x > 0 for x in floor)


@st.composite
def restriction_cases(draw):
    """A system of any degree with repeated monomials, a member subset,
    exact non-negative values (zeros included) on the other variables, and
    a point on the members."""
    n = draw(st.integers(1, 6))
    coefficient = st.builds(Fraction, st.integers(1, 2**40), st.integers(1, 2**40))
    value = st.just(Fraction(0)) | st.builds(Fraction, st.integers(0, 2**20), st.integers(1, 2**20))
    powers = st.dictionaries(st.integers(0, n - 1), st.integers(1, 4), max_size=3)
    equations = []
    for _ in range(n):
        terms = draw(st.lists(st.tuples(coefficient, powers), max_size=4))
        terms += terms[: draw(st.integers(0, len(terms)))]  # repeated monomials
        equations.append(tuple(Monomial(c, tuple(sorted(p.items()))) for c, p in terms))
    system = MonotoneSystem(tuple(f"x{i}" for i in range(n)), tuple(equations))
    members = sorted(draw(st.sets(st.integers(0, n - 1))))
    values = [None if v in members else draw(value) for v in range(n)]
    point = draw(st.lists(value, min_size=len(members), max_size=len(members)))
    return system, tuple(members), values, point


def assert_checked(system):
    """The system and every monomial are ones that the validating
    constructors accept as they are."""
    assert MonotoneSystem(system.names, system.equations) == system
    for terms in system.equations:
        for mono in terms:
            assert type(mono) is Monomial
            assert mono == Monomial(mono.coeff, mono.exponents)


class TestUncheckedConstruction:
    # Parsing, normal form and substitution build their monomials without
    # Monomial's checks, from parts they have already checked.
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(restriction_cases())
    def test_builds_only_monomials_that_pass_the_checks(self, case):
        system, members, values, _ = case
        snf = to_snf(system).system
        built = [parse_mps(serialize_mps(system)), snf, clean(system)[0], clean(snf)[0]]
        built.append(restrict(system, members, values))
        for result in built:
            assert_checked(result)


class TestRestrict:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(restriction_cases())
    def test_evaluates_as_the_full_system_on_the_members(self, case):
        system, members, values, point = case
        full = list(values)
        for v, y in zip(members, point):
            full[v] = y
        restricted = restrict(system, members, values)
        assert restricted.names == tuple(system.names[v] for v in members)
        whole = evaluate(system, full)
        assert evaluate(restricted, point) == [whole[v] for v in members]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(restriction_cases())
    def test_shares_exactly_what_it_leaves_unchanged(self, case):
        system, members, values, _ = case
        local = {v: i for i, v in enumerate(members)}
        restricted = restrict(system, members, values)
        for i, v in enumerate(members):
            expected = []  # (original monomial if it must be shared, coefficient, exponents)
            for mono in system.equations[v]:
                if all(local.get(j) == j for j, _ in mono.exponents):
                    expected.append((mono, mono.coeff, mono.exponents))
                elif all(j in local or values[j] for j, _ in mono.exponents):
                    coeff = mono.coeff
                    for j, e in mono.exponents:
                        if j not in local:
                            coeff *= values[j] ** e
                    expected.append((None, coeff, tuple((local[j], e) for j, e in mono.exponents if j in local)))
            got = restricted.equations[i]
            assert [(m.coeff, m.exponents) for m in got] == [(c, e) for _, c, e in expected]
            for mono, (original, _, _) in zip(got, expected):
                if original is not None:
                    assert mono is original
                else:
                    assert all(mono is not m for m in system.equations[v])
            unchanged = len(expected) == len(system.equations[v]) and all(e[0] is not None for e in expected)
            assert (got is system.equations[v]) == unchanged

    def test_cleaning_shares_the_equations_it_does_not_touch(self):
        # x1 is zero; x0 keeps its index and its equation, x2 moves to index 1.
        sys = system_of(
            ["x0", "x1", "x2"],
            [("1/2", {"x0": 2}), ("1/4", {})],
            [("1/2", {"x1": 1})],
            [("1/3", {"x0": 1, "x2": 1}), ("1/5", {"x1": 1}), ("1/6", {})],
        )
        cleaned, kept = clean(sys)
        assert kept == (0, 2)
        assert cleaned.equations[0] is sys.equations[0]
        rebuilt, constant = cleaned.equations[1]
        assert (rebuilt.coeff, rebuilt.exponents) == (rat(1, 3), ((0, 1), (1, 1)))
        assert constant is sys.equations[2][2]

    def test_a_zero_value_deletes_the_monomial_not_the_constant(self):
        sys = system_of(
            ["x", "z", "w"],
            [("1/4", {"x": 1, "z": 1}), ("1/3", {"x": 1, "w": 2}), ("1/8", {})],
            [("1", {})],
            [("1", {})],
        )
        restricted = restrict(sys, (0,), [None, rat(0), rat(1, 2)])
        assert restricted.equations == (
            (Monomial(rat(1, 12), ((0, 1),)), Monomial(rat(1, 8), ())),
        )
