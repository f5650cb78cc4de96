"""Exact scalar arithmetic, dyadic rounding, and the rational linear solver."""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfpsolve import Dyadic, SingularMatrix, ceil_log2, rat, rat_str, round_down_dyadic, solve_linear
from lfpsolve.ratmath import (
    identity_minus,
    parse_rat,
    rational_exceeds_pow2,
    solve_integer,
)

from reference import is_perfect_square, mat_vec_mul, sqrt_bounds, sqrt_upper


def rand_rat(rng, span=50, den_span=50):
    return rat(rng.randint(-span, span), rng.randint(1, den_span))


class TestRationals:
    def test_exact_field_laws(self, rng):
        for _ in range(300):
            a, b = rand_rat(rng), rand_rat(rng)
            assert (a + b) - b == a
            if b != 0:
                assert (a * b) / b == a

    def test_lowest_terms(self):
        q = rat(6, 4)
        assert (int(q.numerator), int(q.denominator)) == (3, 2)
        assert rat(-6, 4) == rat(-3, 2)

    def test_string_round_trip(self, rng):
        assert rat_str(rat(5, 3)) == "5/3"
        assert rat_str(rat(5, 1)) == "5"
        assert rat_str(rat(-7, 2)) == "-7/2"
        for _ in range(100):
            q = rand_rat(rng)
            assert parse_rat(rat_str(q)) == q

    @pytest.mark.parametrize("bad", ["1.5", "", "1/0", "0x3", "1/-2", "a/b", "1 / 2"])
    def test_parse_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            rat(0.5)


class TestCeilLog2:
    @pytest.mark.parametrize(
        "value,expected",
        [("1", 0), ("2", 1), ("3", 2), ("4", 2), ("5", 3), ("1/2", -1), ("1/3", -1),
         ("1/4", -2), ("5/8", 0), ("3/2", 1), ("1024", 10), ("1025", 11)],
    )
    def test_known_values(self, value, expected):
        assert ceil_log2(rat(value)) == expected

    def test_is_least_upper_exponent(self, rng):
        for _ in range(300):
            q = rat(rng.randint(1, 10**6), rng.randint(1, 10**6))
            level = ceil_log2(q)
            assert q <= rat(2) ** level
            assert q > rat(2) ** (level - 1)

    def test_is_least_upper_exponent_on_wide_rationals(self, rng):
        for _ in range(300):
            q = rat(rng.getrandbits(rng.randint(1, 200)) + 1, rng.getrandbits(rng.randint(1, 200)) + 1)
            level = ceil_log2(q)
            assert rat(2) ** (level - 1) < q <= rat(2) ** level

    def test_exact_on_powers_of_two(self):
        for k in range(-300, 301):
            assert ceil_log2(rat(2) ** k) == k

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2(rat(0))


class TestRoundDownDyadic:
    def test_floor_to_quarter_grid(self):
        assert round_down_dyadic(rat(5, 8), 2) == Dyadic(2, 2)
        assert round_down_dyadic(rat(5, 8), 2).value() == rat(1, 2)

    def test_negative_clamps_to_zero(self):
        assert round_down_dyadic(rat(-3, 7), 10) == Dyadic(0, 10)

    def test_exact_multiple_is_fixed_point(self):
        assert round_down_dyadic(rat(3, 4), 2).value() == rat(3, 4)

    def test_bracketing_property(self, rng):
        for _ in range(300):
            v = rand_rat(rng, span=200, den_span=200)
            h = rng.randint(1, 40)
            d = round_down_dyadic(v, h)
            target = max(v, rat(0))
            assert d.value() <= target < d.value() + rat(1, 2**h)
            assert d.mantissa >= 0

    def test_requires_positive_h(self):
        with pytest.raises(ValueError):
            round_down_dyadic(rat(1, 2), 0)


def mantissas():
    """Non-negative integers, with powers of two and their neighbours, the
    bit-length window's edge cases, drawn often."""
    power = st.integers(0, 300).map(lambda k: 1 << k)
    return st.one_of(
        st.integers(0, 1 << 300),
        power,
        st.tuples(power, st.sampled_from([-1, 1])).map(lambda pair: pair[0] + pair[1]),
    )


class TestThresholdComparisons:
    def test_dyadic_window_cases(self):
        assert not rational_exceeds_pow2(Dyadic(4, 2).value(), 0)  # exactly 1
        assert rational_exceeds_pow2(Dyadic(5, 2).value(), 0)
        assert not rational_exceeds_pow2(Dyadic(0, 5).value(), 0)
        assert rational_exceeds_pow2(Dyadic(3, 1).value(), 0)
        assert not rational_exceeds_pow2(Dyadic(7, 3).value(), 0)
        assert not rational_exceeds_pow2(Dyadic(1, 0).value(), 10**9)  # astronomically large threshold

    def test_rational_window_cases(self):
        assert not rational_exceeds_pow2(rat(1), 0)
        assert rational_exceeds_pow2(rat(17, 16), 0)
        assert not rational_exceeds_pow2(rat(15, 16), 0)
        assert rational_exceeds_pow2(rat(9, 2), 2)
        assert not rational_exceeds_pow2(rat(4), 2)
        assert not rational_exceeds_pow2(rat(3), 10**12)
        assert rational_exceeds_pow2(rat(5, 3), -10**12)

    def test_agrees_with_direct_comparison(self, rng):
        for _ in range(300):
            q = rat(rng.randint(1, 1 << 20), rng.randint(1, 1 << 20))
            e = rng.randint(-25, 25)
            assert rational_exceeds_pow2(q, e) == (q > rat(2) ** e)

    def test_integer_mantissa_cases(self):
        # Newton and the probe test a grid iterate m * 2**-h > 2**e as the
        # integer test m > 2**(h + e), with no rational formed.
        assert not rational_exceeds_pow2(0, 64 - 100)  # 0 exceeds no power of two
        assert rational_exceeds_pow2(1, 64 - 65)  # h + e < 0: any positive mantissa exceeds
        assert not rational_exceeds_pow2(1 << 70, 64 + 6)  # exactly 2**6
        assert rational_exceeds_pow2((1 << 70) + 1, 64 + 6)
        assert not rational_exceeds_pow2((1 << 71) - 1, 64 + 7)
        # 2**(h + e) would need about 10**16 bits; only bit lengths are read.
        assert not rational_exceeds_pow2((1 << 4000) + 1, 64 + 10**16)
        assert rational_exceeds_pow2(3, 64 - 10**16)

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(mantissas(), st.integers(0, 200), st.integers(-400, 400))
    def test_integer_mantissa_agrees_with_its_rational(self, m, h, e):
        assert rational_exceeds_pow2(m, h + e) == rational_exceeds_pow2(Dyadic(m, h).value(), e)


class TestSparseSolve:
    def test_zero_diagonal_needs_an_off_diagonal_pivot(self):
        assert solve_linear([{1: rat(1)}, {0: rat(1)}], [rat(2), rat(3)]) == [rat(3), rat(2)]
        assert solve_linear([[rat(0), rat(1)], [rat(1), rat(0)]], [rat(2), rat(3)]) == [rat(3), rat(2)]
        # A scaled cyclic permutation: 2 x1 = 1, 3 x2 = 2, x0 / 4 = 3.
        a = [{1: rat(2)}, {2: rat(3)}, {0: rat(1, 4)}]
        assert solve_linear(a, [rat(1), rat(2), rat(3)]) == [rat(12), rat(1, 2), rat(2, 3)]

    def test_dict_row_past_the_last_column_is_not_square(self):
        with pytest.raises(ValueError, match="matrix must be square"):
            solve_linear([{0: rat(1)}, {2: rat(1)}], [rat(1), rat(1)])

    def test_rank_deficient_with_nonzero_diagonal(self):
        # Row 2 is row 0 plus row 1; every diagonal entry is nonzero.
        a = [[rat(1), rat(1), rat(0)], [rat(0), rat(1), rat(1)], [rat(1), rat(2), rat(1)]]
        with pytest.raises(SingularMatrix):
            solve_linear(a, [rat(1), rat(1), rat(1)])
        with pytest.raises(SingularMatrix):
            solve_linear([{0: rat(1), 1: rat(1)}, {0: rat(1), 1: rat(1)}], [rat(1), rat(2)])

    def test_dict_rows_match_dense_rows(self, rng):
        for _ in range(100):
            n = rng.randint(1, 6)
            dense = [[rand_rat(rng, 3, 5) if rng.random() < 0.4 else rat(0) for _ in range(n)] for _ in range(n)]
            sparse = [{j: v for j, v in enumerate(row) if v != 0} for row in dense]
            b = [rand_rat(rng, 9, 7) for _ in range(n)]
            try:
                expected = solve_linear(dense, b)
            except SingularMatrix:
                with pytest.raises(SingularMatrix):
                    solve_linear(sparse, b)
                continue
            assert solve_linear(sparse, b) == expected

    def test_random_sparse_systems_solve_exactly(self, rng):
        solved = 0
        for _ in range(200):
            n = rng.randint(1, 20)
            a = [{j: rand_rat(rng, 9, 7) for j in range(n) if rng.random() < 0.15} for _ in range(n)]
            # A nonzero on a permutation keeps most systems nonsingular; a
            # shuffled one leaves diagonal entries missing, so some pivots
            # must come off the diagonal.
            perm = list(range(n))
            if rng.random() < 0.5:
                rng.shuffle(perm)
            for i, row in enumerate(a):
                row[perm[i]] = rat(rng.randint(1, 9), rng.randint(1, 7))
            a = [{j: v for j, v in row.items() if v != 0} for row in a]
            b = [rand_rat(rng, 9, 7) for _ in range(n)]
            try:
                x = solve_linear(a, b)
            except SingularMatrix:
                continue
            solved += 1
            assert mat_vec_mul(a, x) == b
        assert solved >= 180

    def test_input_rows_are_not_modified(self):
        a = [{0: rat(2), 1: rat(1)}, {0: rat(4), 1: rat(3)}]
        copy = [dict(row) for row in a]
        solve_linear(a, [rat(1), rat(1)])
        assert a == copy

    def test_identity_minus_drops_cancelled_diagonal(self):
        assert identity_minus([{0: rat(1), 1: rat(1, 2)}, {}]) == [{1: rat(-1, 2)}, {1: rat(1)}]


class TestSqrtHelpers:
    def test_perfect_squares_are_exact(self):
        assert sqrt_upper(rat(1, 16)) == rat(1, 4)
        assert sqrt_upper(rat(9)) == rat(3)
        assert is_perfect_square(rat(4, 9))
        assert not is_perfect_square(rat(1, 2))

    def test_upper_bound_property(self, rng):
        for _ in range(200):
            q = rat(rng.randint(0, 10**6), rng.randint(1, 10**4))
            up = sqrt_upper(q)
            assert up * up >= q

    def test_bracket_width(self, rng):
        for _ in range(100):
            q = rat(rng.randint(1, 10**6), rng.randint(1, 10**4))
            lo, hi = sqrt_bounds(q, bits=80)
            assert lo * lo <= q <= hi * hi
            assert hi - lo <= rat(1, 2**80)


class TestSolveLinear:
    def test_identity_case(self):
        assert solve_linear([[rat(1)]], [rat(5, 3)]) == [rat(5, 3)]

    def test_scalar_division(self):
        assert solve_linear([[rat(1, 2)]], [rat(1, 4)]) == [rat(1, 2)]

    def test_singular_zero_matrix(self):
        with pytest.raises(SingularMatrix):
            solve_linear([[rat(0)]], [rat(1)])

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            solve_linear([[rat(1), rat(2)]], [rat(1)])
        with pytest.raises(ValueError):
            solve_linear([[rat(1)]], [rat(1), rat(2)])

    def test_reconstructs_rhs_exactly(self, rng):
        solved = 0
        for _ in range(60):
            n = rng.randint(1, 5)
            a = [[rand_rat(rng, 9, 7) for _ in range(n)] for _ in range(n)]
            b = [rand_rat(rng, 9, 7) for _ in range(n)]
            try:
                x = solve_linear(a, b)
            except SingularMatrix:
                continue
            solved += 1
            assert mat_vec_mul(a, x) == b
        assert solved >= 40

    def test_singular_rank_deficient(self):
        a = [[rat(1), rat(2)], [rat(2), rat(4)]]
        with pytest.raises(SingularMatrix):
            solve_linear(a, [rat(1), rat(1)])


def _dense_reference(a, b):
    """Gauss-Jordan on Fractions with the first nonzero pivot in each column."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(a, b)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


# The columns that _singular_family's matrices name, recorded with the
# Fraction elimination that solve_integer replaced: scaling rows by nonzero
# integers keeps every zero pattern, so both must pick the same pivots.
SINGULAR_COLUMNS = (
    "214.0.30510.060.06303...1132000103042004..0405.316.1.000.2...230010.00...5.003100.2....021.04100030"
    ".201110311212.04.662.3006.0..01.12012000.054053.0.2.22.4...04.001.15020.2112000423.3...41.400.031302"
    "01503.41103..3201211.0400..2111.1123..10.0.41300.30..2.61121.0110.12002033...2052044201406.110312000."
)


def _singular_family():
    """Sparse rational matrices, half of them with one row a multiple of
    another; the column each singular one names, or "." when it is regular."""
    rng = random.Random(2024)
    out = []
    for _ in range(300):
        n = rng.randint(1, 7)
        a = [{j: rat(rng.randint(-3, 3), rng.randint(1, 4)) for j in range(n) if rng.random() < 0.5} for _ in range(n)]
        if n > 1 and rng.random() < 0.5:
            i, k = rng.sample(range(n), 2)
            a[i] = {j: -2 * v for j, v in a[k].items()}
        a = [{j: v for j, v in row.items() if v} for row in a]
        try:
            solve_linear(a, [rat(rng.randint(-5, 5)) for _ in range(n)])
            out.append(".")
        except SingularMatrix as exc:
            out.append(str(exc).removeprefix("no pivot in column "))
    return "".join(out)


def _random_integer_rows(rng, n, density=0.4):
    rows = [{j: rng.randint(-9, 9) for j in range(n) if rng.random() < density} for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = rng.choice([-7, -3, 1, 2, 5])
    return [{j: v for j, v in row.items() if v} for row in rows], [rng.randint(-20, 20) for _ in range(n)]


class TestIntegerElimination:
    def test_negative_solutions_and_determinant(self):
        # det [[1, 2], [3, 4]] = -2; the solution of A x = (0, 1) is (1, -1/2).
        pairs = solve_integer([{0: 1, 1: 2}, {0: 3, 1: 4}], [0, 1])
        assert pairs == [(1, 1), (-1, 2)]
        assert [p // q for p, q in pairs] == [1, -1]
        # Negative pivots off the diagonal: -3 x1 = 1, -2 x0 = 5.
        assert solve_integer([{1: -3}, {0: -2}], [1, 5]) == [(-5, 2), (-1, 3)]
        assert solve_integer([{0: 2}], [-3]) == [(-3, 2)]

    def test_pairs_are_exact_lowest_terms_with_positive_denominators(self, rng):
        for _ in range(150):
            n = rng.randint(1, 8)
            rows, rhs = _random_integer_rows(rng, n)
            copies = [dict(row) for row in rows], list(rhs)
            try:
                pairs = solve_integer(*copies)
            except SingularMatrix:
                continue
            for p, q in pairs:
                assert q > 0 and gcd(p, q) == 1
                assert p // q == floor(Fraction(p, q))
            x = [Fraction(p, q) for p, q in pairs]
            assert [sum(v * x[j] for j, v in row.items()) for row in rows] == rhs

    def test_row_scaling_leaves_the_solution_unchanged(self, rng):
        for _ in range(100):
            n = rng.randint(1, 7)
            rows, rhs = _random_integer_rows(rng, n)
            scales = [rng.choice([-6, -1, 2, 9, 2**40]) for _ in range(n)]
            scaled = [{j: k * v for j, v in row.items()} for row, k in zip(rows, scales)]
            try:
                expected = solve_integer([dict(row) for row in rows], list(rhs))
            except SingularMatrix as exc:
                with pytest.raises(SingularMatrix, match=str(exc)):
                    solve_integer(scaled, [k * r for k, r in zip(scales, rhs)])
                continue
            assert solve_integer(scaled, [k * r for k, r in zip(scales, rhs)]) == expected

    def test_updated_rows_lose_their_content(self, rng):
        # Rows whose entries and right-hand side are coprime stay coprime
        # through elimination: every updated row is divided by its content.
        assert_rows = 0
        for _ in range(100):
            n = rng.randint(2, 8)
            rows, rhs = _random_integer_rows(rng, n, density=0.6)
            if any(gcd(r, *row.values()) != 1 for row, r in zip(rows, rhs)):
                continue
            try:
                solve_integer(rows, rhs)
            except SingularMatrix:
                continue
            for row, r in zip(rows, rhs):
                assert gcd(r, *row.values()) == 1
                assert_rows += 1
        assert assert_rows > 200
        # x0 + x1 = 1, x0 + 3 x1 = 3: the update leaves 2 x1 = 2, reduced to x1 = 1.
        rows, rhs = [{0: 1, 1: 1}, {0: 1, 1: 3}], [1, 3]
        assert solve_integer(rows, rhs) == [(0, 1), (1, 1)]
        assert (rows[1], rhs[1]) == ({1: 1}, 1)

    def test_singular_inputs_name_the_same_column(self):
        assert _singular_family() == SINGULAR_COLUMNS
        cases = [
            ([[0]], "0"),
            ([[1, 1, 0], [0, 1, 1], [1, 2, 1]], "2"),
            ([{0: 1, 1: 1}, {0: 1, 1: 1}], "1"),
            ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], "2"),
            ([{1: 1}, {2: 1}, {1: 2}], "0"),
            ([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [2, 2, 2, 1]], "3"),
        ]
        for a, column in cases:
            a = [{j: rat(v) for j, v in row.items()} if isinstance(row, dict) else [rat(v) for v in row] for row in a]
            with pytest.raises(SingularMatrix, match=f"^no pivot in column {column}$"):
                solve_linear(a, [rat(1)] * len(a))

    def test_dict_and_dense_rows_match_a_dense_reference(self, rng):
        solved = 0
        for _ in range(100):
            n = rng.randint(1, 6)
            dense = [[rand_rat(rng, 5, 12) if rng.random() < 0.6 else rat(0) for _ in range(n)] for _ in range(n)]
            sparse = [{j: v for j, v in enumerate(row) if v != 0} for row in dense]
            b = [rand_rat(rng, 9, 10) for _ in range(n)]
            try:
                x = solve_linear(dense, b)
            except SingularMatrix as exc:
                with pytest.raises(SingularMatrix, match=str(exc)):
                    solve_linear(sparse, b)
                continue
            solved += 1
            assert solve_linear(sparse, b) == x == _dense_reference(dense, b)
        assert solved >= 40


def test_dyadic_rejects_a_negative_scale():
    with pytest.raises(ValueError, match="^scale must be non-negative$"):
        Dyadic(1, -1)
