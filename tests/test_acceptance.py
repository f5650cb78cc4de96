"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
failure output), so this module doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

import pytest

from lfpsolve import (
    DivergenceCertified,
    RnmConfig,
    SingularMatrix,
    SolveOptions,
    build_termination_mps,
    c_min,
    clean,
    compute_bounds,
    detect_zero_variables,
    newton_step,
    rat,
    run_rnm,
    solve,
    system_of,
    termination_probabilities,
)
from lfpsolve.ratmath import rational_exceeds_pow2

from conftest import (
    chain_system,
    gamblers_ruin,
    random_p1ca,
    random_substochastic,
    repeated_squaring,
    univariate,
)
from reference import (
    NoFiniteLfp,
    linear_lfp,
    perturbation_bound,
    rescale,
    univariate_quadratic_lfp,
    zero_set_oracle,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        sys.stdout.write(f"ACCEPTANCE {number} {name}: FAIL\n")
        raise
    sys.stdout.write(f"ACCEPTANCE {number} {name}: PASS\n")


def test_1_one_bit_law():
    with criterion(1, "one-bit law"):
        final, trace = run_rnm(univariate("1/2", 0, "1/2"), RnmConfig(h=40, g=35))
        for k in range(1, 36):
            expected = rat(2**k - 1, 2**k)
            assert trace.records[k].iterate[0].value() == expected  # tolerance 0
        assert final[0].value() == rat(2**35 - 1, 2**35)


def test_2_certified_error_on_chain():
    with criterion(2, "certified error, 3-variable chain"):
        eps = rat(1, 2**16)
        report = solve(chain_system(3), eps, SolveOptions(qmax_exponent_assert=0))
        assert report.status == "certified-eps"
        for d in report.approximation:
            value = d.value()
            assert value <= 1
            assert rat(1) - value <= eps


def test_3_depth_blowup_witness():
    with criterion(3, "depth blow-up witness, d = 6"):
        depth = 6
        bottom = univariate("1/2", 0, "1/2")
        # Error threshold 1/2 at the top of a depth-6 chain: each level takes
        # a square root of the remaining bottom error (the exact LFP of
        # x = x^2/2 + (1-a)/2 is 1 - sqrt(a), per the univariate oracle), so
        # the top error is a0**(1/2**(depth-1)); the comparison against 1/2
        # is done exactly by squaring the threshold depth-1 times.
        threshold = rat(1, 2)
        for _ in range(depth - 1):
            threshold = threshold * threshold  # a0 must be <= 2**-(2**(d-1))
        needed = None
        for g in range(1, 41):
            final, _ = run_rnm(bottom, RnmConfig(h=80, g=g))
            a0 = rat(1) - final[0].value()
            assert a0 == rat(1, 2**g)  # exact one-bit bottom progress
            if a0 <= threshold:
                needed = g
                break
        assert needed is not None
        assert needed >= 2 ** (depth - 1)  # factor-2 slack would allow 2**(d-2)


def test_4_gamblers_ruin():
    with criterion(4, "gambler's ruin termination probabilities"):
        eps = rat(1, 2**20)
        truth = univariate_quadratic_lfp("2/3", 0, "1/3")
        assert truth == rat(1, 2)
        matrix = termination_probabilities(gamblers_ruin("2/3"), eps)
        assert abs(matrix.entries[0][0].value() - truth) <= eps

        symmetric = termination_probabilities(gamblers_ruin("1/3"), eps)
        assert univariate_quadratic_lfp("1/3", 0, "2/3") == rat(1)
        assert rat(1) - symmetric.entries[0][0].value() <= eps


def _clean_then_dirtied(rng: random.Random):
    """A clean substochastic core extended by constant-starved variables.

    Core equations all carry constants (so their LFP is positive); the dirty
    extension feeds only on cycles through itself, and some core equations
    gain monomials through dirty variables, which are exactly the monomials
    cleaning must drop.
    """
    total = rng.randint(2, 6)
    dirty_count = rng.randint(1, total - 1)
    core = total - dirty_count
    names = [f"c{i}" for i in range(core)] + [f"d{i}" for i in range(dirty_count)]
    eqs = []
    for i in range(core):
        terms = [(rat(rng.randint(1, 8), 16), {})]
        if rng.random() < 0.7:
            terms.append((rat(rng.randint(1, 4), 16), {names[rng.randrange(core)]: 1}))
        if rng.random() < 0.5:
            partner = names[rng.randrange(total)]
            terms.append((rat(rng.randint(1, 4), 16), {names[i]: 1, partner: 1}))
        eqs.append(terms)
    for j in range(dirty_count):
        me = names[core + j]
        other_dirty = names[core + rng.randrange(dirty_count)]
        terms = [(rat(1, 2), {other_dirty: 1})]
        if rng.random() < 0.5:
            terms.append((rat(1, 4), {me: 1, names[rng.randrange(total)]: 1}))
        eqs.append(terms)
    return system_of(names, *eqs)


def test_5_zero_set_equivalence():
    with criterion(5, "zero-set equivalence on 500 random systems"):
        rng = random.Random(5)
        agreements = 0
        for _ in range(500):
            sysm = _clean_then_dirtied(rng)
            assert sysm.n <= 6
            assert detect_zero_variables(sysm) == zero_set_oracle(sysm)
            agreements += 1
        assert agreements == 500  # 100% agreement


def test_6_scaling_equivariance():
    with criterion(6, "bit-exact scaling equivariance"):
        rng = random.Random(6)
        for case in range(50):
            sysm = random_substochastic(rng, rng.randint(1, 4))
            u = (case % 3) + 1
            h = rng.randint(6, 24)
            _, original = run_rnm(sysm, RnmConfig(h=h, g=10))
            _, scaled = run_rnm(rescale(sysm, u), RnmConfig(h=h + u, g=10))
            assert len(original.records) == len(scaled.records)
            for ra, rb in zip(original.records, scaled.records):
                for da, db in zip(ra.iterate, rb.iterate):
                    # mantissa equality at scales (h, h+u) is exactly the
                    # statement scaled = 2**-u * original at every step
                    assert da.mantissa == db.mantissa
                    assert db.scale == da.scale + u


def test_7_bound_validity():
    with criterion(7, "bound validity on analytic fixtures and random p1CAs"):
        fixtures = []
        for a, b, c in [("1/2", 0, "1/2"), ("2/3", 0, "1/3"), ("1/2", 0, "1/4"), (0, "1/2", "1/4")]:
            root = univariate_quadratic_lfp(a, b, c)
            fixtures.append((univariate(a, b, c), [root]))
        for n in range(2, 9):
            sysm = repeated_squaring(n, "1/2")
            fixtures.append((sysm, [rat(1, 2) ** (2**i) for i in range(n)]))
        lin = system_of(
            ["p", "q"],
            [("1/2", {"q": 1}), ("1/4", {})],
            [("1/3", {"p": 1}), ("1/3", {})],
        )
        fixtures.append((lin, linear_lfp(lin)))

        for sysm, exact in fixtures:
            bounds = compute_bounds(sysm, SolveOptions())
            lower, exponent = bounds.qmin_lower, bounds.qmax_exponent
            for q in exact:
                if hasattr(q, "compare"):  # irrational coordinate
                    assert q.compare(lower) >= 0
                    _, hi = q.enclosure(64)
                    assert not rational_exceeds_pow2(hi, exponent)
                else:
                    assert lower <= q
                    assert not rational_exceeds_pow2(q, exponent)

        # State-count bound: q*_min >= c_min**(r^3) over the positive
        # coordinates, verified through the solver's from-below
        # approximations on random automata with r <= 3.
        rng = random.Random(7)
        checked = 0
        while checked < 12:
            model = random_p1ca(rng, rng.randint(1, 3))
            system = build_termination_mps(model)
            cleaned, _ = clean(system)
            if not cleaned.n:
                continue
            matrix = termination_probabilities(model, rat(1, 2**24), mode="adaptive")
            r = len(model.states)
            floor = min(c_min(system), rat(1)) ** (r**3)
            positive = [
                matrix.entries[u][v].value()
                for u in range(r)
                for v in range(r)
                if not matrix.zero_mask[u][v]
            ]
            assert min(positive) >= floor
            checked += 1


def test_8_divergence_certification():
    with criterion(8, "divergence certification"):
        no_lfp = univariate("1", 0, "1")  # x = x^2 + 1
        with pytest.raises(NoFiniteLfp):
            univariate_quadratic_lfp("1", 0, "1")
        with pytest.raises(DivergenceCertified):
            solve(no_lfp, rat(1, 2))

        affine = univariate(0, "1", "1")  # x = x + 1
        with pytest.raises(SingularMatrix):
            newton_step(affine, [rat(0)])  # undefined at the very first step
        with pytest.raises(SingularMatrix):
            solve(affine, rat(1, 2))


def test_9_perturbation_over_approximation():
    with criterion(9, "perturbation bound containment"):
        rng = random.Random(9)
        contained = 0
        for case in range(50):
            linear = case % 2 == 0
            dy = rat(1, 2**8) if case % 4 < 2 else rat(1, 2**12)
            y1 = rat(rng.randint(8, 16), 16)
            y2 = y1 - dy
            b = rat(rng.randint(0, 6), 16)
            feed = rat(rng.randint(1, 8), 16)
            a = rat(0) if linear else rat(rng.randint(1, 2), 16)
            lo1, hi1 = _enclose_root(a, b, feed * y1)
            lo2, _ = _enclose_root(a, b, feed * y2)
            measured_shift_upper = hi1 - lo2
            qmin_lower_est = min(lo1, lo2, y2)
            cmin = min(c for c in (a, b, feed) if c > 0)
            alpha = min(rat(1), cmin) * min(y1, qmin_lower_est / 2)
            norm = a + b + feed
            bound = perturbation_bound(univariate(a, b, feed), alpha, norm, dy, linear=linear)
            assert measured_shift_upper <= bound
            contained += 1
        assert contained == 50  # 100% containment


def _enclose_root(a, b, c, bits=120):
    root = univariate_quadratic_lfp(a, b, c)
    if hasattr(root, "enclosure"):
        return root.enclosure(bits)
    return root, root
