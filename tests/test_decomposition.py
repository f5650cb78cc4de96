"""Dependency graphs, SCC order, linearity flags, and depth metrics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfpsolve import (
    Monomial,
    MonotoneSystem,
    SolveOptions,
    build_graph,
    clean,
    decompose,
    parse_mps,
    rat,
    serialize_mps,
    solve,
    system_of,
)

from conftest import chain_system, random_substochastic, random_with_zero_variables
from reference import brute_force_decomposition


@st.composite
def dependency_systems(draw):
    """Small systems with random dependencies: cycles of several variables,
    self-loops, squares and cross terms of a component's own variables, and
    edges to lower and higher indices; optionally every x_i also depends on
    x_(i+1), a chain whose dependencies point upward."""
    n = draw(st.integers(1, 7))
    upward = draw(st.booleans())
    powers = st.dictionaries(st.integers(0, n - 1), st.integers(1, 2), max_size=2)
    equations = []
    for i in range(n):
        terms = [dict(p) for p in draw(st.lists(powers, max_size=3))]
        if upward and i + 1 < n:
            terms.append({i + 1: 1})
        equations.append(tuple(Monomial(Fraction(1, 2), tuple(sorted(p.items()))) for p in terms))
    return MonotoneSystem(tuple(f"x{i}" for i in range(n)), tuple(equations))


class TestBuildGraph:
    def test_self_loop(self):
        sys = system_of(["x"], [("1/2", {"x": 2}), ("1/2", {})])
        assert build_graph(sys).successors == ((0,),)

    def test_chain_family(self):
        sys = chain_system(4)
        graph = build_graph(sys)
        assert graph.successors[0] == (0,)
        for i in range(1, 4):
            assert graph.successors[i] == (i - 1, i)

    def test_single_edge_no_loops(self):
        sys = system_of(["x1", "x2"], [("1/2", {})], [("1", {"x1": 1})])
        assert build_graph(sys).successors == ((), (0,))


class TestDecompose:
    def test_chain_is_singleton_nonlinear_sccs(self):
        sys = chain_system(4)
        decomp = decompose(build_graph(sys), sys)
        assert [scc.vars for scc in decomp.sccs] == [(0,), (1,), (2,), (3,)]
        assert all(scc.nonlinear for scc in decomp.sccs)
        assert decomp.depth == 4
        assert decomp.nonlinear_depth == 4

    def test_joint_linear_cycle(self):
        sys = system_of(
            ["x1", "x2"],
            [("1", {"x2": 1}), ("1/3", {})],
            [("1", {"x1": 1})],
        )
        decomp = decompose(build_graph(sys), sys)
        assert len(decomp.sccs) == 1
        assert decomp.sccs[0].vars == (0, 1)
        assert not decomp.sccs[0].nonlinear
        assert decomp.depth == 1
        assert decomp.nonlinear_depth == 0

    def test_lower_scc_variables_count_as_constants(self):
        sys = system_of(["x1", "x2"], [("1", {"x2": 2})], [("1/2", {})])
        decomp = decompose(build_graph(sys), sys)
        assert [scc.vars for scc in decomp.sccs] == [(1,), (0,)]
        assert not decomp.sccs[0].nonlinear
        assert not decomp.sccs[1].nonlinear  # x2^2 is a constant seen from {x1}
        assert decomp.nonlinear_depth == 0
        assert decomp.depth == 2

    def test_square_inside_own_scc_is_nonlinear(self):
        sys = system_of(["x"], [("1/2", {"x": 2}), ("1/2", {})])
        decomp = decompose(build_graph(sys), sys)
        assert decomp.sccs[0].nonlinear

    def test_singleton_without_self_loop_is_linear(self):
        sys = system_of(["x1", "x2"], [("1/2", {})], [("1", {"x1": 1})])
        decomp = decompose(build_graph(sys), sys)
        assert all(not scc.nonlinear for scc in decomp.sccs)

    def test_dependencies_precede_dependents(self, rng):
        for _ in range(40):
            sys = random_with_zero_variables(rng, rng.randint(1, 6))
            cleaned, _ = clean(sys)
            if not cleaned.n:
                continue
            graph = build_graph(cleaned)
            decomp = decompose(graph, cleaned)
            seen = set()
            for scc in decomp.sccs:
                members = set(scc.vars)
                for v in scc.vars:
                    for succ in graph.successors[v]:
                        if succ not in members:
                            assert succ in seen
                seen |= members
            assert seen == set(range(cleaned.n))

    def test_path_counts_bounded_by_depths(self, rng):
        for _ in range(30):
            sys = random_with_zero_variables(rng, rng.randint(1, 6))
            cleaned, _ = clean(sys)
            if not cleaned.n:
                continue
            decomp = decompose(build_graph(cleaned), cleaned)
            assert decomp.depth == max(s.height for s in decomp.sccs)
            assert decomp.nonlinear_depth == max(s.nonlinear_height for s in decomp.sccs)
            for scc in decomp.sccs:
                assert 1 <= scc.height <= decomp.depth
                assert 0 <= scc.nonlinear_height <= min(scc.height, decomp.nonlinear_depth)

    def test_deterministic_order(self, rng):
        for _ in range(10):
            sys = random_with_zero_variables(rng, 6)
            text = serialize_mps(sys)
            a = decompose(build_graph(sys), sys)
            b = decompose(build_graph(parse_mps(text)), parse_mps(text))
            assert [s.vars for s in a.sccs] == [s.vars for s in b.sccs]

    def test_ties_broken_by_smallest_variable(self):
        # Two independent components: the one containing variable 0 first.
        sys = system_of(
            ["a", "b"],
            [("1/2", {"a": 1}), ("1/4", {})],
            [("1/2", {"b": 1}), ("1/4", {})],
        )
        decomp = decompose(build_graph(sys), sys)
        assert [scc.vars for scc in decomp.sccs] == [(0,), (1,)]

    def test_rejects_the_graph_of_another_system(self):
        one = system_of(["x"], [("1/2", {})])
        two = system_of(["x", "y"], [("1/2", {})], [("1/2", {"x": 1})])
        with pytest.raises(ValueError, match="graph and system disagree on dimension"):
            decompose(build_graph(one), two)


class TestOneOrderEndToEnd:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 8))
    def test_solve_reports_what_decompose_lists(self, seed, n):
        # P(1) <= 15/16 on these systems, so no q* = 1 set reorders the runs.
        sys = random_substochastic(random.Random(seed), n)
        report = solve(sys, rat(1, 2**10), SolveOptions(use_snf=False, qmax_exponent_assert=0))
        assert not report.certificate.exact_one
        cleaned, _ = clean(sys)
        decomp = decompose(build_graph(cleaned), cleaned)
        listed = [tuple(cleaned.names[v] for v in scc.vars) for scc in decomp.sccs]
        assert [run.names for run in report.scc_runs] == listed


class TestAgainstBruteForce:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(dependency_systems())
    def test_matches_the_definitions(self, sys):
        decomp = decompose(build_graph(sys), sys)
        sccs = [(s.vars, s.nonlinear, s.height, s.nonlinear_height) for s in decomp.sccs]
        assert (sccs, decomp.depth, decomp.nonlinear_depth) == brute_force_decomposition(sys)
