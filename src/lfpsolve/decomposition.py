"""Dependency graph, strongly connected components, and depth metrics.

The dependency graph has an edge i -> j exactly when x_j occurs in some
monomial of P_i.  Its SCC condensation, in an order where dependencies
precede dependents, drives the bottom-up solver; per-component linearity is
judged with lower-component variables treated as constants.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .mps import MonotoneSystem


@dataclass(frozen=True)
class DependencyGraph:
    n: int
    successors: tuple  # successors[i] = sorted tuple of j with x_j occurring in P_i


def build_graph(sys: MonotoneSystem) -> DependencyGraph:
    succ = []
    for terms in sys.equations:
        seen = set()
        for mono in terms:
            for v, _ in mono.exponents:
                seen.add(v)
        succ.append(tuple(sorted(seen)))
    return DependencyGraph(sys.n, tuple(succ))


@dataclass(frozen=True)
class Scc:
    vars: tuple  # sorted variable indices
    nonlinear: bool
    height: int  # SCCs on the longest dependency path starting here (inclusive)
    nonlinear_height: int  # nonlinear SCCs on that path (inclusive when nonlinear)


@dataclass(frozen=True)
class Decomposition:
    sccs: tuple  # topological order: dependencies precede dependents
    depth: int
    nonlinear_depth: int


def _tarjan(graph: DependencyGraph):
    """Iterative Tarjan; returns SCCs as lists of variable indices."""
    n = graph.n
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    components = []
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, child_pos = work.pop()
            if child_pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            succ = graph.successors[node]
            for pos in range(child_pos, len(succ)):
                nxt = succ[pos]
                if index[nxt] == -1:
                    work.append((node, pos + 1))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component = []
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    component.append(top)
                    if top == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def _is_nonlinear(sys: MonotoneSystem, members: set) -> bool:
    """Degree > 1 in the component's own variables (others are constants)."""
    for i in members:
        for mono in sys.equations[i]:
            own = sum(e for v, e in mono.exponents if v in members)
            if own >= 2:
                return True
    return False


def decompose(graph: DependencyGraph, sys: MonotoneSystem) -> Decomposition:
    if graph.n != sys.n:
        raise ValueError("graph and system disagree on dimension")
    raw = _tarjan(graph)
    member_of = {}
    for cid, comp in enumerate(raw):
        for v in comp:
            member_of[v] = cid

    # Condensation edges: component of i depends on component of j for i -> j.
    depends: list[set] = [set() for _ in raw]
    for i in range(graph.n):
        for j in graph.successors[i]:
            if member_of[i] != member_of[j]:
                depends[member_of[i]].add(member_of[j])

    # Deterministic topological order (dependencies first): among components
    # whose dependencies are all placed, take the smallest contained variable.
    dependents: list[set] = [set() for _ in raw]
    for cid, deps in enumerate(depends):
        for d in deps:
            dependents[d].add(cid)
    outstanding = [len(deps) for deps in depends]
    heap = [(min(comp), cid) for cid, comp in enumerate(raw) if outstanding[cid] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, cid = heapq.heappop(heap)
        order.append(cid)
        for parent in dependents[cid]:
            outstanding[parent] -= 1
            if outstanding[parent] == 0:
                heapq.heappush(heap, (min(raw[parent]), parent))
    if len(order) != len(raw):
        raise AssertionError("condensation is not acyclic")

    heights = [0] * len(raw)
    nl_heights = [0] * len(raw)
    sccs = []
    for cid in order:
        members = set(raw[cid])
        nonlinear = _is_nonlinear(sys, members)
        h = 1 + max((heights[d] for d in depends[cid]), default=0)
        f = (1 if nonlinear else 0) + max((nl_heights[d] for d in depends[cid]), default=0)
        heights[cid] = h
        nl_heights[cid] = f
        scc = Scc(
            vars=tuple(sorted(members)),
            nonlinear=nonlinear,
            height=h,
            nonlinear_height=f,
        )
        sccs.append(scc)
    depth = max((s.height for s in sccs), default=0)
    nl_depth = max((s.nonlinear_height for s in sccs), default=0)
    return Decomposition(tuple(sccs), depth, nl_depth)
