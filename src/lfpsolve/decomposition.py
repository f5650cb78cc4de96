"""Dependency graph, strongly connected components, and depth metrics.

The dependency graph has an edge i -> j exactly when x_j occurs in some
monomial of P_i.  Its SCC condensation, in an order where dependencies
precede dependents, drives the bottom-up solver; per-component linearity is
judged with lower-component variables treated as constants.

Tarjan's algorithm emits each SCC after every SCC it depends on, so one
pass in that emission order gives each component its dependencies,
linearity, height and nonlinear height.  The components are then listed by
height, ties by least variable: every dependency has a smaller height, so
this order is topological, and it is the order every solve runs and
reports them.
"""

from __future__ import annotations

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
    sccs: tuple  # by (height, least variable), so dependencies precede dependents
    depth: int
    nonlinear_depth: int


def _tarjan(graph: DependencyGraph):
    """Iterative Tarjan.  Returns the SCCs as lists of variable indices, each
    one after every SCC it depends on, and the SCC number of each variable."""
    n = graph.n
    successors = graph.successors
    index = [-1] * n
    lowlink = [0] * n
    comp_of = [-1] * n  # -1 while the variable is unvisited or on the stack
    stack: list[int] = []
    counter = 0
    components = []
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for nxt in children:
                if index[nxt] == -1:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, iter(successors[nxt])))
                    break
                if comp_of[nxt] == -1 and index[nxt] < lowlink[node]:  # nxt is on the stack
                    lowlink[node] = index[nxt]
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        top = stack.pop()
                        comp_of[top] = len(components)
                        component.append(top)
                        if top == node:
                            break
                    components.append(component)
                elif lowlink[node] < lowlink[work[-1][0]]:  # not a root, so it has a parent
                    lowlink[work[-1][0]] = lowlink[node]
    return components, comp_of


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
    components, comp_of = _tarjan(graph)
    successors = graph.successors

    # One pass in Tarjan's order, where every dependency comes first.
    built = []
    heights = []
    nl_heights = []
    for cid, comp in enumerate(components):
        if len(comp) == 1:  # own degree > 1 needs a self-loop first
            (v,) = comp
            members = (v,)
            deps = {comp_of[j] for j in successors[v]}
            nonlinear = v in successors[v] and _is_nonlinear(sys, {v})
        else:
            members = tuple(sorted(comp))
            deps = {comp_of[j] for i in comp for j in successors[i]}
            nonlinear = _is_nonlinear(sys, set(comp))
        deps.discard(cid)
        h = f = 0
        for d in deps:
            if heights[d] > h:
                h = heights[d]
            if nl_heights[d] > f:
                f = nl_heights[d]
        heights.append(h + 1)
        nl_heights.append(f + nonlinear)
        built.append(Scc(members, nonlinear, h + 1, f + nonlinear))

    sccs = sorted(built, key=lambda scc: (scc.height, scc.vars[0]))
    return Decomposition(tuple(sccs), max(heights, default=0), max(nl_heights, default=0))
