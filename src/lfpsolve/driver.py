"""The decomposed solver: an exact q* = 1 pre-pass, LFP bounds, bottom-up
per-component rounded Newton, and post-fixed-point witnesses.

Every mode first proves which coordinates of the cleaned system have q* = 1
(Etessami-Yannakakis, JACM 2009; Etessami-Stewart-Yannakakis, STOC 2012).
Going through the components dependencies first, a component S is set to
exactly 1 when (i) every variable outside S that S depends on is already
set, (ii) P_i(1) = 1 exactly in every row i of S, and (iii) I - B_S(1)
passes exact elimination with diagonal pivots only, the first |S| - 1 pivots
> 0 and the last >= 0.  The pivots are ratios of leading principal minors,
so for the Z-matrix I - B_S(1), with B_S(1) irreducible on a component,
(iii) holds iff rho(B_S(1)) <= 1 (Berman-Plemmons, ch. 6).  Why q*_S = 1:
with the inputs at their exact value 1, (ii) makes 1 a fixed point of S's
equations, so q*_S <= 1.  If q*_i < 1 for some i in S, every row of S that
uses x_i has q* = P(q*) < P(1) = 1 (q* > 0 after cleaning), so by strong
connectivity q*_S < 1 throughout, and v = 1 - q*_S > 0 satisfies v = B_S(m)
v at m = (1 + q*_S) / 2 (the mean value is exact for quadratics), so
rho(B_S(m)) = 1.  A nonlinear S has B_S(m) <= B_S(1) with some entry
strictly smaller, and irreducibility gives rho(B_S(1)) > 1, against (iii).
A linear S has B_S(1) 1 + c = 1 with c = P_S(0); c = 0 would make q*_S = 0,
which cleaning excludes, so c != 0, rho(B_S(1)) < 1, and 1 is the only fixed
point.

The set's variables are substituted by 1, and everything below runs on the
reduced system of the other variables only.  Its LFP is q* there: q*
restricted is a fixed point of it, and any fixed point of it, extended by
1 on the set, is a fixed point of the cleaned system, by (ii) and because
rows of the set use only set variables.  So rounded Newton on it still
never overshoots q*.  A witness y of the reduced system, extended by 1 on
the set and 0 on the zero variables, is a post-fixed point of the input:
rows of the set give P_i(y) = 1 exactly, the reduced rows are the exact
check P(y) <= y that accepted y, and rows of zero variables give 0.  The
theorem's h_theorem is computed from the reduced system's own n, depth,
coefficients and bounds, so it certifies that system as it would any
input.  ``theorem_h`` (the p1CA closed form) is derived for decomposed
rounded Newton on the whole system, where each component's bound holds for
any inputs below their exact values within the analysed perturbation; the
set feeds its dependents their exact values, which is perturbation zero,
and the reduced components run the same subsystems on the same grids as
the whole system's run would with those inputs, so the closed form still
bounds their error.  When nothing is left, the answer (0 on zero variables,
1 elsewhere) is exact and is itself a fixed point.

Every mode then runs one loop on the reduced system: rounded decomposed
Newton on the ladder of grids h = h0 2**k, k = 0, 1, ..., with g = h - 1
steps, h0 = ceil(log2(1 / eps)) + WITNESS_HEADROOM, trying a witness on
each.  A grid keeps one mantissa list; each component reads its rows from
the reduced system's integer form in place, its lower variables constants at
their mantissas, so no subsystem is built.  Iterates never overshoot q*, so
on any grid a witness settles it: y = approx + (a step of eps / 2, else of
eps, along (I - B(approx))^-1 1), or else the rationals with the least
denominators within epsilon above approx (q* itself at a rational critical
q*, and y = 1 for q* within epsilon of 1), within epsilon of approx and
passing the exact check P(y) <= y, so q* <= y by Knaster-Tarski.  The check
is integer arithmetic over the common coefficient denominator L: for y = x /
s with integer numerators x, P_i(y) <= y_i is L s**D P_i(y) <= L s**(D-1)
x_i, D the degree, and the left side is a sum of integer terms; it calls
neither ``newton_rows`` nor ``solve_integer``, so it stays independent of
the Newton kernel.  A witness needs no bound on q*, so the ladder is the
same in every mode.  It stops at the first grid with a witness, at the first
grid that agrees with the one before within eps / 4, at a singular Newton
step, or at the ceiling.  Only the ceiling and what follows a stop without a
witness depend on the mode:

- certified: the ceiling is min(max_h, max((h_theorem - u) / WITNESS_SHARE,
  min(2 h0, h_theorem - u - 1))), so the first two grids run whenever they
  are below the theorem's; then ParamsInfeasible when h_theorem > max_h,
  and else the theorem's grid.
- adaptive: the ceiling is max_h; agreeing grids settle as a heuristic, a
  singular step propagates, and ParamsInfeasible is raised at the ceiling.
- ``h_override`` runs the single given grid in either mode.

The divergence probe runs before the ladder when u > 0 (a divergent system
would otherwise climb grids first), and otherwise after it, only without a
witness or when the witness exceeds 2**qmax_exponent.

A witness y fixes q* in [x, y], x the grid's iterate, and y - x <= eps, so
every a in [y - eps, x] has a <= q* <= a + eps.  The answer is then the
rational with the least denominator there, about half x's bits (Dirichlet)
when the interval is about eps / 2 wide or more, as a half-step witness
leaves it on every coordinate; ``params`` and traces still describe the
grid and its iterates.  Without a witness the answer is x itself.

The status is "certified-eps" for a witness or the theorem's grid, else
"adaptive-heuristic" in adaptive mode and "uncertified" otherwise.  The
convergence theorem gives the grid h_theorem of x = 2**-u P(2**u x), u =
max(qmax_exponent, 0), whose LFP is at most 1, every logarithm
over-approximated by an exact integer ceiling.  Rounded Newton commutes
with that rescaling bit for bit (grid H there is grid H - u here), so the
fallback runs grid h_theorem - u of the input with g = h_theorem - 1.  u
enters only that grid, the certified ceiling and the probe; ``params``
describes the grid that produced the answer, so it reports u = 0 and alpha
= beta = min(1, c_min) min(1, q*_min / 2) on every other grid.  The
rescaled system itself is never built; the test suite builds it to check
that equivariance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd, lcm

from .decomposition import Decomposition, build_graph, decompose
from .errors import DegreeTooHigh, DivergenceCertified, ParamsInfeasible, SingularMatrix
from .mps import (
    MonotoneSystem,
    c_min,
    clean,
    encoding_size,
    evaluate_scaled,
    norm_p_one,
    restrict,
    to_snf,
)
from .newton import IterationTrace, RnmConfig, newton_rows, run_rnm
from .newton import newton_step  # unused here; perfbench/spans.py times it at this import
from .oracle import detect_divergence, value_iterate
from .ratmath import (
    HALF,
    ONE,
    ZERO,
    Rat,
    ceil_log2,
    rat,
    rational_exceeds_pow2,
    solve_integer,
)
from .ratmath import round_down_dyadic  # unused here; perfbench/spans.py times it at this import

DEFAULT_MAX_H = 1_000_000
VALUE_ITERATION_CAP = 12  # largest system whose exact n-fold value iterate bounds q*_min

_ENCODING_NOTE = (
    "|P| = per-monomial numerator/denominator bit lengths plus per-exponent "
    "index/exponent bit lengths; one admissible convention, and every "
    "theorem-derived parameter in this report depends on it"
)


@dataclass(frozen=True)
class LfpBounds:
    """Certified two-sided bounds on the least fixed point's coordinates.

    The upper bound is kept as a binary exponent (value 2**qmax_exponent);
    the worst-case formula is astronomically large, so comparisons against
    it are done in exponent space.
    """

    qmin_lower: object
    qmin_source: str
    qmax_exponent: int
    qmax_source: str

    def __post_init__(self):
        if self.qmin_lower <= 0:
            raise ValueError("qmin_lower must be positive")
        if rational_exceeds_pow2(self.qmin_lower, self.qmax_exponent):
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class DriverParams:
    alpha: object
    h: int
    g: int
    u: int
    mode: str


@dataclass(frozen=True)
class SccRun:
    names: tuple
    nonlinear: bool
    # Newton steps on the answer's grid, not on failed witness grids; 1 for a
    # linear component, 0 when q* = 1 is proved
    iterations: int
    trace: IterationTrace | None


@dataclass(frozen=True)
class Certificate:
    """What justifies ||q* - approx||_inf <= epsilon.

    ``kind`` is "witness" when ``upper`` (a rational per original variable,
    zeros reinserted) satisfies P(upper) <= upper exactly and
    approx <= upper <= approx + epsilon: then q* <= upper by Knaster-Tarski,
    and approx <= q* because approx is at most the rounded Newton iterate,
    which never overshoots.  It is
    "theorem" when the convergence theorem's parameters were run, and
    "none" when nothing certifies the answer (an ``h_override`` grid, or
    adaptive grids that agreed).  ``attempted_h`` lists the grids tried for
    a witness, in order, in every mode.  ``exact_one`` names the input
    variables that the exact pre-pass proved to have q* = 1; the answer is
    exactly 1 there, whatever the kind.
    """

    kind: str
    upper: tuple | None
    attempted_h: tuple
    exact_one: tuple = ()


@dataclass(frozen=True)
class SolveReport:
    # a rational per original variable, zeros reinserted: the grid iterate,
    # or with a witness y the simplest rational in [y - eps, iterate]
    approximation: tuple
    names: tuple
    params: DriverParams
    bounds: LfpBounds
    scc_runs: tuple
    status: str  # "certified-eps" | "adaptive-heuristic" | "uncertified", from certificate.kind
    epsilon: object
    info: dict
    certificate: Certificate

    def values(self) -> list:
        return list(self.approximation)


@dataclass(frozen=True)
class SolveOptions:
    mode: str = "certified"  # "certified" | "adaptive"
    use_snf: bool = True
    h_override: int | None = None
    g_override: int | None = None
    theorem_h: int | None = None  # h_theorem (a grid of the rescaled system) in place of the formula
    max_h: int = DEFAULT_MAX_H
    keep_traces: bool = False
    # k asserts q* <= 2**k on the input; 0 says q* is a vector of
    # probabilities, and None takes the worst-case formula instead.
    qmax_exponent_assert: int | None = None


# --- bounds on the least fixed point -----------------------------------------

_POWER_BIT_BUDGET = 1 << 21


def _qmin_bound(sys: MonotoneSystem):
    """A certified lower bound on q*_min of a cleaned system, with its source
    tag.  The formula c**(2**n - 1), c = min{1, c_min}, never beats the
    n-fold value iterate's floor (a coordinate first positive at step k is
    >= c**(2**k - 1), and iterates only grow), so it is used only above
    VALUE_ITERATION_CAP, where the iterate is not computed."""
    if sys.degree() > 2:  # c_min**(2**n - 1) bounds q*_min only for quadratic systems
        raise DegreeTooHigh("q*_min bounds require a quadratic system (use simple normal form)")
    n = sys.n
    if n <= VALUE_ITERATION_CAP:
        iterate = value_iterate(sys, n)
        return (min(iterate) if iterate else ONE), "value-iteration"
    cmin = min(ONE, c_min(sys))
    coeff_bits = max(int(cmin.numerator).bit_length(), int(cmin.denominator).bit_length())
    if n > 60 or ((1 << n) - 1) * coeff_bits > _POWER_BIT_BUDGET:
        raise ParamsInfeasible("no computable lower bound on q*_min at this size")
    return cmin ** ((1 << n) - 1), "worst-case-formula"


def qmax_upper_exponent(sys: MonotoneSystem) -> int:
    """log2 of a certified upper bound on the largest LFP coordinate: the
    worst-case root-magnitude bound 2**(2(n+1)(|P| + 2(n+1) log(2n+2)) 5**n),
    with the inner logarithm over-approximated by its ceiling."""
    n = sys.n
    bits = encoding_size(sys)
    return 2 * (n + 1) * (bits + 2 * (n + 1) * ceil_log2(rat(2 * n + 2))) * 5**n


def compute_bounds(sys: MonotoneSystem, options: SolveOptions) -> LfpBounds:
    qmin, source = _qmin_bound(sys)
    exponent = options.qmax_exponent_assert
    if exponent is None:
        exponent, tag = qmax_upper_exponent(sys), "worst-case-formula"
    else:
        tag = "probability-flag" if exponent == 0 else "user-asserted"
    if rational_exceeds_pow2(qmin, exponent):
        # The certified lower bound already escapes the claimed upper bound,
        # which can only happen when no finite LFP lies below it.
        raise DivergenceCertified(
            f"certified q*_min lower bound {qmin} exceeds the asserted "
            f"q*_max bound 2**{exponent}"
        )
    return LfpBounds(qmin, source, exponent, tag)


# --- the exact q* = 1 pre-pass ----------------------------------------------------


def _diagonal_pivots_pass(rows: list) -> bool:
    """Exact elimination of an integer Z-matrix with diagonal pivots only, in
    order: True when the first n - 1 pivots are > 0 and the last is >= 0.

    Fraction-free (Bareiss 1968), with ``ratmath.solve_integer``'s row
    update: a row with entry c under pivot p becomes (p/g) row - (c/g)
    pivot row, g = gcd(p, c), divided by its content.  Each update scales the
    rational row by a positive integer, so every later pivot is a positive
    multiple of the rational one and each sign test keeps its result.
    """
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row.get(k, 0)
        if pivot < 0 or (pivot == 0 and k < len(rows) - 1):
            return False
        for row in rows[k + 1 :]:
            factor = row.pop(k, None)
            if factor is None:
                continue
            g = gcd(pivot, factor)
            keep, factor = pivot // g, factor // g
            if keep != 1:
                for j in row:
                    row[j] *= keep
            for j, a in pivot_row.items():
                if j > k:
                    value = row.get(j, 0) - factor * a
                    if value:
                        row[j] = value
                    else:
                        row.pop(j, None)
            content = gcd(*row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
    return True


def _exact_ones(sys: MonotoneSystem, decomp: Decomposition) -> set:
    """Indices of a cleaned system whose q* is exactly 1, proved component by
    component, dependencies first (see the module docstring).  A component
    whose equations use only its own and proved variables is tested on
    ``newton_rows`` at 1 with h = 0: rows L(I - B_S(1)) with its inputs held
    at 1, and r = L(P_S(1) - 1); L > 0 keeps the pivot signs."""
    equations, at_one, ones = sys.integer_form.equations, [1] * sys.n, set()
    for scc in decomp.sccs:
        used = {v for i in scc.vars for _, powers, _ in equations[i] for v, _ in powers}
        if used.difference(scc.vars) <= ones:
            rows, rhs = newton_rows(sys, at_one, 0, scc.vars)
            if not any(rhs) and _diagonal_pivots_pass(rows):
                ones.update(scc.vars)
    return ones


# --- component-wise rounded Newton ---------------------------------------------


def _run_rdnm(
    sys: MonotoneSystem,
    decomp: Decomposition,
    h: int,
    g: int,
    threshold: int,
    keep_traces: bool,
):
    """Bottom-up rounded decomposed Newton over an already-cleaned system.

    Components run in the decomposition's order, which solves every
    dependency first and is the order of the reported runs.  One mantissa
    list on the 2**-h grid holds the solved variables, which each component
    reads in place as constants (``newton_rows``) before it writes its own;
    it is returned.
    """
    m = [0] * sys.n
    runs = []
    for scc in decomp.sccs:
        trace = None
        if scc.nonlinear:
            _, trace = run_rnm(
                sys,
                RnmConfig(h, g),
                divergence_exponent=threshold,
                keep_trace=keep_traces,
                members=scc.vars,
                mantissas=m,
            )
            iterations = trace.steps
        else:
            # One exact Newton step from 0 (the members' entries are still
            # 0) gives 2**h q* = p / q.
            rows, rhs = newton_rows(sys, m, h, scc.vars)
            for v, (p, q) in zip(scc.vars, solve_integer(rows, rhs)):
                if p < 0:
                    raise DivergenceCertified(
                        "linear component has no non-negative fixed point, "
                        "so the system has no finite least fixed point"
                    )
                if rational_exceeds_pow2(Rat(p, q << h), threshold):
                    raise DivergenceCertified(
                        f"linear component solution exceeds the q*_max bound 2**{threshold}"
                    )
                m[v] = p // q
            iterations = 1
        names = tuple(sys.names[v] for v in scc.vars)
        runs.append(SccRun(names, scc.nonlinear, iterations, trace if keep_traces else None))
    return m, tuple(runs)


# --- post-fixed-point witnesses ----------------------------------------------------

# Bits above log2(1/eps) on the first witness grid, so its spacing is eps / 4;
# the Newton-direction step is floored STEP_BITS finer, on the 2**-(h + 8)
# grid.  Measured: with 2 bits every random_substochastic(Random(s), 4), s <
# 120, and every random_p1ca(Random(s), r), s < 6 and r <= 4, is still
# certified on its first grid at eps 2**-16 and 2**-30 (a test in
# tests/test_certificate.py pins this), while each rung of a critical
# component's ladder, whose Newton steps grow with h, is about a quarter
# shorter than with the 8 bits used before.
WITNESS_HEADROOM = 2
STEP_BITS = 8
WITNESS_SHARE = 8  # later witness grids stay at or below h_theorem / WITNESS_SHARE


def _is_post_fixed_point(sys: MonotoneSystem, x: list, s: int) -> bool:
    """P(y) <= y exactly at y = x / s, for non-negative integer numerators x
    over s >= 1: with L and D those of ``sys.integer_form``, P_i(y) <= y_i
    is the integer test L s**D P_i(y) <= L s**(D-1) x_i."""
    back = sys.integer_form.back_scale(s)
    return all(acc <= back * xi for acc, xi in zip(evaluate_scaled(sys, x, s), x))


def _newton_direction_candidate(sys: MonotoneSystem, m: list, epsilon, h: int):
    """y = x + round_down(e d / ||d||_inf) on the 2**-(h + STEP_BITS) grid,
    d = (I - B(x))^-1 1, for the half step e = eps / 2 and, only when that y
    fails P(y) <= y, the full step e = eps; the first y that passes, else
    None (also when some d_i <= 0).

    Works on the mantissas m of x = m 2**-h and on ``solve_integer``'s
    pairs d_i = p_i / q_i (q_i > 0), one solve for both steps: the largest
    d_k comes from cross-multiplication, and with t = h + STEP_BITS and eps
    = eps_n / eps_d the mantissas of y over 2**t are (m_i << STEP_BITS) +
    floor(2**(t - halve) eps_n p_i q_k / (eps_d q_i p_k)), halve = 1 for
    the half step and 0 for the full one.  Each step is at most 2**-halve
    eps, so 0 <= y - x <= eps holds without a check.  The half step leaves
    every answer interval [y - eps, x] at least about eps / 2 wide, where
    the full step leaves a sliver on the coordinate of the largest d_i.
    The step's grid is finer than the iterate's, so the direction keeps its
    resolution when the iterate's grid is only a few bits finer than eps.
    """
    rows, _ = newton_rows(sys, m, h)
    try:  # A = s (I - B(x)), so A^-1 (s 1) = (I - B(x))^-1 1
        d = solve_integer(rows, [sys.integer_form.back_scale(1 << h)] * sys.n)
    except SingularMatrix:
        return None
    if any(p <= 0 for p, _ in d):
        return None
    pk, qk = d[0]
    for p, q in d[1:]:
        if p * qk > pk * q:
            pk, qk = p, q
    t = h + STEP_BITS
    top, bottom = epsilon.numerator * qk, epsilon.denominator * pk
    for halve in (1, 0):  # the half step, then the full step
        y = [(mi << STEP_BITS) + ((top * p) << (t - halve)) // (bottom * q) for mi, (p, q) in zip(m, d)]
        if _is_post_fixed_point(sys, y, 1 << t):
            return [Rat(yi, 1 << t) for yi in y]
    return None


def _simplest_rational(lo, hi):
    """The rational with the least denominator in [lo, hi], 0 <= lo <= hi:
    the Stern-Brocot ancestor of the interval, by continued fractions on both
    ends at once.  x = (a t + b) / (c t + d) maps the current interval of t
    back to [lo, hi]; a loop, not recursion, because the ends can have
    thousands of bits."""
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    a, b, c, d = 1, 0, 0, 1
    while True:
        t, rem = divmod(ln, ld)
        if not rem:  # lo is the integer t
            break
        if (t + 1) * hd <= hn:  # the integer t + 1 lies in the interval
            t += 1
            break
        # both ends lie in (t, t + 1): go on with 1 / (end - t), ends swapped
        a, b, c, d = a * t + b, a, c * t + d, c
        ln, ld, hn, hd = hd, hn - t * hd, ld, rem
    return Rat(a * t + b, c * t + d)


def _simplest_candidate(sys: MonotoneSystem, m: list, epsilon, h: int):
    y = [_simplest_rational(x, x + epsilon) for x in (Rat(mi, 1 << h) for mi in m)]
    s = lcm(*(yi.denominator for yi in y))
    numerators = [yi.numerator * (s // yi.denominator) for yi in y]
    return y if _is_post_fixed_point(sys, numerators, s) else None


def post_fixed_point_witness(sys: MonotoneSystem, m: list, epsilon, h: int):
    """An exactly checked post-fixed point at most epsilon above x = m 2**-h,
    the grid's iterate given by its mantissas m.

    Returns y as rationals when P(y) <= y and 0 <= y - x <= epsilon hold
    exactly, otherwise None.  P(y) <= y is checked in integers
    over the common coefficient denominator by ``_is_post_fixed_point``,
    with y's numerators over 2**(h + STEP_BITS) for the first candidate and
    over the lcm of its denominators for the second.  Two candidates are
    tried in order:

    - the Newton direction: with d = (I - B(x))^-1 1, y = x + round_down(e
      d / ||d||_inf) on the 2**-(h + STEP_BITS) grid, provided every d_i >
      0, for e = eps / 2 and, if that y fails the check, e = eps, from one
      linear solve.  The half step leaves every answer interval [y - eps,
      x] about eps / 2 wide or more; the full step certifies the iterates
      that are too far below q* for it.  That grid is 8 bits finer than the
      iterate's, so the step keeps its resolution on a first witness grid
      only WITNESS_HEADROOM = 2 bits finer than eps.  Near a non-critical
      q*, P(y) - y = P(x) - x - (e / ||d||) 1 + O(e^2), so it passes once x
      is close enough to q*; at a critical q*, I - B(q*) is singular and it
      cannot pass;
    - the simplest rationals: y_i is the rational with the least denominator
      in [x_i, x_i + eps].  At a rational q* with a small denominator it is
      q* itself once x is within eps below it, which certifies critical
      components such as x = x^2/4 + 1 (q* = 2).  When every 1 - x_i <= eps
      it is y = 1, which also covers a q* within epsilon of 1 but below it,
      nearly critical, such as a chain whose bottom row leaks 2**-200.  The
      components with q* = 1 exactly never get here, because the pre-pass
      sets them.
    """
    y = _newton_direction_candidate(sys, m, epsilon, h)
    return y if y is not None else _simplest_candidate(sys, m, epsilon, h)


# --- the grid loop -------------------------------------------------------------


def _probe_divergence(sys: MonotoneSystem, bounds: LfpBounds) -> None:
    """Cheap certified divergence probe: value iterates are lower bounds on
    any finite LFP, so escaping the upper bound settles the question before
    any expensive parameter choice."""
    if bounds.qmax_exponent <= (1 << 20) and detect_divergence(sys, bounds.qmax_exponent):
        raise DivergenceCertified(
            f"value iteration escapes the q*_max bound 2**{bounds.qmax_exponent}; "
            "no finite least fixed point below it exists"
        )


def _ladder(h: int, ceiling: int):
    while h <= ceiling:
        yield h, h - 1
        h *= 2


def _run_grids(
    sys: MonotoneSystem, decomp: Decomposition, epsilon, bounds: LfpBounds, options: SolveOptions
):
    """The grid loop of the module docstring on a cleaned system.  Returns
    (params, the mantissas of the answer's grid ``params.h``, runs,
    certificate kind, witness or None, grids tried for a witness).

    Both modes climb the same unscaled ladder and stop at the first grid
    with a witness, at the first that agrees with the one before within
    eps / 4, at a singular Newton step, or at the ceiling; only the ceiling
    and what follows a stop without a witness depend on the mode.  Without
    the agreement stop, certified runs on a component that no witness can
    certify would climb to the ceiling.  The probe after the ladder is
    skipped for a witness y <= 2**qmax_exponent: below it, value iterates
    stay under q* <= y and cannot escape.
    """
    u = max(bounds.qmax_exponent, 0)
    threshold = bounds.qmax_exponent
    beta = min(ONE, c_min(sys)) * min(ONE, HALF * bounds.qmin_lower)
    if options.h_override is not None:
        h = options.h_override
        grids = [(h, options.g_override if options.g_override is not None else max(h - 1, 1))]
    else:
        h0 = ceil_log2(ONE / epsilon) + WITNESS_HEADROOM
        ceiling = options.max_h
        if options.mode == "certified":
            h_theorem = options.theorem_h
            if h_theorem is None:
                n, d, f = sys.n, decomp.depth, decomp.nonlinear_depth
                h_theorem = _params_general(n, d, f, u, beta, norm_p_one(sys), epsilon) + 1
            top = h_theorem - u
            # the first two witness grids run whenever they are below the theorem's
            ceiling = min(ceiling, max(top // WITNESS_SHARE, min(2 * h0, top - 1)))
        grids = _ladder(h0, ceiling)
    if u > 0:
        _probe_divergence(sys, bounds)

    attempted, upper, previous, agreed, singular = [], None, None, False, None
    for h, g in grids:
        attempted.append(h)
        try:
            m, runs = _run_rdnm(sys, decomp, h, g, threshold, options.keep_traces)
        except SingularMatrix as exc:
            singular = exc
            break
        upper = post_fixed_point_witness(sys, m, epsilon, h)
        if upper is not None:
            break
        # |a 2**-h - b 2**-hp| <= eps / 4 in integers, hp < h the grid before
        agreed = previous is not None and all(
            abs(a - (b << (h - hp))) * (epsilon.denominator << 2) <= epsilon.numerator << h
            for a, b in zip(m, previous)
        )
        if agreed:
            break
        previous, hp = m, h

    if u == 0 and (upper is None or any(rational_exceeds_pow2(y, threshold) for y in upper)):
        _probe_divergence(sys, bounds)
    attempted = tuple(attempted)
    # A ladder that ends without a witness falls back by mode; a single
    # h_override grid has no fallback.
    fallback = upper is None and options.h_override is None
    if fallback and options.mode == "certified":
        if h_theorem > options.max_h:
            rescaled = f" (u = {u})" if u else ""
            raise ParamsInfeasible(
                f"certified h = {h_theorem}{rescaled} exceeds the ceiling {options.max_h}"
            )
        h, g = h_theorem - u, h_theorem - 1
        m, runs = _run_rdnm(sys, decomp, h, g, threshold, options.keep_traces)
        # u <= h_theorem <= max_h here, so 2**(2u) is affordable
        params = DriverParams(beta / (1 << (2 * u)), h, g, u, options.mode)
        return params, m, runs, "theorem", None, attempted
    if singular is not None:
        raise singular
    if fallback and not agreed:
        raise ParamsInfeasible(
            f"adaptive refinement passed the ceiling {options.max_h} without settling"
        )
    kind = "none" if upper is None else "witness"
    return DriverParams(beta, h, g, 0, options.mode), m, runs, kind, upper, attempted


# --- certified parameter formulas ---------------------------------------------


def _params_general(n, d, f, u, beta, norm_q1, epsilon):
    """Iteration count for rescaled solving of a system with q*_max <= 2**u:
    g = 2 + ceil(2**f (log 1/eps + d (2u + log alpha'^-(4n+1) + log 16n +
    log ||Q(1)||))) with alpha' = 2**-2u * beta.  The certified grid of the
    rescaled system is g + 1; at u = 0 this is the q* <= 1 theorem's
    h >= 3 + 2**f (log 1/eps + d (log alpha^-(4n+1) + log 16n + log ||P(1)||))."""
    log_inv_alpha = 2 * u + ceil_log2(ONE / beta)
    inner = (
        ceil_log2(ONE / epsilon)
        + d * (2 * u + (4 * n + 1) * log_inv_alpha + ceil_log2(rat(16 * n)) + ceil_log2(norm_q1))
    )
    return max(2 + (1 << f) * inner, 2 * u + 3)


def _newton_rate_info(n, d, f, bits, epsilon):
    """Input-size-only worst-case iteration schedule, reported for context.

    In the g = kP + cP * log2(1/eps) reading, cP is 2**f and kP collects
    every epsilon-independent term; also reports the assembled worst-case g
    for the requested epsilon.  Only evaluated at sizes where 2**n is a sane
    integer; these numbers are informational and never drive the run.
    """
    if n > 4096:
        return None
    per_level = bits * (1 << n) * (4 * n + 1) + (4 * n + 1) + ceil_log2(rat(16 * n)) + bits
    offset = 2 + (1 << f) * d * per_level
    return {
        "cP": 1 << f,
        "kP": offset,
        "g_worst_case": offset + (1 << f) * ceil_log2(ONE / epsilon),
    }


# --- the solver -----------------------------------------------------------------


def solve(sys: MonotoneSystem, epsilon, options: SolveOptions | None = None) -> SolveReport:
    """Approximate the least fixed point of x = P(x) to within epsilon.

    Pipeline: optional conversion to simple normal form, removal of zero
    variables, SCC decomposition, the exact q* = 1 pre-pass, then on the
    reduced system bounds and the grid loop of the module docstring, and
    last reinsertion of the ones and zeros, read at the original variables
    (the first coordinates of the normal form).  With a witness y each
    answer is the simplest rational in [max(0, y - eps), x], x the grid's
    iterate; without one it is x.  ``theorem_h`` replaces the formula's
    h_theorem.

    Raises SingularMatrix (Newton undefined), DivergenceCertified (no finite
    LFP below the working bound), or ParamsInfeasible (certified h above the
    ceiling, or no adaptive grid settled below it).
    """
    options = options or SolveOptions()
    epsilon = rat(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if options.g_override is not None and options.h_override is None:
        raise ValueError("an iteration count override needs an h override")
    if (options.h_override is not None and options.h_override < 1) or (
        options.g_override is not None and options.g_override < 1
    ):
        raise ValueError("need h >= 1 and g >= 1")
    if options.max_h < 1:
        raise ValueError("need max_h >= 1")
    if options.mode not in ("certified", "adaptive"):
        raise ValueError(f"unknown mode {options.mode!r}")

    snf = to_snf(sys) if options.use_snf else None
    work = snf.system if snf is not None else sys
    if work.degree() > 2:
        raise DegreeTooHigh(
            "system has degree > 2; solve requires a quadratic system "
            "(leave simple-normal-form conversion enabled)"
        )
    cleaned, kept = clean(work)
    kept_set = set(kept)
    removed = [name for i, name in enumerate(work.names) if i not in kept_set]
    decomp = decompose(build_graph(cleaned), cleaned)
    ones = _exact_ones(cleaned, decomp)
    rest = tuple(v for v in range(cleaned.n) if v not in ones)

    def to_input(values, zero, one) -> tuple:
        """Values of the reduced system at the original variables: ``one``
        on the proved q* = 1 set, zeros reinserted, normal-form product
        variables dropped."""
        full = [zero] * work.n
        for v in ones:
            full[kept[v]] = one
        for v, value in zip(rest, values):
            full[kept[v]] = value
        return tuple(full[: sys.n])

    exact_one = tuple(name for name, one in zip(sys.names, to_input((), False, True)) if one)
    exact_runs = tuple(
        SccRun(tuple(cleaned.names[v] for v in scc.vars), scc.nonlinear, 0, None)
        for scc in decomp.sccs
        if scc.vars[0] in ones
    )
    info = {
        "encoding_convention": _ENCODING_NOTE,
        "snf_applied": snf is not None,
        "removed_zero_variables": removed,
    }

    if not rest:
        # Every coordinate is a zero variable or proved to be 1: the answer
        # is exact, and it is itself a fixed point.
        params = DriverParams(alpha=ONE, h=1, g=1, u=0, mode=options.mode)
        qmax_source = "probability-flag" if options.qmax_exponent_assert == 0 else "exact"
        bounds = LfpBounds(ONE, "exact", 0, qmax_source)
        m, runs, attempted, kind, upper = [], (), (), "witness", ()
    else:
        reduced = cleaned
        if ones:  # every variable outside rest is in the proved set
            reduced = restrict(cleaned, rest, [ONE] * cleaned.n)
            decomp = decompose(build_graph(reduced), reduced)
        n, d, f = reduced.n, decomp.depth, decomp.nonlinear_depth
        k = options.qmax_exponent_assert
        if snf is not None and k is not None and k > 0:
            # q* <= 2**k on the input puts a product variable of degree D
            # at most 2**(k D).
            options = replace(options, qmax_exponent_assert=k * max(sys.degree(), 1))
        bounds = compute_bounds(reduced, options)
        bits = encoding_size(reduced)
        info.update(
            {
                "encoding_bits": bits,
                "variable_count": n,
                "depth": d,
                "nonlinear_depth": f,
                "newton_rate": _newton_rate_info(n, d, f, bits, epsilon),
            }
        )
        params, m, runs, kind, upper, attempted = _run_grids(
            reduced, decomp, epsilon, bounds, options
        )

    if kind != "none":
        status = "certified-eps"
    else:
        status = "adaptive-heuristic" if options.mode == "adaptive" else "uncertified"
    approx = to_input([Rat(mi, 1 << params.h) for mi in m], ZERO, ONE)
    if upper is not None:
        upper = to_input(upper, ZERO, ONE)
        approx = tuple(_simplest_rational(max(ZERO, y - epsilon), x) for x, y in zip(approx, upper))
    return SolveReport(
        approximation=approx,
        names=tuple(sys.names),
        params=params,
        bounds=bounds,
        scc_runs=exact_runs + runs,
        status=status,
        epsilon=epsilon,
        info=info,
        certificate=Certificate(kind, upper, attempted, exact_one),
    )
