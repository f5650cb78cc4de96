"""Single Newton steps and the rounded-down Newton loop.

One Newton iteration at z is z + (I - B(z))^{-1} (P(z) - z), computed
exactly; the rounded loop then snaps every coordinate down to the 2**-h
grid (clamping at 0), which keeps iterate bit-sizes linear in h instead of
doubling per step, while every iterate remains a lower bound on the least
fixed point.  Every step of the solver runs on integer mantissas and the
integer rows of ``newton_rows``.  ``newton_step`` is the exact rational
operator (``evaluate``, ``eval_jacobian``, ``solve_linear``), which no
solve or command calls: the benchmark's traced spans
(``perfbench/spans.py``) name it, and the tests check the kernel against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeTooHigh, DivergenceCertified
from .mps import MonotoneSystem, eval_jacobian, evaluate
from .ratmath import (
    Dyadic,
    Rat,
    identity_minus,
    rational_exceeds_pow2,
    round_down_dyadic,  # unused here; perfbench/spans.py times it at this import
    solve_integer,
    solve_linear,
    vec_sub,
)


@dataclass(frozen=True)
class RnmConfig:
    """Rounding parameter h and iteration count g.

    Certified runs use g >= h - 1; the loop itself only requires both to be
    at least 1.
    """

    h: int
    g: int

    def __post_init__(self):
        if self.h < 1 or self.g < 1:
            raise ValueError("need h >= 1 and g >= 1")


@dataclass(frozen=True)
class TraceRecord:
    k: int
    iterate: tuple  # Dyadic per coordinate
    residual: object  # ||P(x) - x||_inf, diagnostics only


@dataclass(frozen=True)
class IterationTrace:
    records: tuple  # empty unless the run kept its trace
    steps: int  # Newton steps computed: g, or the step at which the iterate pinned


def newton_step(sys: MonotoneSystem, z) -> list:
    """Exact Newton operator at z for a quadratic system.

    Raises SingularMatrix (from the linear solve) when I - B(z) has no
    inverse, i.e. the iteration is undefined at z.
    """
    jac = eval_jacobian(sys, z)
    rhs = vec_sub(evaluate(sys, z), z)
    delta = solve_linear(identity_minus(jac), rhs)
    return [zi + di for zi, di in zip(z, delta)]


def newton_rows(sys: MonotoneSystem, m: list, h: int, members=None) -> tuple:
    """Integer rows A = s I - J(m) and r = N(m) - s m at x = m 2**-h, the one
    place the solver builds I - B rows, read from ``sys.integer_form``.

    With s = L 2**((D-1)h) (``IntegerForm.back_scale``), N(m) = L 2**(Dh)
    P(x), each term shifted left by its degree gap times h, and its integer
    Jacobian J(m) = s B(x), I - B(x) = A / s and P(x) - x = r / (s 2**h).
    Zero patterns match the rational rows', and so does any SingularMatrix.

    ``members`` (increasing indices, all by default) picks a component: its
    rows, columns renumbered in its order, with every other variable a
    constant at its mantissa in ``m``.  That is the system ``mps.restrict``
    would build, its rows scaled by one positive integer: A^-1 r is the same.
    """
    form = sys.integer_form
    s = form.back_scale(1 << h)
    if members is None:
        members = range(sys.n)
    local = {v: k for k, v in enumerate(members)}
    rows, rhs = [], []
    for i in members:
        total = 0
        jac = {}
        for coeff, exponents, gap in form.equations[i]:
            if not exponents:
                total += coeff << (gap * h)
            elif len(exponents) == 2:
                (a, _), (b, _) = exponents
                ma, mb = m[a], m[b]
                total += coeff * ma * mb
                if mb:
                    jac[a] = jac.get(a, 0) + coeff * mb
                if ma:
                    jac[b] = jac.get(b, 0) + coeff * ma
            else:
                ((v, e),) = exponents
                mv = m[v]
                if e == 1:
                    c = coeff << (gap * h)
                    total += c * mv
                    jac[v] = jac.get(v, 0) + c
                elif mv:
                    total += coeff * mv * mv
                    jac[v] = jac.get(v, 0) + 2 * coeff * mv
        diagonal = s - jac.pop(i, 0)
        row = {local[j]: -value for j, value in jac.items() if j in local}
        if diagonal:
            row[local[i]] = diagonal
        rows.append(row)
        rhs.append(total - s * m[i])
    return rows, rhs


def _rounded_step(rows: list, rhs: list, current: list) -> list:
    """Mantissas of round_down(x + (I - B(x))^-1 (P(x) - x), h) from
    ``newton_rows``' A and r at x = m 2**-h, ``current`` the mantissas of
    its rows' variables: max(0, m + floor(A^-1 r))."""
    return [max(0, mi + p // q) for mi, (p, q) in zip(current, solve_integer(rows, rhs))]


def run_rnm(
    sys: MonotoneSystem,
    cfg: RnmConfig,
    divergence_exponent: int | None = None,
    keep_trace: bool = True,
    members=None,
    mantissas: list | None = None,
):
    """Rounded-down Newton from the all-zero vector.

    Each step computes the exact Newton iterate, then rounds every
    coordinate down to the largest non-negative multiple of 2**-h, on
    integer mantissas (``_rounded_step``).  Returns the final iterate and
    the trace: the number of Newton steps computed and, with
    ``keep_trace``, one record per iterate.  One ``newton_rows`` build per
    iterate gives its next step and its record's residual max |P_i(x) - x_i|
    = max |r_i| / (s 2**h), s = ``IntegerForm.back_scale(2**h)`` (for
    diagnostics, never a stopping criterion); only a trace builds the rows
    after the last step.

    With ``members`` and ``mantissas`` (the whole system's mantissas on the
    grid) it runs one component in place: ``members`` from 0, every other
    variable v fixed at ``mantissas[v]`` 2**-h.  The members' entries are
    never read; they hold each iterate, so on return the final one.

    When ``divergence_exponent`` is given, any iterate coordinate exceeding
    2**divergence_exponent raises DivergenceCertified: iterates of a system
    with a finite LFP below that bound can never get there.
    """
    h = cfg.h
    form = sys.integer_form
    if form.degree > 2:  # the first term of degree above 2 names its equation, as in eval_jacobian
        i, gap = next(
            (i, gap) for i, terms in enumerate(form.equations) for _, _, gap in terms if gap < form.degree - 2
        )
        raise DegreeTooHigh(
            f"equation {sys.names[i]} has a degree-{form.degree - gap} monomial; "
            "convert to simple normal form first"
        )
    members = range(sys.n) if members is None else members
    m = [0] * sys.n if mantissas is None else mantissas
    x = [0] * len(members)
    for v in members:
        m[v] = 0
    scale = form.back_scale(1 << h) << h  # P(x) - x = r / scale
    records, steps = [], cfg.g
    for k in range(cfg.g + 1):
        if k:  # step k, from the rows of iterate k - 1
            rounded = _rounded_step(rows, rhs, x)
            if rounded == x:
                # The rounded step is a deterministic map, so a repeated iterate
                # is pinned forever: x^[g] equals this iterate exactly and the
                # remaining iterations can be skipped without changing anything.
                steps = k
                break
            x = rounded
            for v, xi in zip(members, x):
                m[v] = xi
            # The crossing test is monotone in the mantissa: the largest decides,
            # and m * 2**-h > 2**e is the integer test m > 2**(h + e).
            if divergence_exponent is not None and rational_exceeds_pow2(max(x), h + divergence_exponent):
                raise DivergenceCertified(
                    f"iterate {k} exceeds the q*_max bound 2**{divergence_exponent}; "
                    "no finite least fixed point below it exists"
                )
        if k < cfg.g or keep_trace:  # the rows after step g serve only the trace
            rows, rhs = newton_rows(sys, m, h, members)
        if keep_trace:
            residual = Rat(max(map(abs, rhs), default=0), scale)
            records.append(TraceRecord(k, tuple(Dyadic(xi, h) for xi in x), residual))
    return tuple(Dyadic(xi, h) for xi in x), IterationTrace(tuple(records), steps)
