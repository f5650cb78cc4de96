"""Single Newton steps and the rounded-down Newton loop.

One Newton iteration at z is z + (I - B(z))^{-1} (P(z) - z), computed
exactly; the rounded loop then snaps every coordinate down to the 2**-h
grid (clamping at 0), which keeps iterate bit-sizes linear in h instead of
doubling per step, while every iterate remains a lower bound on the least
fixed point.  Every linear solve of the solver runs on the integer rows of
``newton_rows``.  ``newton_step`` is the exact rational operator, which no
solve calls: it stays because the benchmark's traced spans
(``perfbench/spans.py``) name it, and the tests compare the integer kernel
against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivergenceCertified
from .mps import GridSystem, MonotoneSystem, eval_jacobian, evaluate, grid_system
from .ratmath import (
    ZERO,
    Dyadic,
    Rat,
    identity_minus,
    inf_norm,
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


def _record(sys: MonotoneSystem, k: int, m: list, h: int) -> TraceRecord:
    iterate = tuple(Dyadic(mi, h) for mi in m)
    values = [d.value() for d in iterate]
    residual = inf_norm(vec_sub(evaluate(sys, values), values))
    return TraceRecord(k, iterate, residual)


def newton_rows(grid: GridSystem, m: list) -> tuple:
    """Integer rows A = s I - J(m) and r = N(m) - s m at x = m 2**-h, the one
    place the solver builds I - B rows.

    With s = ``grid.divisor`` = L 2**((D-1)h), N(m) = L 2**(Dh) P(x) and its
    integer Jacobian J(m) = s B(x), I - B(x) = A / s and P(x) - x = r / (s
    2**h).  Zero patterns match the rational rows', and so does any
    SingularMatrix.
    """
    s = grid.divisor
    rows, rhs = [], []
    for i, terms in enumerate(grid.equations):
        total = 0
        jac = {}
        for coeff, exponents, shift in terms:
            if not exponents:
                total += coeff << shift
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
                    c = coeff << shift
                    total += c * mv
                    jac[v] = jac.get(v, 0) + c
                elif mv:
                    total += coeff * mv * mv
                    jac[v] = jac.get(v, 0) + 2 * coeff * mv
        diagonal = s - jac.pop(i, 0)
        row = {j: -value for j, value in jac.items()}
        if diagonal:
            row[i] = diagonal
        rows.append(row)
        rhs.append(total - s * m[i])
    return rows, rhs


def _rounded_step(grid: GridSystem, m: list) -> list:
    """Mantissas of round_down(x + (I - B(x))^-1 (P(x) - x), h) at x = m 2**-h:
    max(0, m + floor(A^-1 r)) for the rows of ``newton_rows``."""
    rows, rhs = newton_rows(grid, m)
    return [max(0, mi + p // q) for mi, (p, q) in zip(m, solve_integer(rows, rhs))]


def run_rnm(
    sys: MonotoneSystem,
    cfg: RnmConfig,
    divergence_exponent: int | None = None,
    keep_trace: bool = True,
):
    """Rounded-down Newton from the all-zero vector.

    Each step computes the exact Newton iterate, then rounds every
    coordinate down to the largest non-negative multiple of 2**-h, on
    integer mantissas (``_rounded_step``).  Returns the final iterate and
    the trace: the number of Newton steps computed and, with
    ``keep_trace``, one record per iterate (residuals are recorded for
    diagnostics; they are never a stopping criterion, and cost one extra
    evaluation of P per step).

    When ``divergence_exponent`` is given, any iterate coordinate exceeding
    2**divergence_exponent raises DivergenceCertified: iterates of a system
    with a finite LFP below that bound can never get there.
    """
    n, h = sys.n, cfg.h
    if sys.degree() > 2:
        eval_jacobian(sys, [ZERO] * n)  # raises DegreeTooHigh naming the equation
    grid = grid_system(sys, h)
    m = [0] * n
    records = [_record(sys, 0, m, h)] if keep_trace else []
    steps = cfg.g
    for k in range(1, cfg.g + 1):
        rounded = _rounded_step(grid, m)
        if rounded == m:
            # The rounded step is a deterministic map, so a repeated iterate
            # is pinned forever: x^[g] equals this iterate exactly and the
            # remaining iterations can be skipped without changing anything.
            steps = k
            break
        m = rounded
        if divergence_exponent is not None:
            # The crossing test is monotone in the mantissa: the largest decides.
            if rational_exceeds_pow2(Rat(max(m), 1 << h), divergence_exponent):
                raise DivergenceCertified(
                    f"iterate {k} exceeds the q*_max bound 2**{divergence_exponent}; "
                    "no finite least fixed point below it exists"
                )
        if keep_trace:
            records.append(_record(sys, k, m, h))
    return tuple(Dyadic(mi, h) for mi in m), IterationTrace(tuple(records), steps)
