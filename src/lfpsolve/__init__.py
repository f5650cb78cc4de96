"""Certified least-fixed-point solver for monotone polynomial systems.

The package computes the least non-negative solution q* of x = P(x), where
every monomial coefficient of P is positive, to a requested additive error
with an actual certificate: all arithmetic is exact (integers inside,
rationals at the edges), iterates are rounded down onto a dyadic grid whose
resolution is chosen from provable bounds, and the result never overshoots
q*.  A probabilistic one-counter automaton front end maps termination
probabilities onto such systems and solves them with polynomial-size
parameters.
"""

from .decomposition import Decomposition, DependencyGraph, Scc, build_graph, decompose
from .driver import (
    Certificate,
    DriverParams,
    LfpBounds,
    SolveOptions,
    SolveReport,
    compute_bounds,
    qmax_upper_exponent,
    solve,
)
from .errors import (
    DegreeTooHigh,
    DivergenceCertified,
    InvalidModel,
    LfpError,
    NotMonotone,
    ParamsInfeasible,
    ParseError,
    SingularMatrix,
    StructureViolation,
)
from .mps import (
    Monomial,
    MonotoneSystem,
    SnfSystem,
    c_min,
    clean,
    detect_zero_variables,
    encoding_size,
    eval_jacobian,
    evaluate,
    make_monomial,
    norm_p_one,
    parse_mps,
    serialize_mps,
    system_from_json,
    system_of,
    system_to_json,
    to_snf,
)
from .newton import IterationTrace, RnmConfig, newton_step, run_rnm
from .oracle import detect_divergence, value_iterate
from .p1ca import (
    GMatrix,
    P1CA,
    Transition,
    build_termination_mps,
    p1ca_to_json,
    parse_p1ca,
    rounding_params,
    termination_probabilities,
    validate,
)
from .ratmath import (
    Dyadic,
    Rat,
    ceil_log2,
    rat,
    rat_str,
    round_down_dyadic,
    solve_linear,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DegreeTooHigh",
    "Decomposition",
    "DependencyGraph",
    "DivergenceCertified",
    "DriverParams",
    "Dyadic",
    "GMatrix",
    "InvalidModel",
    "IterationTrace",
    "LfpBounds",
    "LfpError",
    "Monomial",
    "MonotoneSystem",
    "NotMonotone",
    "P1CA",
    "ParamsInfeasible",
    "ParseError",
    "Rat",
    "RnmConfig",
    "Scc",
    "SingularMatrix",
    "SnfSystem",
    "SolveOptions",
    "SolveReport",
    "StructureViolation",
    "Transition",
    "build_graph",
    "build_termination_mps",
    "c_min",
    "ceil_log2",
    "clean",
    "compute_bounds",
    "decompose",
    "detect_divergence",
    "detect_zero_variables",
    "encoding_size",
    "eval_jacobian",
    "evaluate",
    "make_monomial",
    "newton_step",
    "norm_p_one",
    "p1ca_to_json",
    "parse_mps",
    "parse_p1ca",
    "qmax_upper_exponent",
    "rat",
    "rat_str",
    "round_down_dyadic",
    "rounding_params",
    "run_rnm",
    "serialize_mps",
    "solve",
    "solve_linear",
    "system_from_json",
    "system_of",
    "system_to_json",
    "termination_probabilities",
    "to_snf",
    "validate",
    "value_iterate",
]
