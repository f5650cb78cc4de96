"""Exception types shared across the solver."""


class LfpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LfpError):
    """Malformed input document (JSON shape, literals, arity)."""


class NotMonotone(LfpError):
    """A coefficient or constant term is not strictly positive."""


class DegreeTooHigh(LfpError):
    """An operation that requires a quadratic system met degree > 2."""


class SingularMatrix(LfpError):
    """No pivot available in exact Gaussian elimination.

    During Newton iteration this means I - B(z) is singular, i.e. the
    iteration is undefined at the current point.
    """


class DivergenceCertified(LfpError):
    """A certified witness that the system has no finite least fixed point
    below the working upper bound (iterates of a system with a finite LFP
    never exceed it)."""


class ParamsInfeasible(LfpError):
    """The certified rounding parameter exceeds the configured ceiling."""


class StructureViolation(LfpError):
    """A structural guarantee (e.g. nonlinear depth <= 1 for counter-automaton
    systems) failed; indicates a bug, not bad input."""


class InvalidModel(LfpError):
    """A probabilistic one-counter automaton failed validation.

    Carries the full list of violations so callers can report all of them.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid model")
