"""Exception types shared across the package."""


class NumericalError(Exception):
    """Base class for runtime numerical failures (CLI maps these to exit 1)."""


class SingularMatrix(NumericalError):
    """A pivot fell below the singularity tolerance during LU factorization."""


class DomainViolation(NumericalError):
    """A vector field was evaluated outside its domain of definition."""


class NotOrthogonal(NumericalError):
    """The step matrix fails the orthogonality pre-check of the orthogonal guard."""


class NoBracket(NumericalError):
    """Root finding was requested on an interval without a sign change."""


class ResidualTooLarge(NumericalError):
    """A user-supplied algebraic solution failed its residual check."""


class NoEventBeforeHorizon(NumericalError):
    """An integration expected to produce an event reached t_end without one."""
