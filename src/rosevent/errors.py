"""Exception types shared across the package."""


class NumericalError(Exception):
    """Base class for runtime numerical failures (CLI maps these to exit 1).

    A step that fails still did work, which events.integrate counts:
    factorizations is the number of LU factorizations it ran, the failing
    one included, and jacobians the number of Jacobians it evaluated. The
    code that raises, and each step layer the failure passes, adds its own.
    """

    factorizations = 0
    jacobians = 0


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


class NonFiniteState(ValueError):
    """A step ended at a state with an entry that is not finite (it
    overflowed); a ValueError, like a non-finite x0."""
