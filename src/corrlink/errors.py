"""Exception types shared across the package."""

__all__ = [
    "CorrlinkError",
    "DomainError",
    "ConfigurationError",
    "SingularMatrixError",
    "TrialFailureError",
]


class CorrlinkError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CorrlinkError, ValueError):
    """An argument lies outside the mathematical domain of a function."""


class ConfigurationError(CorrlinkError, ValueError):
    """A parameter combination is invalid or infeasible before any trial runs."""


class SingularMatrixError(CorrlinkError, ArithmeticError):
    """A matrix required to be invertible is singular or too ill-conditioned.

    Attributes
    ----------
    condition_estimate : float or None
        1-norm condition estimate that triggered the rejection, when known.
    """

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class TrialFailureError(CorrlinkError, RuntimeError):
    """A trial could not produce an estimate: a walked crossing reached its cap."""
