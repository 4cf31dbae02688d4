"""Exception types shared across the package, and the check of integer
arguments that raises one."""

from __future__ import annotations


class WearschedError(Exception):
    """Base class for all package-specific errors."""


class InvalidModelError(WearschedError, ValueError):
    """A system model violates its construction invariants."""


class DomainError(WearschedError, ValueError):
    """An argument is outside the documented domain of an operation."""


def check_integer(name: str, value) -> int:
    """``value`` as an int, if it is an integer or an integral float; anything
    else raises ``DomainError`` naming the argument ``name``."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


class ConvergenceError(WearschedError, RuntimeError):
    """An iterative routine ran out of iterations.

    Carries the last residual and a short tail of the residual history.
    ``residual`` is the routine's own stopping measure, not
    ``SolveResult.residual``: RVI's last span of Tv - v, the covariance
    recursion's last step norm, and nan for policy iteration.
    """

    def __init__(self, message: str, residual: float, history: list[float] | None = None):
        super().__init__(message)
        self.residual = residual
        self.history = list(history or [])


class NumericalOverflowError(WearschedError, ArithmeticError):
    """A computation produced non-finite values.

    ``first_offending_index`` names the first grid index (if any) at which
    the overflow appeared.
    """

    def __init__(self, message: str, first_offending_index: int | None = None):
        super().__init__(message)
        self.first_offending_index = first_offending_index


class EvaluationError(WearschedError, RuntimeError):
    """Policy evaluation hit a singular or ill-conditioned linear system."""

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class ConfigError(WearschedError, ValueError):
    """An experiment configuration failed validation. ``field`` names the key."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message


class MissingArtifactError(WearschedError, FileNotFoundError):
    """A required artifact file does not exist."""


class ArtifactParseError(WearschedError, ValueError):
    """An artifact file exists but does not parse to a valid object."""
