"""Exception types shared across the package, and the integer check that raises one."""

import numbers


class AncovaError(Exception):
    """Base class for all errors raised by this package."""


class SingularDesign(AncovaError):
    """The design matrix has linearly dependent columns (X'X not positive definite)."""


class ConditioningFailure(AncovaError):
    """A derived covariance quantity is not usable (non-positive or non-finite)."""


class DomainError(AncovaError, ValueError):
    """An argument is outside the domain a function is defined on."""


class InsufficientLowCPPoints(AncovaError):
    """Too few low-coverage grid points to fit a line locus."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int if it is a non-bool integer of at least ``least``, else DomainError.

    Floats are refused even when integral, so a count is never truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)
