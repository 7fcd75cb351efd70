"""Exception types shared across the package, and the three input rules that raise one.

Every scalar the package takes from outside goes through ``check_count`` (an integer) or ``check_real`` (a
finite real number), and every vector or stack of vectors through ``check_reals``, which decides its axes and
length as well as its entries, so a bad one is a DomainError with one message form.
"""

import math
import numbers

import numpy as np


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


def _shown(value) -> str:
    """repr(value), cut in the middle to 40 characters so that an error line stays short."""
    try:
        text = repr(value)
    except ValueError:  # an int past Python's limit on digits converted to str
        text = f"an integer of {value.bit_length()} bits"
    return text if len(text) <= 40 else f"{text[:18]}...{text[-19:]}"


def check_count(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as an int if it is a non-bool integer from ``least`` to ``most`` (no cap if None), else DomainError.

    Floats are refused even when integral, so a count is never truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{name} must be an integer of at least {least}, got {_shown(value)}")
    if most is not None and value > most:
        raise DomainError(f"{name} must be an integer of at most {most}, got {_shown(value)}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a float if it is a finite, non-bool real number, else DomainError.

    Strings are refused even when they spell a number ("0.1"), and so are None, NaN and 10**400 (inf as a float).
    """
    # float first: it covers numpy's float64 and is several times cheaper than the ABC check
    real = isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int or Fraction beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DomainError(f"{name} must be a number (finite, not a string or bool), got {_shown(value)}")
    return number


VECTOR, STACK, EITHER = (1,), (2,), (1, 2)  # the axes check_reals allows
_AXES = {VECTOR: "one vector", STACK: "a nonempty stack of vectors",
         EITHER: "one vector or a nonempty stack of vectors"}


def check_reals(name: str, values, length: int | None, axes: tuple = EITHER) -> np.ndarray:
    """``values`` as a float array of finite real numbers, in the axes ``axes`` allows (VECTOR, STACK or EITHER),
    each vector of ``length`` numbers (None: any nonempty length), else DomainError.

    The one rule for a vector's shape, with one message form: "intercept override must be one vector of 3 numbers,
    got shape (2, 3)".  A numpy array of integer or float dtype is checked in one pass, for finiteness as float64
    alone: its dtype already rules out strings, bools and None.  Anything else (a ragged input is refused) goes
    entry by entry through check_real.
    """
    numeric = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
    try:
        array = values if numeric else np.asarray(values, dtype=object)
    except ValueError:  # nested arrays of unequal shapes
        raise DomainError(f"{name} must be numbers on a regular grid, got a ragged input") from None
    if array.ndim not in axes or not array.size or (length is not None and array.shape[-1] != length):
        numbers = "numbers" if length is None else f"{length} numbers"
        raise DomainError(f"{name} must be {_AXES[axes]} of {numbers}, got shape {array.shape}")
    if not numeric:
        return np.array([check_real(name, v) for v in array.flat], dtype=float).reshape(array.shape)
    with np.errstate(over="ignore"):  # a longdouble beyond the float range becomes inf, refused below
        floats = array.astype(float, copy=False)
    if not np.isfinite(floats).all():
        raise DomainError(f"{name} must be finite numbers, got {_shown(array[~np.isfinite(floats)][0])}")
    return floats
