"""Exception types shared across the package, and the argument type checks.

All errors raised by library code derive from SynclusterError so callers
can catch one base type at API boundaries; a statistic evaluated where it
diverges returns +inf rather than raising. The CLI maps every
SynclusterError to exit code 1 and I/O problems to exit code 2.
"""

import numbers
import operator

import numpy as np


class SynclusterError(Exception):
    """Base class for all library errors."""


class ValidationError(SynclusterError):
    """An input violates a documented precondition.

    The message names the violated invariant (e.g. "p must lie in [0, 1]")
    so harness logs stay actionable.
    """


class ParseError(SynclusterError):
    """A config file or serialized artifact could not be parsed.

    For config files the message carries the 1-based line number of the
    offending entry.
    """


class NonFiniteError(ValidationError):
    """A matrix argument contains NaN or Inf entries."""


class NoConvergenceError(SynclusterError):
    """The iterative eigensolver hit its iteration cap before converging.

    Carries the best iterate found so callers can inspect or reuse it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def as_index(value, name):
    """value as a Python int, for an argument that must be an integer.

    Integers of any kind (numpy's included) pass through operator.index;
    floats, strings and the like raise ValidationError naming the argument
    rather than being truncated or failing deep inside numpy.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def as_real(value, name):
    """value unchanged, for an argument that must be a real number.

    Any numbers.Real passes (numpy's floats and integers included); strings,
    None and the like raise ValidationError naming the argument rather than
    a TypeError from a comparison deep inside the library.
    """
    if isinstance(value, numbers.Real):
        return value
    raise ValidationError(f"{name} must be a real number, got {value!r}")


def as_values(value, name):
    """value as a tuple, for an argument that must list values.

    Any iterable but a string passes; a bare number, a string and the like
    raise ValidationError naming the argument rather than a TypeError from
    iterating it deep inside the library.
    """
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be a sequence of values, got {value!r}")


def as_floats(value, name):
    """value as a float64 ndarray, for an argument that must hold real numbers.

    Anything numpy converts to float64 passes (unchanged when it is a
    float64 array already); strings and the like raise ValidationError
    naming the argument rather than a TypeError or ValueError from numpy,
    and complex values rather than losing their imaginary parts.
    """
    try:
        given = np.asarray(value)
        if given.dtype.kind != "c":
            return given.astype(np.float64, copy=False)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{name} must hold real numbers")


def as_indices(values, name):
    """values as a C-contiguous int64 ndarray, for an argument of indices.

    Integers and integral floats pass; anything else (fractions, booleans,
    strings, None, ragged lists) raises ValidationError naming the argument
    rather than being truncated or failing inside numpy.
    """
    try:
        given = np.asarray(values)
    except ValueError:
        raise ValidationError(f"{name} must be integers") from None
    if given.dtype.kind in "iuf":
        indices = np.asarray(given, dtype=np.int64, order="C")
        if given.dtype.kind != "f" or np.array_equal(indices, given):
            return indices
    raise ValidationError(f"{name} must be integers")
