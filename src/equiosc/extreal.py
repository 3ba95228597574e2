"""Extended reals R ∪ {−∞} as IEEE floats, and the number checks at the public boundary.

−∞ is the float ``-inf``: ``NEG_INFINITY`` is that value and ``ExtReal`` is an
alias of ``float``. IEEE arithmetic already absorbs it (x + (−∞) = −∞ and
c·(−∞) = −∞ for finite x and c > 0), so sums need no helpers. Positive
infinity and NaN have no meaning here: :func:`as_extreal` rejects them where
values cross the public boundary.

Every number handed in by a caller or a JSON document passes one of three
checkers, :func:`_real`, :func:`_count` or :func:`_reals`, which refuse
booleans, strings, non-finite values and non-sequences with the error class
they are given; any other container passes :func:`_sequence` first, and an
argument that must be a library object (a kernel, a field, a union, a grid)
passes :func:`_instance`.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import SchemaError

__all__ = ["NEG_INFINITY", "ExtReal", "as_extreal", "is_neg_infinity"]

NEG_INFINITY = float("-inf")

ExtReal = float


def is_neg_infinity(x) -> bool:
    return x == NEG_INFINITY


def as_extreal(x) -> ExtReal:
    """x as a float in R ∪ {−∞}; +inf, NaN, booleans and non-reals raise :class:`SchemaError`."""
    if isinstance(x, numbers.Real) and x == NEG_INFINITY:
        return NEG_INFINITY
    return _real(x, "an extended real other than −∞")


def _real(x, name: str, error=SchemaError, *, positive: bool = False) -> float:
    """x as a float if it is a finite real, and positive if asked; else ``error``.

    >>> _real(2, "c")
    2.0
    >>> _real("2", "c")
    Traceback (most recent call last):
    ...
    equiosc.errors.SchemaError: c must be a finite real, got '2'
    """
    value = x
    if type(x) is not float:
        value = None
        if not isinstance(x, bool) and isinstance(x, numbers.Real):
            try:
                value = float(x)
            except OverflowError:
                pass
    if value is None or not math.isfinite(value) or (positive and value <= 0.0):
        kind = "finite positive real" if positive else "finite real"
        raise error(f"{name} must be a {kind}, got {x!r}")
    return value


def _count(x, name: str, error=SchemaError) -> int:
    """x as an int if it is an integer; booleans and integral floats are refused.

    >>> _count(np.int64(3), "n")
    3
    >>> _count(3.0, "n")
    Traceback (most recent call last):
    ...
    equiosc.errors.SchemaError: n must be an integer, got 3.0
    """
    if not isinstance(x, (bool, np.bool_)):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {x!r}")


def _sequence(xs, name: str, error=SchemaError) -> tuple:
    """xs as a tuple if it is iterable, else ``error``.

    >>> _sequence("IJ", "labels")
    ('I', 'J')
    >>> _sequence(None, "labels")
    Traceback (most recent call last):
    ...
    equiosc.errors.SchemaError: labels must be a sequence, got None
    """
    try:
        return tuple(xs)
    except TypeError:
        raise error(f"{name} must be a sequence, got {xs!r}") from None


def _instance(x, cls: type, name: str, error=SchemaError):
    """x if it is a ``cls``, else ``error``.

    >>> _instance(None, float, "level")
    Traceback (most recent call last):
    ...
    equiosc.errors.SchemaError: level must be of type float, got None
    """
    if not isinstance(x, cls):
        raise error(f"{name} must be of type {cls.__name__}, got {x!r}")
    return x


def _reals(xs, name: str, error=SchemaError, *, positive: bool = False) -> tuple[float, ...]:
    """xs as a tuple of floats if it is a non-empty sequence of finite (positive, if asked) reals.

    >>> _reals([1, 2.5], "r", positive=True)
    (1.0, 2.5)
    >>> _reals(None, "r")
    Traceback (most recent call last):
    ...
    equiosc.errors.SchemaError: r must be a sequence, got None
    """
    xs = _sequence(xs, name, error)
    if not xs:
        raise error(f"{name} must not be empty")
    return tuple(_real(v, name, error, positive=positive) for v in xs)
