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
passes :func:`_instance`. A JSON document holds its constructor's arguments
(:func:`_from_document`, :func:`_to_document`, :func:`_arguments`).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import MISSING, fields
from functools import cache

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


def _count(x, name: str, error=SchemaError, *, least: int | None = None) -> int:
    """x as an int if it is an integer, and at least ``least`` if one is given; booleans and integral floats are refused.

    >>> _count(np.int64(3), "n")
    3
    >>> _count(3.0, "n")
    Traceback (most recent call last):
    ...
    equiosc.errors.SchemaError: n must be an integer, got 3.0
    >>> _count(0, "n", least=1)
    Traceback (most recent call last):
    ...
    equiosc.errors.SchemaError: n must be an integer ≥ 1, got 0
    """
    if not isinstance(x, (bool, np.bool_)):
        try:
            value = operator.index(x)
        except TypeError:
            pass
        else:
            if least is not None and value < least:
                raise error(f"{name} must be an integer ≥ {least}, got {x!r}")
            return value
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


def _arguments(doc, cls: type, given=()) -> dict:
    """doc if it is a JSON object whose keys are the dataclass ``cls``'s constructor arguments, else SchemaError.

    Every argument without a default must be present, except those in ``given``,
    which the caller supplies and the document may not hold.
    """
    names, required = _keys(cls, given)
    if isinstance(doc, dict) and names >= doc.keys() >= required:
        return doc
    if not isinstance(doc, dict):
        raise SchemaError(f"a {cls.__name__} document must be a JSON object, got {doc!r}")
    unknown = [k for k in doc if k not in names]
    if unknown:
        raise SchemaError(f"unknown key(s) {unknown} for {cls.__name__}, which takes {list(names)}")
    raise SchemaError(f"missing key(s) {[k for k in names if k in required - doc.keys()]} for {cls.__name__}")


@cache
def _keys(cls: type, given: tuple):
    """(the names of ``cls``'s constructor arguments but ``given``, in field order; those without a default)."""
    names = dict.fromkeys(f.name for f in fields(cls) if f.name not in given).keys()
    return names, frozenset(k for k in names if cls.__dataclass_fields__[k].default is MISSING)


def _from_document(cls: type, doc, read, tag=None):
    """``cls`` built from a document of its arguments (beside ``tag``), each nested object read by ``read``.

    The keys are checked only when the constructor call raises ``TypeError``:
    a key it does not take, or a missing one, is then a SchemaError, and any
    other ``TypeError`` passes through.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"a {cls.__name__} document must be a JSON object, got {doc!r}")
    args = {k: read(v) if isinstance(v, dict) else v for k, v in doc.items() if k != tag}
    try:
        return cls(**args)
    except TypeError:
        _arguments(args, cls)
        raise


def _to_document(obj, base: type, write) -> dict:
    """The dataclass ``obj``'s constructor arguments by name, each ``base`` instance written by ``write``."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: write(v) if isinstance(v, base) else v for k, v in values.items()}


def _tagged(table: dict, doc, tag: str, name: str) -> type:
    """The class that the document's ``tag`` names in ``table``, else SchemaError."""
    key = doc.get(tag) if isinstance(doc, dict) else None
    if not isinstance(key, str) or key not in table:
        raise SchemaError(f"a {name} document needs a {tag} from {list(table)}, got {doc!r}")
    return table[key]
