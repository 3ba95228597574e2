"""Extended reals R ∪ {−∞} as IEEE floats.

−∞ is the float ``-inf``: ``NEG_INFINITY`` is that value and ``ExtReal`` is an
alias of ``float``. IEEE arithmetic already absorbs it (x + (−∞) = −∞ and
c·(−∞) = −∞ for finite x and c > 0), so sums need no helpers. Positive
infinity and NaN have no meaning here: :func:`as_extreal` rejects them where
values cross the public boundary.
"""

from __future__ import annotations

import math

from .errors import SchemaError

__all__ = ["NEG_INFINITY", "ExtReal", "as_extreal", "is_neg_infinity"]

NEG_INFINITY = float("-inf")

ExtReal = float


def is_neg_infinity(x) -> bool:
    return x == NEG_INFINITY


def as_extreal(x) -> ExtReal:
    """x as a float in R ∪ {−∞}; +inf and NaN raise :class:`SchemaError`."""
    value = float(x)
    if math.isnan(value):
        raise SchemaError("NaN is not an extended real")
    if value == math.inf:
        raise SchemaError("+inf has no representation in R ∪ {−∞}")
    return value
