"""Kernel functions on [−1, 1].

A kernel is concave on (−1, 0) and on (0, 1), takes values in R ∪ {−∞},
and has matching one-sided limits at 0. Each built-in variant carries four
analytically known classification flags:

``singular``
    the value at 0 is −∞;
``monotone_M``
    decreasing on (−1, 0) and increasing on (0, 1);
``strictly_monotone_SM``
    the same, strictly;
``strictly_concave``
    strictly concave on both half-intervals.

The variants cover the logarithmic kernel, its capped and regularized
relatives, a shifted square root, and a tent-shaped log used as a
non-monotone stress case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError, SchemaError
from .extreal import NEG_INFINITY, ExtReal, as_extreal

__all__ = [
    "CappedLog",
    "CappedLogPlusQuadratic",
    "KernelFlags",
    "KernelSpec",
    "Log",
    "Regularized",
    "SqrtShift",
    "TentLog",
    "kernel_classify",
    "kernel_eval",
    "kernel_from_json",
    "kernel_to_json",
    "kernel_values",
]


@dataclass(frozen=True)
class KernelFlags:
    singular: bool
    monotone_M: bool
    strictly_monotone_SM: bool
    strictly_concave: bool


class KernelSpec:
    """Base class of the built-in kernel family. Instances are immutable."""

    variant: str = ""
    # offsets κ > 0 where the kernel has a kink on (0, 1) (and at −κ on (−1, 0))
    _kinks: tuple[float, ...] = ()

    def flags(self) -> KernelFlags:
        raise NotImplementedError

    def _build_scalar(self) -> Callable[[float], float]:
        """Scalar evaluator over [−1, 1]; −∞ is returned as IEEE -inf."""
        raise NotImplementedError

    def _values_unchecked(self, u: np.ndarray) -> np.ndarray:
        f = scalar_fn(self)
        return np.array([f(float(v)) for v in np.asarray(u, dtype=float).ravel()])

    def _slope(self, u: np.ndarray) -> np.ndarray:
        """K′(u) elementwise for u ≠ 0; on a kink either one-sided value."""
        raise NotImplementedError

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class Log(KernelSpec):
    """K(t) = log|t|."""

    variant = "Log"

    def flags(self) -> KernelFlags:
        return KernelFlags(True, True, True, True)

    def _build_scalar(self):
        log = math.log

        def k(u: float) -> float:
            au = abs(u)
            return log(au) if au > 0.0 else NEG_INFINITY

        return k

    def _values_unchecked(self, u):
        # log in place: one live temporary of the argument's size, not two
        au = np.abs(u)
        with np.errstate(divide="ignore"):
            return np.log(au, out=au if isinstance(au, np.ndarray) else None)

    def _slope(self, u):
        return 1.0 / np.asarray(u, dtype=float)


@dataclass(frozen=True)
class CappedLog(KernelSpec):
    """K(t) = min(0, log|t/a|) for a cap level a in (0, 1)."""

    a: float
    variant = "CappedLog"

    def __post_init__(self):
        if not (0.0 < float(self.a) < 1.0):
            raise SchemaError("CappedLog cap must lie in (0, 1)")

    @property
    def _kinks(self):
        return (float(self.a),)

    def flags(self) -> KernelFlags:
        return KernelFlags(True, True, False, False)

    def _build_scalar(self):
        a = float(self.a)
        log = math.log

        def k(u: float) -> float:
            au = abs(u)
            if au >= a:
                return 0.0
            return log(au / a) if au > 0.0 else NEG_INFINITY

        return k

    def _values_unchecked(self, u):
        with np.errstate(divide="ignore"):
            return np.minimum(0.0, np.log(np.abs(u) / float(self.a)))

    def _slope(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) < float(self.a), 1.0 / u, 0.0)

    def params(self):
        return {"a": float(self.a)}


@dataclass(frozen=True)
class SqrtShift(KernelSpec):
    """K(t) = sqrt(t + 4) on [0, 1], mirrored to K(−t) = K(t). Non-singular."""

    variant = "SqrtShift"

    def flags(self) -> KernelFlags:
        return KernelFlags(False, True, True, True)

    def _build_scalar(self):
        sqrt = math.sqrt

        def k(u: float) -> float:
            return sqrt(abs(u) + 4.0)

        return k

    def _values_unchecked(self, u):
        return np.sqrt(np.abs(u) + 4.0)

    def _slope(self, u):
        u = np.asarray(u, dtype=float)
        return np.sign(u) / (2.0 * np.sqrt(np.abs(u) + 4.0))


@dataclass(frozen=True)
class TentLog(KernelSpec):
    """K(t) = min(log|10t|, log((10/9)(1−|t|))): singular, concave, not monotone."""

    variant = "TentLog"
    _kinks = (0.1,)  # where log|10t| = log((10/9)(1 − |t|))

    def flags(self) -> KernelFlags:
        return KernelFlags(True, False, False, True)

    def _build_scalar(self):
        log = math.log

        def k(u: float) -> float:
            au = abs(u)
            if au == 0.0 or au >= 1.0:
                return NEG_INFINITY
            return min(log(10.0 * au), log((10.0 / 9.0) * (1.0 - au)))

        return k

    def _values_unchecked(self, u):
        au = np.abs(u)
        with np.errstate(divide="ignore"):
            return np.minimum(np.log(10.0 * au), np.log((10.0 / 9.0) * (1.0 - au)))

    def _slope(self, u):
        u = np.asarray(u, dtype=float)
        au = np.abs(u)
        with np.errstate(divide="ignore"):
            return np.where(au < 0.1, 1.0 / u, -np.sign(u) / (1.0 - au))


@dataclass(frozen=True)
class CappedLogPlusQuadratic(KernelSpec):
    """K(t) = min(0, log|t/a|) + 1 − 2 t²: singular, strictly concave, not monotone."""

    a: float
    variant = "CappedLogPlusQuadratic"

    def __post_init__(self):
        if not (0.0 < float(self.a) < 1.0):
            raise SchemaError("CappedLogPlusQuadratic cap must lie in (0, 1)")

    @property
    def _kinks(self):
        return (float(self.a),)

    def flags(self) -> KernelFlags:
        return KernelFlags(True, False, False, True)

    def _build_scalar(self):
        capped = scalar_fn(CappedLog(self.a))

        def k(u: float) -> float:
            base = capped(u)
            if base == NEG_INFINITY:
                return NEG_INFINITY
            return base + 1.0 - 2.0 * u * u

        return k

    def _values_unchecked(self, u):
        return CappedLog(self.a)._values_unchecked(u) + 1.0 - 2.0 * np.square(u)

    def _slope(self, u):
        return CappedLog(self.a)._slope(u) - 4.0 * np.asarray(u, dtype=float)

    def params(self):
        return {"a": float(self.a)}


@dataclass(frozen=True)
class Regularized(KernelSpec):
    """base(t) + eta·sqrt|t|: strictly concave; strictly monotone when base is monotone."""

    base: KernelSpec
    eta: float
    variant = "Regularized"

    def __post_init__(self):
        if not isinstance(self.base, KernelSpec):
            raise SchemaError("Regularized base must be a kernel")
        if not (float(self.eta) > 0.0 and math.isfinite(float(self.eta))):
            raise SchemaError("Regularized eta must be a finite positive real")

    @property
    def _kinks(self):
        return self.base._kinks

    def flags(self) -> KernelFlags:
        base = self.base.flags()
        return KernelFlags(
            singular=base.singular,
            monotone_M=base.monotone_M,
            strictly_monotone_SM=base.monotone_M,
            strictly_concave=True,
        )

    def _build_scalar(self):
        base_k = scalar_fn(self.base)
        eta = float(self.eta)
        sqrt = math.sqrt

        def k(u: float) -> float:
            v = base_k(u)
            if v == NEG_INFINITY:
                return NEG_INFINITY
            return v + eta * sqrt(abs(u))

        return k

    def _values_unchecked(self, u):
        return self.base._values_unchecked(u) + float(self.eta) * np.sqrt(np.abs(u))

    def _slope(self, u):
        u = np.asarray(u, dtype=float)
        return self.base._slope(u) + float(self.eta) * np.sign(u) / (2.0 * np.sqrt(np.abs(u)))

    def params(self):
        return {"base": kernel_to_json(self.base), "eta": float(self.eta)}


@lru_cache(maxsize=None)
def scalar_fn(kernel: KernelSpec) -> Callable[[float], float]:
    """Cached scalar evaluator for a kernel (no domain check; hot path)."""
    return kernel._build_scalar()


def _check_domain(t: float) -> float:
    t = float(t)
    if math.isnan(t) or t < -1.0 or t > 1.0:
        raise DomainError(f"kernel argument {t!r} outside [-1, 1]")
    return t


def kernel_eval(kernel: KernelSpec, t: float) -> ExtReal:
    """Value of the kernel at t in [−1, 1]; limits are used at −1, 0, 1."""
    return as_extreal(scalar_fn(kernel)(_check_domain(t)))


def kernel_values(kernel: KernelSpec, u: np.ndarray) -> np.ndarray:
    """Vectorized kernel evaluation; −∞ appears as IEEE -inf in the result."""
    u = np.asarray(u, dtype=float)
    if u.size and (np.nanmin(u) < -1.0 or np.nanmax(u) > 1.0):
        raise DomainError("kernel argument outside [-1, 1]")
    return kernel._values_unchecked(u)


def kernel_classify(kernel: KernelSpec) -> KernelFlags:
    return kernel.flags()


def kernel_to_json(kernel: KernelSpec) -> dict:
    return {"variant": kernel.variant, "params": kernel.params()}


def kernel_from_json(doc: dict) -> KernelSpec:
    try:
        variant = doc["variant"]
        params = doc.get("params", {})
        if variant == "Log":
            return Log()
        if variant == "CappedLog":
            return CappedLog(a=float(params["a"]))
        if variant == "SqrtShift":
            return SqrtShift()
        if variant == "TentLog":
            return TentLog()
        if variant == "CappedLogPlusQuadratic":
            return CappedLogPlusQuadratic(a=float(params["a"]))
        if variant == "Regularized":
            return Regularized(base=kernel_from_json(params["base"]), eta=float(params["eta"]))
    except SchemaError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise SchemaError(f"malformed kernel document: {doc!r}") from exc
    raise SchemaError(f"unknown kernel variant {variant!r}")
