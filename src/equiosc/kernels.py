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

Each kernel also compiles a sum of translates t ↦ Σ_j r_j K(t − y_j) into one
scalar closure (``_build_sum``), the scalar hot path of every interval
maximum. The default loops over the kernel's scalar evaluator, and
``Regularized`` makes one base call per term: both add the same terms in the
same order with the same operations, bit for bit one kernel call per
translate. ``Log`` takes one log per run of equal exponents, r·log|∏(t − y_j)|,
which is bit for bit the per-term loop only where every run is one term
(distinct neighbouring exponents) and otherwise differs from it by rounding.

Next to it, each kernel compiles the slope sum t ↦ (Σ_j r_j K′(t − y_j),
Σ_j r_j K″(t − y_j)) (``_build_slope_sum``) for the search of the interval
maxima: one loop over the kernel's scalar (K′, K″) in the terms' order.
``Log``'s is inlined, bit for bit the same loop, with one reciprocal per
term giving both, and with unit exponents it leaves out the products by 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SchemaError
from .extreal import NEG_INFINITY, ExtReal, _from_document, _instance, _real, _tagged, _to_document, as_extreal

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
        """K(u) elementwise, no domain check; the caller opens np.errstate(divide="ignore") for log(0)."""
        raise NotImplementedError

    def _slope(self, u: np.ndarray) -> np.ndarray:
        """K′(u) elementwise for u ≠ 0; on a kink either one-sided value."""
        raise NotImplementedError

    def _build_derivatives(self) -> Callable[[float], tuple[float, float]]:
        """Scalar u ↦ (K′(u), K″(u)) for u ≠ 0 off the kinks, inside the kernel's support."""
        raise NotImplementedError

    def _build_sum(self, terms) -> Callable[[float], float]:
        """t ↦ Σ_j r_j K(t − y_j) over ``terms`` ((r_j, y_j), …); no domain check.

        The terms are added in the given order, as ``s += r * v`` from 0.0,
        and the sum is −∞ as soon as one term is. A variant may compile the
        loop with its kernel inlined (bit for bit the same sum) or group the
        terms (``Log``: the same sum to rounding). The scalar
        evaluator is built here, not through :func:`scalar_fn`, whose calls
        count the interval maxima (one call each).
        """
        k = self._build_scalar()

        def ksum(t: float) -> float:
            s = 0.0
            for r, yj in terms:
                v = k(t - yj)
                if v == NEG_INFINITY:
                    return NEG_INFINITY
                s += r * v
            return s

        return ksum

    def _build_slope_sum(self, terms) -> Callable[[float], tuple[float, float]]:
        """t ↦ (Σ_j r_j K′(t − y_j), Σ_j r_j K″(t − y_j)) over ``terms``; t at no node or kink.

        The terms are added in the given order, as ``s += r * v`` from 0.0 for
        each component. A variant may compile the loop with its derivatives
        inlined (bit for bit the same sums).
        """
        terms = tuple(terms)
        k2 = self._build_derivatives()

        def slope_sum(t: float) -> tuple[float, float]:
            s1 = s2 = 0.0
            for r, yj in terms:
                d1, d2 = k2(t - yj)
                s1 += r * d1
                s2 += r * d2
            return s1, s2

        return slope_sum

    def params(self) -> dict:
        """The constructor's arguments by name; a nested kernel is written as its own document."""
        return _to_document(self, KernelSpec, kernel_to_json)


# Log._build_sum: the most factors multiplied before one log, and the least
# |product| taken without falling back to one log per term
_RUN = 32
_FLOOR = 2.0**-600


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

    def _build_sum(self, terms):
        """t ↦ Σ_j r_j log|t − y_j|, one log per run of equal exponents.

        A run is a stretch of at most _RUN consecutive terms with one exponent
        r; its terms add up to r·log|∏(t − y_j)|, so the loop multiplies the
        factors t − y_j of a run into p and adds r·log|p| at the run's end.
        The plan, (y_j, r) for a term that closes a run and (y_j, None) for
        any other, is built once here. Distinct exponents make runs of one
        term, whose sums are bit for bit those of the per-term loop; n equal
        ones stay within n·ε·(r + |sum|) of it (``test_kernels``).

        Each partial product is rounded once, to within ε/2 relative, while
        none leaves the normal range. With every factor at most 2^13 in
        modulus, 31 factors lift a product by less than 2^403, so a final
        |p| ≥ _FLOOR = 2^-600 means no partial product fell below 2^-1003.
        Factors are at most 1 on [0, 1] and at most the width of a union hull
        or weight domain in ``applications``. A run that ends below _FLOOR
        (p = 0 at a node among them) sends the whole evaluation to the
        per-term loop, built only then, which is −∞ at a node.
        """
        terms = tuple(terms)
        plan, run = [], 0
        for (r, yj), (r_next, _) in zip(terms, (*terms[1:], (None, None))):
            run += 1
            if run == _RUN or r_next != r:
                plan.append((yj, r))
                run = 0
            else:
                plan.append((yj, None))
        log, floor = math.log, _FLOOR

        def ksum(t: float) -> float:
            s = 0.0
            p = 1.0
            for yj, r in plan:
                p *= t - yj
                if r is not None:
                    if p < 0.0:
                        p = -p
                    if not p >= floor:  # NaN too, as the per-term loop's −∞
                        return KernelSpec._build_sum(self, terms)(t)
                    s += r * log(p)
                    p = 1.0
            return s

        return ksum

    def _values_unchecked(self, u):
        # log in place: one live temporary of the argument's size, not two
        au = np.abs(u)
        return np.log(au, out=au if isinstance(au, np.ndarray) else None)

    def _slope(self, u):
        return 1.0 / np.asarray(u, dtype=float)

    def _build_derivatives(self):
        def k2(u: float) -> tuple[float, float]:
            q = 1.0 / u
            return q, -(q * q)

        return k2

    def _build_slope_sum(self, terms):
        """t ↦ (Σ_j r_j q_j, −Σ_j r_j q_j²), q_j = 1/(t − y_j): one reciprocal per term gives both.

        Bit for bit the per-term loop, with the derivatives inlined. With unit
        exponents (Chebyshev's) the products r·q and r·q² are q and q²
        exactly, so the loop leaves them out.
        """
        terms = tuple(terms)
        if all(r == 1.0 for r, _ in terms):
            ys = tuple(yj for _, yj in terms)

            def slope_sum(t: float) -> tuple[float, float]:
                s1 = s2 = 0.0
                for yj in ys:
                    q = 1.0 / (t - yj)
                    s1 += q
                    s2 -= q * q
                return s1, s2

            return slope_sum

        def slope_sum(t: float) -> tuple[float, float]:
            s1 = s2 = 0.0
            for r, yj in terms:
                q = 1.0 / (t - yj)
                s1 += r * q
                s2 -= r * (q * q)
            return s1, s2

        return slope_sum


@dataclass(frozen=True)
class CappedLog(KernelSpec):
    """K(t) = min(0, log|t/a|) for a cap level a in (0, 1)."""

    a: float
    variant = "CappedLog"

    def __post_init__(self):
        a = _real(self.a, f"{self.variant} cap")
        if not 0.0 < a < 1.0:
            raise SchemaError(f"{self.variant} cap must lie in (0, 1)")
        object.__setattr__(self, "a", a)

    @property
    def _kinks(self):
        return (self.a,)

    def flags(self) -> KernelFlags:
        return KernelFlags(True, True, False, False)

    def _build_scalar(self):
        a = self.a
        log = math.log

        def k(u: float) -> float:
            au = abs(u)
            if au >= a:
                return 0.0
            return log(au / a) if au > 0.0 else NEG_INFINITY

        return k

    def _values_unchecked(self, u):
        return np.minimum(0.0, np.log(np.abs(u) / self.a))

    def _slope(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) < self.a, 1.0 / u, 0.0)

    def _build_derivatives(self):
        a = self.a

        def k2(u: float) -> tuple[float, float]:
            if abs(u) >= a:
                return 0.0, 0.0
            q = 1.0 / u
            return q, -(q * q)

        return k2


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

    def _build_derivatives(self):
        sqrt, copysign = math.sqrt, math.copysign

        def k2(u: float) -> tuple[float, float]:
            s = sqrt(abs(u) + 4.0)
            return copysign(0.5 / s, u), -0.25 / (s * s * s)

        return k2


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
        return np.minimum(np.log(10.0 * au), np.log((10.0 / 9.0) * (1.0 - au)))

    def _slope(self, u):
        u = np.asarray(u, dtype=float)
        au = np.abs(u)
        with np.errstate(divide="ignore"):
            return np.where(au < 0.1, 1.0 / u, -np.sign(u) / (1.0 - au))

    def _build_derivatives(self):
        copysign = math.copysign

        def k2(u: float) -> tuple[float, float]:
            # K′ = 1/u on the log|10u| branch, −sign(u)/(1 − |u|) on the other; K″ = −K′² on both
            au = abs(u)
            q = 1.0 / u if au < 0.1 else copysign(1.0 / (1.0 - au), -u)
            return q, -(q * q)

        return k2


@dataclass(frozen=True)
class CappedLogPlusQuadratic(CappedLog):
    """K(t) = min(0, log|t/a|) + 1 − 2 t²: singular, strictly concave, not monotone."""

    variant = "CappedLogPlusQuadratic"

    def flags(self) -> KernelFlags:
        return KernelFlags(True, False, False, True)

    def _build_scalar(self):
        capped = super()._build_scalar()

        def k(u: float) -> float:
            base = capped(u)
            if base == NEG_INFINITY:
                return NEG_INFINITY
            return base + 1.0 - 2.0 * u * u

        return k

    def _values_unchecked(self, u):
        return super()._values_unchecked(u) + 1.0 - 2.0 * np.square(u)

    def _slope(self, u):
        return super()._slope(u) - 4.0 * np.asarray(u, dtype=float)

    def _build_derivatives(self):
        capped = super()._build_derivatives()

        def k2(u: float) -> tuple[float, float]:
            d1, d2 = capped(u)
            return d1 - 4.0 * u, d2 - 4.0

        return k2


@dataclass(frozen=True)
class Regularized(KernelSpec):
    """base(t) + eta·sqrt|t|: strictly concave; strictly monotone when base is monotone."""

    base: KernelSpec
    eta: float
    variant = "Regularized"

    def __post_init__(self):
        if not isinstance(self.base, KernelSpec):
            raise SchemaError("Regularized base must be a kernel")
        object.__setattr__(self, "eta", _real(self.eta, "Regularized eta", positive=True))

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
        base_k = self.base._build_scalar()
        eta = self.eta
        sqrt = math.sqrt

        def k(u: float) -> float:
            v = base_k(u)
            if v == NEG_INFINITY:
                return NEG_INFINITY
            return v + eta * sqrt(abs(u))

        return k

    def _build_sum(self, terms):
        base_k = self.base._build_scalar()
        eta = self.eta
        sqrt = math.sqrt

        def ksum(t: float) -> float:
            s = 0.0
            for r, yj in terms:
                u = t - yj
                v = base_k(u)
                if v == NEG_INFINITY:
                    return NEG_INFINITY
                s += r * (v + eta * sqrt(abs(u)))
            return s

        return ksum

    def _values_unchecked(self, u):
        return self.base._values_unchecked(u) + self.eta * np.sqrt(np.abs(u))

    def _slope(self, u):
        u = np.asarray(u, dtype=float)
        return self.base._slope(u) + self.eta * np.sign(u) / (2.0 * np.sqrt(np.abs(u)))

    def _build_derivatives(self):
        base_k2 = self.base._build_derivatives()
        half_eta = 0.5 * self.eta
        sqrt, copysign = math.sqrt, math.copysign

        def k2(u: float) -> tuple[float, float]:
            # (η·sqrt|u|)′ = sign(u)·η/(2 sqrt|u|) and (η·sqrt|u|)″ = −η/(4 |u|^{3/2})
            d1, d2 = base_k2(u)
            au = abs(u)
            e1 = half_eta / sqrt(au)
            return d1 + copysign(e1, u), d2 - 0.5 * e1 / au

        return k2


def scalar_fn(kernel: KernelSpec) -> Callable[[float], float]:
    """Scalar evaluator for a kernel (no domain check), built afresh: no cache keeps a kernel alive."""
    return kernel._build_scalar()


def _check_domain(t: float) -> float:
    t = _real(t, "kernel argument", DomainError)
    if t < -1.0 or t > 1.0:
        raise DomainError(f"kernel argument {t!r} outside [-1, 1]")
    return t


def kernel_eval(kernel: KernelSpec, t: float) -> ExtReal:
    """Value of the kernel at t in [−1, 1]; limits are used at −1, 0, 1."""
    return as_extreal(scalar_fn(_instance(kernel, KernelSpec, "kernel"))(_check_domain(t)))


def kernel_values(kernel: KernelSpec, u: np.ndarray) -> np.ndarray:
    """Vectorized kernel evaluation; −∞ appears as IEEE -inf in the result."""
    _instance(kernel, KernelSpec, "kernel")
    try:
        u = np.asarray(u, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"kernel arguments must be reals, got {u!r}") from None
    if u.size and not (-1.0 <= u.min() and u.max() <= 1.0):  # False for NaN too
        raise DomainError("kernel argument outside [-1, 1]")
    with np.errstate(divide="ignore"):  # log(0) is −∞
        return kernel._values_unchecked(u)


def kernel_classify(kernel: KernelSpec) -> KernelFlags:
    return _instance(kernel, KernelSpec, "kernel").flags()


def kernel_to_json(kernel: KernelSpec) -> dict:
    return {"variant": kernel.variant, "params": kernel.params()}


# every concrete variant, by name: a kernel the library writes is one it can read
_KERNELS = {k.variant: k for k in (Log, CappedLog, SqrtShift, TentLog, CappedLogPlusQuadratic, Regularized)}


def kernel_from_json(doc: dict) -> KernelSpec:
    """The kernel ``{"variant": …, "params": {…}}`` names; params are its arguments, {} if absent."""
    cls = _tagged(_KERNELS, doc, "variant", "kernel")
    if not doc.keys() <= {"variant", "params"}:
        raise SchemaError(f"unknown key(s) {[k for k in doc if k not in ('variant', 'params')]} for a kernel")
    return _from_document(cls, doc.get("params", {}), kernel_from_json)
