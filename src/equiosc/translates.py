"""Weighted sums of kernel translates and their interval maxima.

For a problem with nodes y and sentinels y_0 = 0, y_{n+1} = 1, the function

    F(y, t) = J(t) + Σ_j r_j K(t − y_j)

is maximized separately over each interval I_j(y) = [y_j, y_{j+1}]. Between
two consecutive nodes every translate stays inside one concavity interval of
the kernel, so on each field piece F is concave whenever the piece is, and
golden-section search applies; jump pieces are handled by splitting at the
field breakpoints and keeping the breakpoints themselves as candidates (usc
maxima may sit exactly on a jump).

Conventions: a degenerate interval has maximum −∞ for singular kernels and
the single-point value otherwise; argmax ties go to the leftmost evaluated
candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, RegularityError
from .extreal import NEG_INFINITY, ExtReal, as_extreal
from .fields import NegInfinityPiece, SingularSegment
from .kernels import scalar_fn
from .problem import NodeSystem, Problem

__all__ = [
    "DifferenceVector",
    "MaximaVector",
    "difference",
    "eval_F",
    "eval_F_grid",
    "eval_f",
    "in_regularity_set",
    "interval_maxima",
    "maximize_on_interval",
]

_NEG_INF = float("-inf")
_XTOL = 1e-12
_NODE_EPS = 1e-13
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class MaximaVector:
    """Per-interval maxima m_0, …, m_n with the attaining locations."""

    m: tuple[ExtReal, ...]
    argmax: tuple[float | None, ...]

    @property
    def m_bar(self) -> float:
        """max_j m_j; finite for every admissible problem."""
        return max(float(v) for v in self.m if not _is_minf(v))

    @property
    def m_under(self) -> ExtReal:
        if any(_is_minf(v) for v in self.m):
            return NEG_INFINITY
        return min(float(v) for v in self.m)

    @property
    def finite(self) -> bool:
        return not any(_is_minf(v) for v in self.m)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(_NEG_INF if _is_minf(v) else float(v) for v in self.m)


@dataclass(frozen=True)
class DifferenceVector:
    """Consecutive interval-maxima differences Φ_j = m_j − m_{j−1}, all finite."""

    phi: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.phi, dtype=float)


def _is_minf(v) -> bool:
    return v is NEG_INFINITY or v == _NEG_INF


# -- scalar evaluation --------------------------------------------------------

def _terms(problem: Problem, ys: tuple[float, ...]):
    return tuple(zip(problem.r, ys[1:-1]))


def _kernel_sum(kf, terms, t: float) -> float:
    s = 0.0
    for r, yj in terms:
        v = kf(t - yj)
        if v == _NEG_INF:
            return _NEG_INF
        s += r * v
    return s


def _with_translates(fval, kf, terms):
    """t ↦ fval(t) + Σ r_j K(t − y_j), −∞ as soon as either part is −∞."""

    def g(t: float) -> float:
        fv = fval(t)
        if fv == _NEG_INF:
            return _NEG_INF
        ks = _kernel_sum(kf, terms, t)
        if ks == _NEG_INF:
            return _NEG_INF
        return fv + ks

    return g


def eval_f(problem: Problem, y, t: float) -> ExtReal:
    """Pure sum of translates Σ r_j K(t − y_j) at t in [0, 1]."""
    ns = problem.node_system(y)
    t = _check_t(t)
    ys = ns.with_sentinels()
    return as_extreal(_kernel_sum(scalar_fn(problem.kernel), _terms(problem, ys), t))


def eval_F(problem: Problem, y, t: float) -> ExtReal:
    """Full field-plus-translates value J(t) + Σ r_j K(t − y_j)."""
    ns = problem.node_system(y)
    t = _check_t(t)
    ys = ns.with_sentinels()
    kf = scalar_fn(problem.kernel)
    return as_extreal(_with_translates(problem.field._value_float, kf, _terms(problem, ys))(t))


def eval_F_grid(problem: Problem, y, ts: np.ndarray) -> np.ndarray:
    """Vectorized F(y, ·) over a grid; −∞ appears as IEEE -inf."""
    ns = problem.node_system(y)
    ts = np.asarray(ts, dtype=float)
    T = ts.ravel()
    rows = _F_rows(problem.kernel, problem.r, ns.as_array()[None, :], T, problem.field.values(T))
    return rows[0].reshape(ts.shape)


def _F_rows(kernel, r, X: np.ndarray, T: np.ndarray, field_T: np.ndarray) -> np.ndarray:
    """field_T + Σ_j r_j K(T − X[i, j]) for each row i of a block of node rows X."""
    acc = np.broadcast_to(field_T, (X.shape[0], T.size)).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, rj in enumerate(r):
            acc += rj * kernel._values_unchecked(T[None, :] - X[:, j : j + 1])
    return acc


def _check_t(t: float) -> float:
    from .errors import DomainError

    t = float(t)
    if math.isnan(t) or t < 0.0 or t > 1.0:
        raise DomainError(f"evaluation point {t!r} outside [0, 1]")
    return t


# -- golden-section maximization ----------------------------------------------

def _golden_max(g, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Maximize a concave (or at least unimodal) g on [lo, hi], interior samples only."""
    a, b = lo, hi
    if b - a <= xtol:
        mid = 0.5 * (a + b)
        return mid, g(mid)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = g(c)
    fd = g(d)
    for _ in range(200):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = g(d)
        if b - a <= xtol:
            break
    if fc >= fd:
        return c, fc
    return d, fd


def _scan_golden(g, lo: float, hi: float, xtol: float, points: int = 64) -> tuple[float, float]:
    """Fallback for non-concave pieces: coarse scan, then golden polish."""
    ts = np.linspace(lo, hi, points)
    vals = [g(float(t)) for t in ts]
    i = max(range(points), key=lambda k: (vals[k], -k))
    a = ts[max(0, i - 1)]
    b = ts[min(points - 1, i + 1)]
    t_star, v_star = _golden_max(g, float(a), float(b), xtol)
    if vals[i] >= v_star:
        return float(ts[i]), vals[i]
    return t_star, v_star


# -- per-interval maxima --------------------------------------------------------

def _maximize(field, kf, terms, lo: float, hi: float, singular: bool, xtol: float = _XTOL):
    """(argmax | None, float max) of field + Σ r_j K(· − y_j) over [lo, hi], lo < hi.

    The interval is cut at the field's interior knots and at every node y_j
    strictly inside it; the cuts and field overrides are point candidates, and
    each piece between cuts is searched by golden section (concave) or a scan
    plus golden polish (not concave). With a singular kernel the search stays
    _NODE_EPS away from a node at either end of a piece.
    """
    nodes = {yj for _, yj in terms}
    inner = {tau for tau in (*field.interior_knots(), *nodes) if lo < tau < hi}
    cuts = [lo, *sorted(inner), hi]

    F = _with_translates(field._value_float, kf, terms)
    point_set = sorted(set(cuts) | {t for t in field.override_points() if lo <= t <= hi})
    candidates = [(tau, F(tau)) for tau in point_set]

    for c, d in zip(cuts, cuts[1:]):
        if d - c <= 4.0 * _NODE_EPS:
            continue
        formula = field.piece_over(c, d).formula
        if isinstance(formula, NegInfinityPiece):
            continue
        a = c + _NODE_EPS if (singular and c in nodes) else c
        b = d - _NODE_EPS if (singular and d in nodes) else d
        g = _with_translates(formula._value, kf, terms)
        if formula.concave:
            candidates.append(_golden_max(g, a, b, xtol))
        else:
            candidates.append(_scan_golden(g, a, b, xtol))

    candidates.sort(key=lambda p: p[0])
    best_t: float | None = None
    best_v = _NEG_INF
    for t, v in candidates:
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


def _interval_max(problem: Problem, ys: tuple[float, ...], j: int, xtol: float = _XTOL):
    """(argmax | None, float max) of F(y, ·) over [ys[j], ys[j+1]]."""
    kf = scalar_fn(problem.kernel)
    terms = _terms(problem, ys)
    lo, hi = ys[j], ys[j + 1]
    singular = problem.kernel.flags().singular
    if hi > lo:
        return _maximize(problem.field, kf, terms, lo, hi, singular, xtol)
    if singular:
        return None, _NEG_INF
    v = _with_translates(problem.field._value_float, kf, terms)(lo)
    return (lo if v > _NEG_INF else None), v


def _maxima_floats(problem: Problem, ys: tuple[float, ...], xtol: float = _XTOL):
    vals = []
    args = []
    for j in range(problem.n + 1):
        t, v = _interval_max(problem, ys, j, xtol)
        vals.append(v)
        args.append(t)
    return vals, args


def interval_maxima(problem: Problem, y, xtol: float = _XTOL) -> MaximaVector:
    """Maxima of F(y, ·) over all n+1 node intervals, with locations."""
    ns = problem.node_system(y)
    vals, args = _maxima_floats(problem, ns.with_sentinels(), xtol)
    return MaximaVector(
        tuple(NEG_INFINITY if v == _NEG_INF else v for v in vals),
        tuple(args),
    )


def maximize_on_interval(problem: Problem, y, j: int, xtol: float = _XTOL):
    """(t*, max) of F(y, ·) on the j-th node interval, 0 ≤ j ≤ n."""
    ns = problem.node_system(y)
    if not 0 <= j <= problem.n:
        raise PreconditionError(f"interval index {j} outside 0..{problem.n}")
    t, v = _interval_max(problem, ns.with_sentinels(), j, xtol)
    return t, as_extreal(v)


# -- regularity and the difference map ----------------------------------------

def _rint_inside_segment(lo: float, hi: float, j: int, n: int, seg: SingularSegment) -> bool:
    """Is the relative interior of [lo, hi] (w.r.t. [0, 1]) inside the segment?

    rint I_0 = [0, y_1) and rint I_n = (y_n, 1] keep the outer endpoints, so
    those cases additionally require the endpoint to belong to the segment.
    """
    if not (seg.lo <= lo and hi <= seg.hi):
        return False
    if j == 0 and not (seg.lo == 0.0 and seg.lo_closed):
        return False
    if j == n and not (seg.hi == 1.0 and seg.hi_closed):
        return False
    return True


def in_regularity_set(problem: Problem, y) -> bool:
    """Strict node system whose interval interiors all escape the field's −∞ set."""
    if not problem.kernel.flags().singular:
        raise PreconditionError(
            "the regularity-set characterization applies to singular kernels only"
        )
    ns = problem.node_system(y)
    if not ns.strict():
        return False
    segments = problem.field.singular_segments()
    if not segments:
        return True
    ys = ns.with_sentinels()
    n = problem.n
    for j in range(n + 1):
        lo, hi = ys[j], ys[j + 1]
        if any(_rint_inside_segment(lo, hi, j, n, seg) for seg in segments):
            return False
    return True


def difference(problem: Problem, y, xtol: float = _XTOL) -> DifferenceVector:
    """Φ(y) = (m_1 − m_0, …, m_n − m_{n−1}); requires all maxima finite."""
    ns = problem.node_system(y)
    if problem.kernel.flags().singular:
        if not in_regularity_set(problem, ns):
            raise RegularityError("node system outside the regularity set")
    elif not ns.strict():
        raise RegularityError("node system must lie in the open simplex")
    vals, _ = _maxima_floats(problem, ns.with_sentinels(), xtol)
    if any(v == _NEG_INF for v in vals):
        raise RegularityError("some interval maximum is −∞; node system is singular")
    return DifferenceVector(tuple(vals[j] - vals[j - 1] for j in range(1, problem.n + 1)))
