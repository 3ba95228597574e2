"""Weighted sums of kernel translates and their interval maxima.

For a problem with nodes y and sentinels y_0 = 0, y_{n+1} = 1, the function

    F(y, t) = J(t) + Σ_j r_j K(t − y_j)

is maximized separately over each interval I_j(y) = [y_j, y_{j+1}]. Between
two consecutive nodes every translate stays inside one concavity interval of
the kernel, so on each field piece F is concave whenever the piece is. The
interval is cut at the field breakpoints and at the kernel kinks y_j ± κ, and
the cut points are candidates themselves (usc maxima may sit exactly on a
jump, and a maximum on a kink is then evaluated exactly). On each concave
piece an end where F does not rise inward is the maximum by concavity;
otherwise Brent's method searches the piece. Values are accurate to rounding
on smooth pieces, argmax locations to about √ε·|t|.

The grid oracle needs only the values, for whole lattices of node systems:
:func:`_maxima_batch` runs the same cuts and end checks for many node systems
at once in numpy, with a lockstep golden-section search in place of Brent's.

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

_XTOL = 1e-12
_NODE_EPS = 1e-13
_INF = float("inf")
_SQRT_EPS = math.sqrt(math.ulp(1.0))
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section fraction 1 − 1/φ


@dataclass(frozen=True)
class MaximaVector:
    """Per-interval maxima m_0, …, m_n with the attaining locations."""

    m: tuple[ExtReal, ...]
    argmax: tuple[float | None, ...]

    @property
    def m_bar(self) -> float:
        """max_j m_j; finite for every admissible problem."""
        return max(v for v in self.m if v > NEG_INFINITY)

    @property
    def m_under(self) -> ExtReal:
        return min(self.m)

    @property
    def finite(self) -> bool:
        return NEG_INFINITY not in self.m

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.m)


@dataclass(frozen=True)
class DifferenceVector:
    """Consecutive interval-maxima differences Φ_j = m_j − m_{j−1}, all finite."""

    phi: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.phi, dtype=float)


# -- scalar evaluation --------------------------------------------------------

def _terms(problem: Problem, ys: tuple[float, ...]):
    return tuple(zip(problem.r, ys[1:-1]))


def _kernel_sum(kf, terms, t: float) -> float:
    s = 0.0
    for r, yj in terms:
        v = kf(t - yj)
        if v == NEG_INFINITY:
            return NEG_INFINITY
        s += r * v
    return s


def _with_translates(fval, kf, terms):
    """t ↦ fval(t) + Σ r_j K(t − y_j), −∞ as soon as either part is −∞."""

    def g(t: float) -> float:
        fv = fval(t)
        if fv == NEG_INFINITY:
            return NEG_INFINITY
        ks = _kernel_sum(kf, terms, t)
        if ks == NEG_INFINITY:
            return NEG_INFINITY
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
    acc = problem.field.values(ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rj, yj in zip(problem.r, ns.nodes):
            acc += rj * problem.kernel._values_unchecked(ts - yj)
    return acc


def _check_t(t: float) -> float:
    from .errors import DomainError

    t = float(t)
    if math.isnan(t) or t < 0.0 or t > 1.0:
        raise DomainError(f"evaluation point {t!r} outside [0, 1]")
    return t


# -- Brent maximization on concave pieces --------------------------------------

def _brent_max(g, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Maximize a concave (or at least unimodal) g on [lo, hi], interior samples only.

    Brent's method (Brent 1973, ch. 5): parabolic steps through the three best
    points, guarded by golden-section steps, until the bracket around the best
    point x is at most 4·tol wide, tol = √ε·min(|x|, hi − lo) + xtol/3. The
    width bound matters on narrow pieces between two singular nodes, where the
    curvature grows like 1/width² and √ε·|x| alone would leave the value far
    from rounding. Values are negated so the updates read as in the
    minimization form; −∞ samples force golden steps.
    """
    a, b = lo, hi
    width = b - a
    if width <= xtol:
        mid = 0.5 * (a + b)
        return mid, g(mid)
    x = w = v = a + _CGOLD * width
    fx = fw = fv = -g(x)
    d = e = 0.0
    for _ in range(200):
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * min(abs(x), width) + xtol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        # fx <= fw <= fv, so a finite fv means all three points are finite
        if abs(e) > tol1 and fv < _INF:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x < xm else -tol1
                golden = False
        if golden:
            e = (b - x) if x < xm else (a - x)
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else (x + tol1 if d > 0.0 else x - tol1)
        fu = -g(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, -fx


def _concave_max(g, a: float, b: float, xtol: float, ga: float | None, gb: float | None):
    """Maximize a concave g on [a, b]: an end where g does not rise inward, else Brent.

    ``ga`` and ``gb`` are g(a) and g(b), or None for an end not to check: at a
    node of a singular kernel g always rises inward. If g(b − h) ≤ g(b) with
    g(b) finite, concavity puts the maximum at b, and likewise at a;
    h = max(xtol, √ε·(b − a)).
    """
    h = max(xtol, _SQRT_EPS * (b - a))
    if b - a > 2.0 * h:
        if ga is not None and ga > NEG_INFINITY and g(a + h) <= ga:
            return a, ga
        if gb is not None and gb > NEG_INFINITY and g(b - h) <= gb:
            return b, gb
    return _brent_max(g, a, b, xtol)


def _scan_max(g, lo: float, hi: float, xtol: float, points: int = 64) -> tuple[float, float]:
    """Fallback for non-concave pieces: coarse scan, then a Brent polish."""
    ts = np.linspace(lo, hi, points)
    vals = [g(float(t)) for t in ts]
    i = max(range(points), key=lambda k: (vals[k], -k))
    a = ts[max(0, i - 1)]
    b = ts[min(points - 1, i + 1)]
    t_star, v_star = _brent_max(g, float(a), float(b), xtol)
    if vals[i] >= v_star:
        return float(ts[i]), vals[i]
    return t_star, v_star


# -- per-interval maxima --------------------------------------------------------

def _maximize(field, kf, terms, lo: float, hi: float, singular: bool, xtol: float = _XTOL, kinks=()):
    """(argmax | None, float max) of field + Σ r_j K(· − y_j) over [lo, hi], lo < hi.

    The interval is cut at the field's interior knots, at every node y_j
    strictly inside it, and at the kernel kinks y_j ± κ (κ in ``kinks``) inside
    it; the cuts and field overrides are point candidates, and each piece
    between cuts is searched by :func:`_concave_max` (concave) or a scan plus
    Brent polish (not concave). With a singular kernel the search stays
    _NODE_EPS away from a node at either end of a piece.
    """
    nodes = {yj for _, yj in terms}
    kink_cuts = [yj + s for yj in nodes for k in kinks for s in (k, -k)]
    inner = {tau for tau in (*field.interior_knots(), *nodes, *kink_cuts) if lo < tau < hi}
    cuts = [lo, *sorted(inner), hi]

    # a cut is a candidate and the end of up to two pieces: its kernel sum is
    # computed once for all three, only the field part differs
    sums: dict[float, float] = {}

    def at_cut(fval, tau: float) -> float:
        fv = fval(tau)
        if fv == NEG_INFINITY:
            return NEG_INFINITY
        ks = sums.get(tau)
        if ks is None:
            ks = sums[tau] = _kernel_sum(kf, terms, tau)
        return NEG_INFINITY if ks == NEG_INFINITY else fv + ks

    point_set = sorted(set(cuts) | {t for t in field.override_points() if lo <= t <= hi})
    candidates = [(tau, at_cut(field._value_float, tau)) for tau in point_set]

    for c, d in zip(cuts, cuts[1:]):
        if d - c <= 4.0 * _NODE_EPS:
            continue
        formula = field.piece_over(c, d).formula
        if isinstance(formula, NegInfinityPiece):
            continue
        at_node_c = singular and c in nodes
        at_node_d = singular and d in nodes
        a = c + _NODE_EPS if at_node_c else c
        b = d - _NODE_EPS if at_node_d else d
        g = _with_translates(formula._value, kf, terms)
        if formula.concave:
            ga = None if at_node_c else at_cut(formula._value, c)
            gb = None if at_node_d else at_cut(formula._value, d)
            candidates.append(_concave_max(g, a, b, xtol, ga, gb))
        else:
            candidates.append(_scan_max(g, a, b, xtol))

    candidates.sort(key=lambda p: p[0])
    best_t: float | None = None
    best_v = NEG_INFINITY
    for t, v in candidates:
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


def _interval_max(problem: Problem, ys: tuple[float, ...], j: int, xtol: float = _XTOL):
    """(argmax | None, float max) of F(y, ·) over [ys[j], ys[j+1]]."""
    kernel = problem.kernel
    kf = scalar_fn(kernel)
    terms = _terms(problem, ys)
    lo, hi = ys[j], ys[j + 1]
    singular = kernel.flags().singular
    if hi > lo:
        return _maximize(problem.field, kf, terms, lo, hi, singular, xtol, kernel._kinks)
    if singular:
        return None, NEG_INFINITY
    v = _with_translates(problem.field._value_float, kf, terms)(lo)
    return (lo if v > NEG_INFINITY else None), v


def _maxima_floats(problem: Problem, ys: tuple[float, ...], xtol: float = _XTOL):
    vals = []
    args = []
    for j in range(problem.n + 1):
        t, v = _interval_max(problem, ys, j, xtol)
        vals.append(v)
        args.append(t)
    return vals, args


# -- batched interval maxima (grid oracle) --------------------------------------

_INVPHI = 1.0 - _CGOLD  # 1/φ
_SCAN_POINTS = 64  # samples per non-concave piece, as in _scan_max


def _sums_batch(formula_values, r, kernel, T: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """formula_values(T) + Σ_k r_k K(T − y_k), each row of T with the node row beside it.

    ``nodes`` is (rows, n) and T is (rows,) or (rows, m). The translates add
    up in the scalar order; a −∞ part gives −∞ (no +∞ occurs on [0, 1]).
    """
    ks = np.zeros(T.shape)
    for k, rk in enumerate(r):
        yk = nodes[:, k] if T.ndim == 1 else nodes[:, k, None]
        ks += rk * kernel._values_unchecked(T - yk)
    return formula_values(T) + ks


def _golden_batch(g, a: np.ndarray, b: np.ndarray, nodes: np.ndarray, xtol: float) -> np.ndarray:
    """Lockstep golden-section maxima of g(·, node row) on each [a_i, b_i].

    A lane stops where :func:`_brent_max` would: once its bracket is at most
    4·tol wide, tol = √ε·min(|x|, b₀ − a₀) + xtol/3 at its best point x, or
    after 200 steps. A lane no wider than xtol takes its midpoint value. The
    better of the two interior points is the best sample, as in Brent's x.
    """
    out = np.empty(a.shape)
    w0 = b - a
    tiny = w0 <= xtol
    if tiny.any():
        out[tiny] = g(0.5 * (a[tiny] + b[tiny]), nodes[tiny])
    idx = np.flatnonzero(~tiny)
    if not idx.size:
        return out
    a, b, w0, nodes = a[idx], b[idx], w0[idx], nodes[idx]
    c = b - _INVPHI * w0
    d = a + _INVPHI * w0
    fcd = g(np.concatenate([c, d]), np.concatenate([nodes, nodes]))
    fc, fd = fcd[: idx.size], fcd[idx.size :]
    for _ in range(200):
        left = fc >= fd  # the maximum lies in [a, d]
        x = np.where(left, c, d)
        fx = np.where(left, fc, fd)
        done = b - a <= 4.0 * (_SQRT_EPS * np.minimum(np.abs(x), w0) + xtol / 3.0)
        if done.any():
            out[idx[done]] = fx[done]
            go = ~done
            idx, a, b, c, d, fc, fd, w0, nodes, left, x, fx = (
                v[go] for v in (idx, a, b, c, d, fc, fd, w0, nodes, left, x, fx)
            )
            if not idx.size:
                return out
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        t = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        ft = g(t, nodes)
        c, fc, d, fd = (
            np.where(left, t, x), np.where(left, ft, fx), np.where(left, x, t), np.where(left, fx, ft)
        )
    out[idx] = np.maximum(fc, fd)
    return out


def _maxima_batch(problem: Problem, Y: np.ndarray, xtol: float = _XTOL) -> np.ndarray:
    """(cells, n + 1) interval maxima of F(y, ·) for each row y of nondecreasing nodes Y.

    The values of :func:`_maxima_floats` row by row, computed for all rows at
    once: the same cuts, usc point candidates, concavity end checks and
    _NODE_EPS offsets at the nodes of a singular kernel. Every piece that
    passes no end check is searched by one lockstep golden-section search
    (:func:`_golden_batch`) instead of Brent's method, every non-concave one
    by the 64-point scan plus a lockstep polish, so values agree with the
    scalar path to rounding. No argmax is computed.
    """
    field, kernel, n = problem.field, problem.kernel, problem.n
    r = problem.r
    singular = kernel.flags().singular
    Y = np.asarray(Y, dtype=float)
    cells = Y.shape[0]
    ys = np.hstack([np.zeros((cells, 1)), Y, np.ones((cells, 1))])
    lo, hi = ys[:, :-1].ravel(), ys[:, 1:].ravel()  # interval j of cell i is row i·(n+1) + j
    j = np.tile(np.arange(n + 1), cells)
    nodes = np.repeat(Y, n + 1, axis=0)
    rows = lo.size

    with np.errstate(divide="ignore"):
        # cuts: the ends, the field's interior knots and the kernel kinks strictly
        # inside; a cut outside is replaced by hi, where it makes an empty segment
        kinks = [nodes + s * kappa for kappa in kernel._kinks for s in (1.0, -1.0)]
        inner = np.hstack([np.broadcast_to(field.interior_knots(), (rows, len(field.pieces) - 1)), *kinks])
        inner = np.where((inner > lo[:, None]) & (inner < hi[:, None]), inner, hi[:, None])
        cuts = np.sort(np.hstack([lo[:, None], inner, hi[:, None]]), axis=1)

        # point candidates: every cut and every override in [lo, hi], usc values
        overrides = np.asarray(field.override_points(), dtype=float)[None, :]
        overrides = np.where((overrides >= lo[:, None]) & (overrides <= hi[:, None]), overrides, lo[:, None])
        best = _sums_batch(field.values, r, kernel, np.hstack([cuts, overrides]), nodes).max(axis=1)

        c, d = cuts[:, :-1], cuts[:, 1:]
        seg_row, seg_col = np.nonzero(d - c > 4.0 * _NODE_EPS)
        c, d = c[seg_row, seg_col], d[seg_row, seg_col]
        piece = np.maximum(np.searchsorted(field.knots(), 0.5 * (c + d)) - 1, 0)
        for p in np.unique(piece):
            formula = field.pieces[p].formula
            if isinstance(formula, NegInfinityPiece):
                continue
            sel = piece == p
            row, cs, ds = seg_row[sel], c[sel], d[sel]
            seg_nodes = nodes[row]
            # a segment end at lo (j ≥ 1) or at hi (j < n) is a node; no other cut is
            at_c = singular & (cs == lo[row]) & (j[row] >= 1)
            at_d = singular & (ds == hi[row]) & (j[row] < n)
            a = np.where(at_c, cs + _NODE_EPS, cs)
            b = np.where(at_d, ds - _NODE_EPS, ds)

            def g(T, nd, fv=formula._values):
                return _sums_batch(fv, r, kernel, T, nd)

            if formula.concave:
                h = np.maximum(xtol, _SQRT_EPS * (b - a))
                ends = g(np.stack([cs, np.minimum(a + h, b), ds, np.maximum(b - h, a)], axis=1), seg_nodes)
                wide = b - a > 2.0 * h
                # an end where g does not rise inward is the piece maximum, and no
                # more than the point candidate there: only the others are searched
                settled = wide & ~at_c & (ends[:, 0] > NEG_INFINITY) & (ends[:, 1] <= ends[:, 0])
                settled |= wide & ~at_d & (ends[:, 2] > NEG_INFINITY) & (ends[:, 3] <= ends[:, 2])
                search = ~settled
                vals = _golden_batch(g, a[search], b[search], seg_nodes[search], xtol)
                row = row[search]
            else:
                ts = np.linspace(a, b, _SCAN_POINTS, axis=1)
                samples = g(ts, seg_nodes)
                i = np.argmax(samples, axis=1)  # first of equal maxima, as _scan_max
                lanes = np.arange(i.size)
                lo_t = ts[lanes, np.maximum(i - 1, 0)]
                hi_t = ts[lanes, np.minimum(i + 1, _SCAN_POINTS - 1)]
                vals = np.maximum(samples[lanes, i], _golden_batch(g, lo_t, hi_t, seg_nodes, xtol))
            np.maximum.at(best, row, vals)

    if singular:
        best[lo == hi] = NEG_INFINITY
    return best.reshape(cells, n + 1)


def interval_maxima(problem: Problem, y, xtol: float = _XTOL) -> MaximaVector:
    """Maxima of F(y, ·) over all n+1 node intervals, with locations."""
    ns = problem.node_system(y)
    vals, args = _maxima_floats(problem, ns.with_sentinels(), xtol)
    return MaximaVector(tuple(vals), tuple(args))


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
    if any(v == NEG_INFINITY for v in vals):
        raise RegularityError("some interval maximum is −∞; node system is singular")
    return DifferenceVector(tuple(vals[j] - vals[j - 1] for j in range(1, problem.n + 1)))
