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
otherwise :func:`_slope_max` finds where the decreasing slope F′ changes
sign: Newton steps on F′ (the kernel's compiled slope sum plus the field
formula's derivatives) kept inside a bracket, with bisection as their guard.
It stops only once the bracket around the sign change is narrow, never on a
small step alone, and computes one value, at the Newton point of the bracket
end nearer the root. Values are accurate to rounding on smooth pieces, and
so are argmax locations, measured. A piece at most 64 float spacings wide
(two nodes a few floats apart) is read float by float instead, exactly.
A non-concave piece is scanned at 64 points, and the same slope search
polishes its best sample between that sample's neighbours: it needs only the
sign of F′, so it finds a local maximum there on any smooth piece. One at
most 64 float spacings wide is read float by float once, its ends included.
A node end of a piece needs no rule of its own: under a singular kernel F
is −∞ there, and it is not evaluated. The end values of every piece come
from the cut values, which skip the nodes, so no end check settles a node
end and a scan's end sample there loses; the slope search evaluates F′ only
strictly inside the piece.

Every scalar caller takes its interval maxima from :func:`_maxima`, with
the same fixed tolerances: a maxima vector, a single interval maximum (the
solver's difference quotients) and the union and extremal-product
norms of ``applications``. One call does each piece of work once for all
its intervals. It compiles the kernel sum t ↦ Σ r_j K(t − y_j)
(``KernelSpec._build_sum``, the one scalar kernel-sum routine) and the slope
sum t ↦ (Σ r_j K′(t − y_j), Σ r_j K″(t − y_j))
(``KernelSpec._build_slope_sum``), and sorts the cut points of all its
intervals once (the field keeps its override points sorted); each interval
takes those strictly inside it by bisection. Each cut's kernel sum is
computed once per call (an interior node ends two intervals), and each
field piece's closures g and (g′, g″) are built once per call, up front.
An interior cut's point candidate is the larger of its two adjacent
pieces' end values, which is the usc value there and which the end checks
need anyway. The argmax is a running leftmost maximum over the candidates
and the pieces' maxima, with no candidate list. A call may carry a start
point per interval for its slope searches: the solver maps each argmax of
the current Newton iterate into the same interval of a trial vector, where
the new maximum is close, so a search there closes its bracket in about two
slope evaluations. A start outside a piece is replaced by its midpoint, and
without starts every value and argmax is the same to the bit.

The grid oracle needs only the values, for whole lattices of node systems:
:func:`_maxima_batch` runs the same cuts and end checks for many node systems
at once in numpy, with a lockstep bracket search in place of the slope
search: each step samples every searched piece at seven interior points in
one evaluation and keeps the quarter of its bracket around the best sample,
until the bracket is narrow for its width and place (samples under half a
float apart on a piece a few floats wide). It takes every piece, however
narrow. Its set-up follows the structure present (cut columns only for the
knots and kinks there are, piece lookup only on a field of several pieces),
and it skips the nodes of a singular kernel as the scalar path does: point
candidates, end checks and scan ends are never evaluated there. Its kernel
sums go through :func:`_sums_batch` and ``KernelSpec._sum_batch``, where
``Log`` takes one log per run of equal exponents, the rule of its scalar
sum. The two paths agree within 2.4e-14·max(1, |m|), measured on 50,540
maxima of 720 random problems (six kernels, three fields, half the node
systems with a gap 1e-15 to 1e-2 wide): within 5.2e-16 on the 4,220
intervals narrower than 1e-5, and the rest on wide pieces, where the stop
leaves a value short by rounding.
Concavity also bounds each concave piece's maximum from above at every
step, so a scan for the best node system stops the searches of the cells
that cannot win: their values are bounds, and only the cells that can win
get exact values.

Conventions: a degenerate interval [y_j, y_j] is a node (two equal nodes,
or a node at 0 or 1), so it needs no rule of its own: its maximum is F
there, −∞ under a singular kernel. Argmax ties go to the leftmost evaluated
candidate. Regularity has one rule (:func:`_regular_maxima`): strict, and
every interval maximum finite.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DomainError, PreconditionError, RegularityError
from .extreal import NEG_INFINITY, ExtReal, _count, _real, as_extreal
from .fields import NegInfinityPiece
from .kernels import scalar_fn
from .problem import Problem, _checked

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
_INF = float("inf")
_EPS = math.ulp(1.0)
_SQRT_EPS = math.sqrt(_EPS)
_SCAN_POINTS = 64  # samples per non-concave piece, scalar and batched
_TIE = 1e-9  # two maxima this close tie: the one slack of the sandwich and the intertwining checks


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


def _with_translates(fval, ksum):
    """t ↦ fval(t) + ksum(t), −∞ as soon as either part is −∞; ksum from ``KernelSpec._build_sum``."""

    def g(t: float) -> float:
        fv = fval(t)
        if fv == NEG_INFINITY:
            return NEG_INFINITY
        ks = ksum(t)
        if ks == NEG_INFINITY:
            return NEG_INFINITY
        return fv + ks

    return g


def eval_f(problem: Problem, y, t: float) -> ExtReal:
    """Pure sum of translates Σ r_j K(t − y_j) at t in [0, 1]."""
    ns = _checked(problem).node_system(y)
    t = _check_t(t)
    ys = ns.with_sentinels()
    return as_extreal(problem.kernel._build_sum(_terms(problem, ys))(t))


def eval_F(problem: Problem, y, t: float) -> ExtReal:
    """Full field-plus-translates value J(t) + Σ r_j K(t − y_j)."""
    ns = _checked(problem).node_system(y)
    t = _check_t(t)
    ys = ns.with_sentinels()
    ksum = problem.kernel._build_sum(_terms(problem, ys))
    return as_extreal(_with_translates(problem.field._value_float, ksum)(t))


def eval_F_grid(problem: Problem, y, ts: np.ndarray) -> np.ndarray:
    """Vectorized F(y, ·) over a grid, by :func:`_sums_batch`; −∞ appears as IEEE -inf."""
    nodes = _checked(problem).node_system(y).as_array()[None]
    try:
        ts = np.asarray(ts, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"evaluation points must be reals, got {ts!r}") from None
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _sums_batch(problem.field.values, problem.r, problem.kernel, ts.reshape(1, -1), nodes)
    return vals.reshape(ts.shape)


def _check_t(t: float) -> float:
    t = _real(t, "evaluation point", DomainError)
    if t < 0.0 or t > 1.0:
        raise DomainError(f"evaluation point {t!r} outside [0, 1]")
    return t


# -- maximization on a piece ----------------------------------------------------

def _with_slopes(formula, kslope):
    """t ↦ (g′(t), g″(t)) of g = formula + Σ r_j K(· − y_j), ``kslope`` from ``KernelSpec._build_slope_sum``."""
    fslope = formula._derivatives

    def dg(t: float) -> tuple[float, float]:
        f1, f2 = fslope(t)
        s1, s2 = kslope(t)
        return f1 + s1, f2 + s2

    return dg


def _few_floats(a: float, b: float) -> bool:
    """Whether [a, b] is at most _SCAN_POINTS float spacings wide, counted at its end nearer 0."""
    return b - a <= _SCAN_POINTS * math.ulp(min(abs(a), abs(b)))


def _slope_max(g, dg, a: float, b: float, start: float | None = None) -> tuple[float, float]:
    """(t, g(t)) at a maximum of g on [a, b] where g′ falls through zero; interior points only.

    A safeguarded Newton search for the sign change of g′ ("rtsafe", Press et
    al., *Numerical Recipes*, §9.4). ``dg`` gives (g′, g″); the sign of g′
    at each point moves one end of a bracket [lo, hi] from [a, b]. It needs
    only that sign, so it serves both a concave piece, whose slope
    decreases, and the polish of a non-concave one around its best scan
    sample (:func:`_scan_max`): every point it moves to becomes a lo with
    g′ > 0 or a hi with g′ < 0, so the bracket closes on a local maximum, or
    on an end of [a, b] where g′ keeps one sign. A Newton point is taken
    only where g″ < 0; a convex stretch is bisected. The first
    point is ``start`` if it lies inside (a, b), else the midpoint; a start
    near the root, such as the last Newton iterate's argmax moved with its
    interval, closes the bracket in about two slope evaluations. The next
    point is the Newton point x − g′/g″ if it lies in the bracket and its
    step is at most half the step before last, else the bracket's midpoint.

    A piece at most _SCAN_POINTS float spacings wide, counted at its end
    nearer 0 (where the spacing is least), is read float by float instead:
    the best float strictly inside (the first of equal ones) is the result,
    exactly, or (a, −∞) with none inside; the ends are the caller's
    candidates. That reads fewer than _SCAN_POINTS values.

    Every slope it evaluates is strictly inside (a, b), so an end may be a
    node of a singular kernel, where g′ is infinite: a Newton point on an
    end of [a, b] is replaced by the bracket's midpoint, and a final point
    there by the float next to it inside.

    Stop rule: the bracket is at most 2·tol wide, tol = √ε·min(|x|, b − a)
    + 2ε·|x| + ε²·(b − a): the value's error is quadratic in the distance to
    the maximum, 2ε·|x| is two float spacings at x, and ε²·(b − a) keeps tol
    positive at x = 0. A small step alone does not stop the search: beside a
    node g′ ≈ r/(t − y), so the Newton step is the distance to the node,
    however far the root is. A Newton step of at most tol goes on past its
    point by tol instead, and the sign there (or the bracket's end) closes
    the bracket. The result is the Newton point of the bracket end nearer
    the root (else the bracket's midpoint), whose error is quadratic in that
    end's, so a piece narrower than any fixed tolerance, as between two
    nodes 1e-14 apart, is searched to rounding too. One value is computed,
    at the end; where g′ = 0 the search stops at once.
    """
    width = b - a
    if _few_floats(a, b):  # read each float inside
        best, x = (a, NEG_INFINITY), math.nextafter(a, b)
        while x < b:
            v = g(x)
            best = (x, v) if v > best[1] else best
            x = math.nextafter(x, b)
        return best
    lo, hi = a, b
    lo_step = hi_step = _INF  # the Newton step lengths from the bracket's ends (from a or b: none)
    tiny = _EPS * _EPS * width
    x = start if start is not None and a < start < b else 0.5 * (a + b)
    last = prev = width  # the last two step lengths
    for _ in range(200):
        d1, d2 = dg(x)
        if d1 > 0.0:
            lo = x
            size = lo_step = -d1 / d2 if d2 < 0.0 else _INF
            xn = x + size
        elif d1 < 0.0:
            hi = x
            size = hi_step = d1 / d2 if d2 < 0.0 else _INF
            xn = x - size
        else:  # a stationary point (or a NaN slope): nothing to search
            return x, g(x)
        ax = x if x > 0.0 else -x
        tol = _SQRT_EPS * (ax if ax < width else width) + 2.0 * _EPS * ax + tiny
        if hi - lo <= 2.0 * tol:
            break
        # xn may round back to x: the root is then within half an ulp of x
        if not lo <= xn <= hi or xn == a or xn == b or size > 0.5 * prev:
            xn = 0.5 * (lo + hi)
            size = xn - x if xn > x else x - xn
        elif size <= tol:
            xc = xn + tol if d1 > 0.0 else xn - tol
            if not lo < xc < hi:  # the bracket's end past the Newton point confirms it
                break
            xn = xc
        prev, last = last, size
        x = xn
    x = lo + lo_step if lo_step <= hi_step else hi - hi_step
    if not lo <= x <= hi:
        x = 0.5 * (lo + hi)
    if x == a or x == b:  # the midpoint of a one-ulp bracket may round onto an end
        x = math.nextafter(x, 0.5 * (a + b))
    return x, g(x)


def _concave_max(g, a: float, b: float, ga: float, gb: float, dg, start: float | None = None):
    """Maximize a concave g on [a, b]: an end where g does not rise inward, else :func:`_slope_max` from ``start``.

    ``ga`` and ``gb`` are g(a) and g(b); an end where g is −∞ is not checked
    (at a node of a singular kernel g always rises inward). If g(b − h) ≤ g(b)
    with g(b) finite, concavity puts the maximum at b, and likewise at a;
    h = max(_XTOL, √ε·(b − a)). ``dg`` is g's slope closure
    t ↦ (g′(t), g″(t)), called only when no end check settles the piece.
    """
    h = _SQRT_EPS * (b - a)
    if h < _XTOL:
        h = _XTOL
    if b - a > 2.0 * h:
        if ga > NEG_INFINITY and g(a + h) <= ga:
            return a, ga
        if gb > NEG_INFINITY and g(b - h) <= gb:
            return b, gb
    return _slope_max(g, dg, a, b, start)


def _scan_max(g, dg, lo: float, hi: float, glo: float, ghi: float) -> tuple[float, float]:
    """Maximize a piece that is not concave: a 64-point scan, polished by :func:`_slope_max`.

    ``glo`` and ``ghi`` are g(lo) and g(hi), the scan's end samples, so an
    end at a node of a singular kernel is −∞ without an evaluation. The
    polish searches the two spacings around the best sample (the first
    of equal ones), from that sample; the better of the sample and the
    search is the result. A best sample at an end of the piece is the
    result without a polish where g falls from it into the piece, by the
    sign of g′ at the next float inside. ``dg`` is g's slope closure
    t ↦ (g′(t), g″(t)).

    A piece at most _SCAN_POINTS float spacings wide, by :func:`_slope_max`'s
    rule, is read float by float once instead: its ends, and the floats
    inside by :func:`_slope_max`; the best float (the first of equal ones)
    is the result, exactly.
    """
    if _few_floats(lo, hi):
        best = lo, glo
        for t, v in (_slope_max(g, dg, lo, hi), (hi, ghi)):
            if v > best[1]:
                best = t, v
        return best
    ts = np.linspace(lo, hi, _SCAN_POINTS)  # ts[0] = lo and ts[-1] = hi exactly
    vals = [glo, *(g(float(t)) for t in ts[1:-1]), ghi]
    i = max(range(_SCAN_POINTS), key=lambda k: (vals[k], -k))
    if i == 0 or i == _SCAN_POINTS - 1:  # an end sample: g falling from it into the piece settles it
        end = float(ts[i])
        inside = math.nextafter(end, 0.5 * (lo + hi))
        if lo < inside < hi and (inside - end) * dg(inside)[0] < 0.0:
            return end, vals[i]
    a = ts[max(0, i - 1)]
    b = ts[min(_SCAN_POINTS - 1, i + 1)]
    t_star, v_star = _slope_max(g, dg, float(a), float(b), float(ts[i]))
    if vals[i] >= v_star:
        return float(ts[i]), vals[i]
    return t_star, v_star


# -- per-interval maxima --------------------------------------------------------

def _maximize(lo: float, hi: float, start: float | None, setup):
    """(argmax | None, float max) of field + Σ r_j K(· − y_j) over [lo, hi], lo < hi.

    ``setup`` is what :func:`_maxima` builds once per call and shares among
    its intervals: (field, sorted cut points, sorted overrides, field knots,
    ``at``, ``pieces``). ``at(fval, τ)`` is F at a cut τ with field part
    fval(τ), its kernel sum computed once per call; ``pieces[p]`` is field
    piece p's (value, concave, g, dg), its closures built once per call
    (g None on a −∞ piece).

    The interval is cut at the field's interior knots, at every node y_j
    strictly inside it, and at the kernel kinks y_j ± κ inside it; the
    pieces between cuts follow the field's knots in order. The cuts and the
    field overrides are point candidates. An interior cut's value is the
    larger of its two adjacent pieces' end values, its usc value, which the
    end checks need anyway; only the interval ends and the overrides take
    the field's usc value. Each piece is searched by :func:`_concave_max`
    (concave: end checks, then the slope search, from ``start`` if it lies
    inside the piece) or :func:`_scan_max` (not concave: a scan, then the
    slope search around its best sample), over the whole piece: at a node
    end g is −∞ and the slope search stays strictly inside, so a narrow
    interval between two nodes keeps its finite maximum. The argmax is the
    leftmost of the largest candidates, kept as a running maximum.
    """
    field, points, overrides, knots, at, pieces = setup
    best_t, best_v = lo, NEG_INFINITY  # best_t is read only once best_v is finite
    v = at(field._value_float, lo)
    if v > best_v:
        best_v = v
    for tau in overrides[bisect_right(overrides, lo):bisect_left(overrides, hi)]:
        v = at(field._value_float, tau)
        if v > best_v or v == best_v and tau < best_t:
            best_t, best_v = tau, v

    p = bisect_right(knots, lo) - 1  # the field piece of the first segment
    fval, concave, g, dg = pieces[p]
    c, gc = lo, at(fval, lo)
    for d in (*points[bisect_right(points, lo):bisect_left(points, hi)], hi):
        gd = at(fval, d)
        if g is not None:
            t, v = _concave_max(g, c, d, gc, gd, dg, start) if concave else _scan_max(g, dg, c, d, gc, gd)
            if v > best_v or v == best_v and t < best_t:
                best_t, best_v = t, v
        if d == hi:
            v = at(field._value_float, hi)
            if v > best_v:
                best_t, best_v = hi, v
            break
        # an interior cut: a knot starts the next piece, and its usc value is
        # the larger of the two pieces' end values; elsewhere one formula spans it
        if d == knots[p + 1]:
            p += 1
            fval, concave, g, dg = pieces[p]
            gc = at(fval, d)
            v = gc if gc > gd else gd
        else:
            gc = v = gd
        if v > best_v or v == best_v and d < best_t:
            best_t, best_v = d, v
        c = d
    return (best_t, best_v) if best_v > NEG_INFINITY else (None, NEG_INFINITY)


def _maxima(field, kernel, terms, intervals, starts=None) -> list[tuple[float | None, float]]:
    """[(argmax | None, float max)] of field + Σ r_j K(· − y_j) over each [lo, hi] in ``intervals``.

    The one scalar interval-maxima routine. Its set-up is built once for all
    the intervals: the compiled kernel and slope sums, the node set, one
    sorted list of their cut points (the field's interior knots, the nodes
    y_j and the kernel kinks y_j ± κ), a kernel sum per cut (an interior
    node ends two intervals), and per field piece its g and slope closures.
    ``starts``, if given, holds one start point (or None) per interval for
    the slope searches; a start outside a searched piece is replaced by the
    piece's midpoint. A degenerate interval lo = hi takes F's value at its
    point, with no rule of its own: the point is a node, so under a singular
    kernel the value is −∞, and under any other the single-point value:

    >>> from equiosc import Log, SqrtShift, constant_field
    >>> _maxima(constant_field(0.0), Log(), ((1.0, 0.5),), [(0.5, 0.5), (0.0, 0.5)])
    [(None, -inf), (0.0, -0.6931471805599453)]
    >>> _maxima(constant_field(0.0), SqrtShift(), ((1.0, 0.5),), [(0.5, 0.5)])
    [(0.5, 2.0)]
    """
    singular = kernel.flags().singular
    ksum = kernel._build_sum(terms)
    kslope = kernel._build_slope_sum(terms)
    nodes = {yj for _, yj in terms}
    kink_cuts = [yj + s for yj in nodes for k in kernel._kinks for s in (k, -k)]
    points = sorted({*field.interior_knots(), *nodes, *kink_cuts})
    sums: dict[float, float] = {}

    def at(fval, tau: float) -> float:
        if singular and tau in nodes:  # K(0) = −∞ and every r_j > 0
            return NEG_INFINITY
        fv = fval(tau)
        if fv == NEG_INFINITY:
            return NEG_INFINITY
        ks = sums.get(tau)
        if ks is None:
            ks = sums[tau] = ksum(tau)
        return NEG_INFINITY if ks == NEG_INFINITY else fv + ks

    pieces = []
    for f in (p.formula for p in field.pieces):
        g = None if isinstance(f, NegInfinityPiece) else _with_translates(f._value, ksum)
        pieces.append((f._value, f.concave, g, _with_slopes(f, kslope)))
    setup = field, points, field.override_points(), field.knots(), at, pieces
    out = []
    for (lo, hi), start in zip(intervals, starts or repeat(None)):
        scalar_fn(kernel)  # one call per interval maximum: perfbench counts interval maxima by it
        if hi > lo:
            out.append(_maximize(lo, hi, start, setup))
        else:
            v = at(field._value_float, lo)
            out.append((lo if v > NEG_INFINITY else None, v))
    return out


def _interval_max(problem: Problem, ys: tuple[float, ...], j: int):
    """(argmax | None, float max) of F(y, ·) over [ys[j], ys[j+1]]."""
    return _maxima(problem.field, problem.kernel, _terms(problem, ys), ((ys[j], ys[j + 1]),))[0]


def _maxima_floats(problem: Problem, ys: tuple[float, ...], prior=None):
    """([m_0, …, m_n], [argmax_0, …]) of F(y, ·).

    ``prior`` = (ys′, argmaxima′) of nearby nodes, such as the last Newton
    iterate's: each argmax, mapped affinely from its interval of ys′ into the
    same interval of ys, starts that interval's slope searches.
    """
    starts = None
    if prior is not None:
        old, args = prior
        starts = [
            None if t is None or q <= p else lo + (t - p) * ((hi - lo) / (q - p))
            for lo, hi, p, q, t in zip(ys, ys[1:], old, old[1:], args)
        ]
    pairs = _maxima(problem.field, problem.kernel, _terms(problem, ys), zip(ys, ys[1:]), starts)
    return [v for _, v in pairs], [t for t, _ in pairs]


def _phi(vals) -> tuple[float, ...]:
    """Φ = (m_1 − m_0, …, m_n − m_{n−1}) of the maxima m_0, …, m_n."""
    return tuple(b - a for a, b in zip(vals, vals[1:]))


# -- batched interval maxima (grid oracle) --------------------------------------

# interior samples per lane and step of the batched bracket search: a step's
# cost is mostly fixed numpy overhead, not samples, so cutting the bracket
# fourfold per step beats golden section's 1.618-fold (Kiefer 1953)
_SAMPLES = 7
_FRACTIONS = np.arange(1, _SAMPLES + 1) / (_SAMPLES + 1)


def _sums_batch(formula_values, r, kernel, T: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """formula_values(T) + Σ_k r_k K(T − y_k), each row of T with the node row beside it.

    ``nodes`` is (rows, n) and T is (rows, m). The translates add up by
    ``KernelSpec._sum_batch``, in the scalar order and by ``Log``'s run rule;
    a −∞ part gives −∞ (no +∞ occurs on [0, 1]). The one entry point of the
    batch path's kernel sums.
    """
    return formula_values(T) + kernel._sum_batch(r, T, nodes)


def _bracket_batch(g, a: np.ndarray, b: np.ndarray, concave: np.ndarray, prune=None) -> np.ndarray:
    """Lockstep bracket-search maxima on lanes [a_k, b_k]; g(T, lanes) samples the lanes at the rows of T.

    Each step samples every lane at _SAMPLES equispaced interior points in
    one evaluation and keeps the two spacings around its best sample (the
    first of equal ones), so a bracket shrinks fourfold per step. A lane may
    end at a node, where g is −∞: a sample rounded onto it loses. A lane
    stops, with the best sample it has seen as its value, once its bracket
    is at most 4·(√ε·min(|x|, w₀) + min(_XTOL/3, √ε·w₀)) + ½ε·|x| wide
    (w₀ = b₀ − a₀, x its best sample), or after 200 steps. A value's error
    is quadratic in the distance to a smooth maximum, so √ε·|x| leaves it
    at rounding; the second term shrinks with a lane narrower than 2.2e-5,
    so no lane stops short of its maximum; and by ½ε·|x| a lane a few
    floats wide samples its last step under half a float apart.

    With ``prune``, each step also bounds the maximum of every ``concave``
    lane whose best sample v_i is neither the first nor the last: the
    maximum lies in [t_{i−1}, t_{i+1}], and on each side of t_i the chord
    through v_i and the other neighbour, extended one spacing, caps it, so
    it is at most 2·v_i − min(v_{i−1}, v_{i+1}). A lane's bound is the
    least of its steps' bounds, +∞ before the first one (and on a lane that
    is not concave), and its value once it stops. After each step
    ``prune(lanes, best, bound)`` gets the lanes still searched and the best
    sample and bound of every lane, and returns which of those lanes to
    stop, or None once it will stop no more (the bounds are then no longer
    kept); a stopped lane's value is its best sample so far, a lower bound.
    Lanes do not otherwise interact, so a lane that is not stopped ends with
    the value it has without ``prune``.
    """
    best = np.full(a.shape, NEG_INFINITY)
    bound = np.full(a.shape, _INF)
    idx = np.arange(a.size)
    w = w0 = b - a
    floor = 4.0 * np.minimum(_XTOL / 3.0, _SQRT_EPS * w0)
    for _ in range(200):
        if not idx.size:
            break
        ts = a[:, None] + w[:, None] * _FRACTIONS
        vals = g(ts, idx)
        lanes = np.arange(idx.size)
        i = np.argmax(vals, axis=1)  # first of equal samples
        x, v = ts[lanes, i], vals[lanes, i]
        best[idx] = np.maximum(best[idx], v)
        w = w * (2.0 / (_SAMPLES + 1))
        a = x - 0.5 * w
        done = w <= 4.0 * _SQRT_EPS * np.minimum(x, w0) + floor + 0.5 * _EPS * x  # x = |x| on [0, 1]
        if prune is not None:
            # a lane whose samples are all −∞ has i = 0: no −∞ − −∞, and a −∞ side gives +∞
            inner = lanes[concave[idx] & (i > 0) & (i < _SAMPLES - 1)]
            side = np.minimum(vals[inner, i[inner] - 1], vals[inner, i[inner] + 1])
            k = idx[inner]
            bound[k] = np.minimum(bound[k], 2.0 * v[inner] - side)
            bound[idx[done]] = best[idx[done]]
            stop = prune(idx, best, bound)
            if stop is None:
                prune = None
            else:
                done |= stop
        if done.any():
            go = ~done
            idx, a, w, w0, floor = (u[go] for u in (idx, a, w, w0, floor))
    return best


def _maxima_batch(problem: Problem, Y: np.ndarray, losing=None) -> np.ndarray:
    """(cells, n + 1) interval maxima of F(y, ·) for each row y of nondecreasing nodes Y.

    The values of :func:`_maxima_floats` row by row, computed for all rows at
    once: the same cuts, usc point candidates and concavity end checks, over
    whole pieces. Every piece that passes no end check is searched by one
    lockstep bracket search (:func:`_bracket_batch`, all pieces of all rows
    together, at every width) instead of the slope search, every non-concave
    one by the 64-point scan plus the same search as a polish. No argmax is
    computed.

    The set-up builds only the structure present: cut columns only for field
    knots and kernel kinks that exist, sorted only when there are two
    columns or more; piece lookup only on a field of several pieces; and a sampler
    that dispatches by formula only when the lanes span several. Under a
    singular kernel F is −∞ at a node, and the scalar path's ``at`` skips
    it: here too no node is evaluated. Interval j of a row (row mod (n + 1))
    starts at a node unless j = 0 and ends at one unless j = n, so the point
    candidates are the sentinel ends 0 and 1, the inner cuts and the
    overrides; the end checks run only at ends that are not nodes; and a
    scan sample on a node end is −∞ without an evaluation.

    With ``losing``, the searches of some cells stop early. After each search
    step a row's maximum is bounded below by its best value so far, and above
    by the largest of its point candidates, its finished searches and the
    concavity bounds of its searches still running; ``losing(lo, hi)`` gets
    these (cells, n + 1) bounds and returns a mask of the cells to stop. The
    maxima of a stopped cell are lower bounds; every other cell's are
    exactly those computed without ``losing``.
    """
    field, kernel, n = problem.field, problem.kernel, problem.n
    r = problem.r
    singular = kernel.flags().singular
    Y = np.asarray(Y, dtype=float)
    cells = Y.shape[0]
    ys = np.hstack([np.zeros((cells, 1)), Y, np.ones((cells, 1))])
    lo, hi = ys[:, :-1].ravel(), ys[:, 1:].ravel()  # interval j of cell i is row i·(n+1) + j
    nodes = np.repeat(Y, n + 1, axis=0)
    rows = lo.size

    with np.errstate(divide="ignore"):
        # inner cuts: the field's interior knots and the kernel kinks strictly
        # inside; a cut outside is replaced by hi, where it makes an empty segment
        knots = field.interior_knots()
        inner = [np.broadcast_to(knots, (rows, len(knots)))] if knots else []
        inner += [nodes + s * kappa for kappa in kernel._kinks for s in (1.0, -1.0)]
        if inner:
            inner = np.hstack(inner)
            inside = (inner > lo[:, None]) & (inner < hi[:, None])
            inner = np.where(inside, inner, hi[:, None])
            if inner.shape[1] > 1:
                inner.sort(axis=1)
            cuts = np.hstack([lo[:, None], inner, hi[:, None]])
            seg_row, seg_col = np.nonzero(cuts[:, 1:] > cuts[:, :-1])
            c, d = cuts[seg_row, seg_col], cuts[seg_row, seg_col + 1]
            real = inner < hi[:, None]
            cut_row, cut_t = np.nonzero(real)[0], inner[real]
        else:
            seg_row = np.flatnonzero(hi > lo)
            c, d = lo[seg_row], hi[seg_row]
            cut_row, cut_t = np.empty(0, dtype=int), np.empty(0)

        # point candidates, one evaluation: the ends that are not nodes, the inner
        # cuts and every override in [lo, hi], at their usc values
        if singular:  # 0 and 1 where no node sits on them
            first, last = np.flatnonzero(Y[:, 0] > 0.0), np.flatnonzero(Y[:, -1] < 1.0)
            end_row = np.concatenate([first * (n + 1), last * (n + 1) + n])
            end_t = np.concatenate([np.zeros(first.size), np.ones(last.size)])
        else:
            end_row, end_t = np.tile(np.arange(rows), 2), np.concatenate([lo, hi])
        overrides = field.override_points()
        over_row = [np.flatnonzero((lo <= tau) & (tau <= hi)) for tau in overrides]
        over_t = [np.full(k.size, tau) for k, tau in zip(over_row, overrides)]
        point_row = np.concatenate([end_row, cut_row, *over_row])
        point_t = np.concatenate([end_t, cut_t, *over_t])
        best = np.full(rows, NEG_INFINITY)
        points = _sums_batch(field.values, r, kernel, point_t[:, None], nodes[point_row])
        np.maximum.at(best, point_row, points[:, 0])

        # a segment's end is a node when it is its row's first and j > 0, or its last and j < n
        if singular:
            j = seg_row % (n + 1)
            a_free, b_free = (j == 0) | (c > lo[seg_row]), (j == n) | (d < hi[seg_row])
        else:
            a_free = b_free = np.ones(seg_row.size, dtype=bool)
        if len(field.pieces) > 1:
            piece = np.searchsorted(field.knots(), c, side="right") - 1  # as _maximize: the piece from c on
            groups = [(p, piece == p) for p in np.unique(piece)]
        else:
            groups = [(0, slice(None))]

        # the pieces' searches, in piece order, run as one lockstep search: per
        # piece its formula, and per lane its row, bracket and concavity
        formulas, lane_row, lane_a, lane_b, lane_concave = [], [], [], [], []
        for p, sel in groups:
            formula = field.pieces[p].formula
            if isinstance(formula, NegInfinityPiece):
                continue
            row, a, b, af, bf = seg_row[sel], c[sel], d[sel], a_free[sel], b_free[sel]
            if formula.concave:
                # an end where g does not rise inward is the piece maximum, and no
                # more than the point candidate there: only the others are searched
                h = np.maximum(_XTOL, _SQRT_EPS * (b - a))
                wide = b - a > 2.0 * h
                at_a, at_b = np.flatnonzero(wide & af), np.flatnonzero(wide & bf)
                check = np.concatenate([at_a, at_b])
                end = np.concatenate([a[at_a], b[at_b]])
                inward = np.concatenate([h[at_a], -h[at_b]])
                ends = np.stack([end, end + inward], axis=1)
                ends = _sums_batch(formula._values, r, kernel, ends, nodes[row[check]])
                settled = np.zeros(row.size, dtype=bool)
                settled[check[(ends[:, 0] > NEG_INFINITY) & (ends[:, 1] <= ends[:, 0])]] = True
                row, a, b = row[~settled], a[~settled], b[~settled]
            else:
                ts = np.linspace(a, b, _SCAN_POINTS, axis=1)
                # a node end is sampled at its neighbour, then set to −∞
                T = ts.copy()
                T[~af, 0], T[~bf, -1] = ts[~af, 1], ts[~bf, -2]
                samples = _sums_batch(formula._values, r, kernel, T, nodes[row])
                samples[~af, 0] = samples[~bf, -1] = NEG_INFINITY
                i = np.argmax(samples, axis=1)  # first of equal maxima, as _scan_max
                lanes = np.arange(i.size)
                np.maximum.at(best, row, samples[lanes, i])
                # the polish searches the two spacings around the best sample
                a = ts[lanes, np.maximum(i - 1, 0)]
                b = ts[lanes, np.minimum(i + 1, _SCAN_POINTS - 1)]
            if row.size:
                formulas.append(formula._values)
                lane_row.append(row)
                lane_a.append(a)
                lane_b.append(b)
                lane_concave.append(np.full(row.size, formula.concave))

        if formulas:
            lane_piece = np.repeat(np.arange(len(formulas)), [row.size for row in lane_row])
            lane_row, lane_a, lane_b, lane_concave = (
                np.concatenate(parts) for parts in (lane_row, lane_a, lane_b, lane_concave)
            )
            lane_nodes = nodes[lane_row]

            def g(T, lanes):
                if len(formulas) == 1:
                    return _sums_batch(formulas[0], r, kernel, T, lane_nodes[lanes])
                # lanes is increasing, so each piece's lanes are one slice of it
                edges = np.searchsorted(lane_piece[lanes], np.arange(len(formulas) + 1))
                out = np.empty(T.shape)
                for fv, s, e in zip(formulas, edges, edges[1:]):
                    if e > s:
                        out[s:e] = _sums_batch(fv, r, kernel, T[s:e], lane_nodes[lanes[s:e]])
                return out

            prune = None
            if losing is not None:
                lane_cell = lane_row // (n + 1)

                def prune(lanes, lane_best, lane_bound):
                    if (lane_cell[lanes] == lane_cell[lanes[0]]).all():
                        return None  # one cell left: let it finish
                    row_lo, row_hi = best.copy(), best.copy()
                    np.maximum.at(row_lo, lane_row, lane_best)
                    np.maximum.at(row_hi, lane_row, lane_bound)
                    lo_m, hi_m = row_lo.reshape(cells, n + 1), row_hi.reshape(cells, n + 1)
                    return losing(lo_m, hi_m)[lane_cell[lanes]]

            np.maximum.at(best, lane_row, _bracket_batch(g, lane_a, lane_b, lane_concave, prune))

    return best.reshape(cells, n + 1)


def interval_maxima(problem: Problem, y) -> MaximaVector:
    """Maxima of F(y, ·) over all n+1 node intervals, with locations."""
    ns = _checked(problem).node_system(y)
    vals, args = _maxima_floats(problem, ns.with_sentinels())
    return MaximaVector(tuple(vals), tuple(args))


def maximize_on_interval(problem: Problem, y, j: int):
    """(t*, max) of F(y, ·) on the j-th node interval, 0 ≤ j ≤ n."""
    ns = _checked(problem).node_system(y)
    j = _count(j, "interval index", PreconditionError)
    if not 0 <= j <= problem.n:
        raise PreconditionError(f"interval index {j} outside 0..{problem.n}")
    t, v = _interval_max(problem, ns.with_sentinels(), j)
    return t, as_extreal(v)


# -- regularity and the difference map ----------------------------------------

def _regular_maxima(problem: Problem, ns) -> list[float]:
    """The maxima m_0, …, m_n at a node system in Φ's domain, else RegularityError.

    The one regularity rule: strict, and every interval maximum finite. Under
    a singular kernel F(y, ·) is −∞ exactly at the nodes and on the field's
    −∞ set, so this is the regularity set: every interval interior meets the
    set where the field is finite.
    """
    if not ns.strict():
        raise RegularityError("node system must lie in the open simplex")
    vals, _ = _maxima_floats(problem, ns.with_sentinels())
    if NEG_INFINITY in vals:
        raise RegularityError("some interval maximum is −∞: node system outside the regularity set")
    return vals


def _require_singular(problem: Problem) -> None:
    """PreconditionError unless the kernel is singular, the only case where the regularity set is characterized."""
    if not _checked(problem).kernel.flags().singular:
        raise PreconditionError("the regularity-set characterization applies to singular kernels only")


def in_regularity_set(problem: Problem, y) -> bool:
    """Strict node system whose interval maxima are all finite (one maxima vector); singular kernels only."""
    _require_singular(problem)
    try:
        _regular_maxima(problem, problem.node_system(y))
    except RegularityError:
        return False
    return True


def difference(problem: Problem, y) -> DifferenceVector:
    """Φ(y) = (m_1 − m_0, …, m_n − m_{n−1}); requires all maxima finite."""
    return DifferenceVector(_phi(_regular_maxima(problem, _checked(problem).node_system(y))))
