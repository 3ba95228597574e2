"""Golden-section reference for the interval maxima (differential tests only).

The library searched each concave piece by plain golden section to an
argument window of xtol before it moved to Brent's method; ``golden_max`` is
that search, verbatim. ``reference_interval_maxima`` rebuilds the old
per-interval maximization around it: cuts at field knots and at nodes inside
the interval (no kernel-kink cuts), cuts and overrides as point candidates,
golden section on concave pieces, a 64-point scan plus golden polish on the
others, and ties to the leftmost candidate.
"""

import math

import numpy as np

from equiosc.fields import NegInfinityPiece
from equiosc.kernels import scalar_fn

NEG_INF = float("-inf")
NODE_EPS = 1e-13
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(g, lo, hi, xtol):
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


def _scan_golden(g, lo, hi, xtol, points=64):
    ts = np.linspace(lo, hi, points)
    vals = [g(float(t)) for t in ts]
    i = max(range(points), key=lambda k: (vals[k], -k))
    t_star, v_star = golden_max(g, float(ts[max(0, i - 1)]), float(ts[min(points - 1, i + 1)]), xtol)
    if vals[i] >= v_star:
        return float(ts[i]), vals[i]
    return t_star, v_star


def _objective(fval, kf, terms):
    def g(t):
        fv = fval(t)
        if fv == NEG_INF:
            return NEG_INF
        s = 0.0
        for r, yj in terms:
            v = kf(t - yj)
            if v == NEG_INF:
                return NEG_INF
            s += r * v
        return fv + s

    return g


def reference_interval_max(problem, ys, j, xtol=1e-12):
    """(argmax | None, max) of F(y, ·) over [ys[j], ys[j+1]], golden-section search."""
    field, kf = problem.field, scalar_fn(problem.kernel)
    singular = problem.kernel.flags().singular
    terms = tuple(zip(problem.r, ys[1:-1]))
    lo, hi = ys[j], ys[j + 1]
    if hi <= lo:
        if singular:
            return None, NEG_INF
        v = _objective(field._value_float, kf, terms)(lo)
        return (lo if v > NEG_INF else None), v
    nodes = set(ys[1:-1])
    inner = {tau for tau in (*field.interior_knots(), *nodes) if lo < tau < hi}
    cuts = [lo, *sorted(inner), hi]
    F = _objective(field._value_float, kf, terms)
    points = sorted(set(cuts) | {t for t in field.override_points() if lo <= t <= hi})
    candidates = [(tau, F(tau)) for tau in points]
    for c, d in zip(cuts, cuts[1:]):
        if d - c <= 4.0 * NODE_EPS:
            continue
        formula = field.piece_over(c, d).formula
        if isinstance(formula, NegInfinityPiece):
            continue
        a = c + NODE_EPS if (singular and c in nodes) else c
        b = d - NODE_EPS if (singular and d in nodes) else d
        g = _objective(formula._value, kf, terms)
        search = golden_max if formula.concave else _scan_golden
        candidates.append(search(g, a, b, xtol))
    candidates.sort(key=lambda p: p[0])
    best_t, best_v = None, NEG_INF
    for t, v in candidates:
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


def reference_interval_maxima(problem, y, xtol=1e-12):
    """([m_0, …, m_n], [t_0, …, t_n]) by the golden-section reference."""
    ys = (0.0, *(float(v) for v in y), 1.0)
    pairs = [reference_interval_max(problem, ys, j, xtol) for j in range(problem.n + 1)]
    return [v for _, v in pairs], [t for t, _ in pairs]
