"""Reference searches kept for differential tests only.

Golden section for the interval maxima: the library searched each concave
piece by plain golden section to an argument window of xtol before it moved
to Brent's method; ``golden_max`` is that search, verbatim.
``reference_interval_maxima`` rebuilds the old per-interval maximization
around it: cuts at field knots and at nodes inside the interval (no
kernel-kink cuts), cuts and overrides as point candidates, golden section on
concave pieces, a 64-point scan plus golden polish on the others, and ties to
the leftmost candidate.

Candidate grid for the restricted Chebyshev constant: before R came from
pinned-endpoint equioscillation solves, ``restricted_constant`` searched a
lattice of node systems per assignment of nodes to components, re-evaluated
the best few exactly and refined around the incumbent, always including the
snapped unrestricted extremizer. ``reference_restricted_constant`` is that
search, verbatim, with the kernel-matrix block it ranked candidates by; it
gives an upper estimate of R.

Scalar grid oracle: before the oracle evaluated each lattice as one batch, it
built the cells with a recursive generator and took every cell's objective
from the scalar maxima ``_maxima_floats``; ``_grid_lattice``,
``_grid_objective`` and ``_grid_evaluate`` are its ``_lattice``,
``_objective`` and ``_evaluate``, verbatim but for the names.
``reference_grid_search`` runs the oracle's refinement around them and also
reports, per round, how far the second-best cell's objective lies from the
best one's.
"""

import itertools
import math

import numpy as np

from equiosc.applications import _default_weight, _log_max, snap_to_E, unrestricted_constant
from equiosc.fields import NegInfinityPiece, log_of_weight_field
from equiosc.kernels import Log, scalar_fn
from equiosc.problem import Problem
from equiosc.translates import _maxima_floats

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


def _F_rows(kernel, r, X, T, field_T):
    """field_T + Σ_j r_j K(T − X[i, j]) for each row i of a block of node rows X."""
    acc = np.broadcast_to(field_T, (X.shape[0], T.size)).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, rj in enumerate(r):
            acc += rj * kernel._values_unchecked(T[None, :] - X[:, j : j + 1])
    return acc


def _compositions(n, k):
    for cuts in itertools.combinations(range(n + k - 1), k - 1):
        parts = []
        prev = -1
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(n + k - 2 - prev)
        yield tuple(parts)


def reference_restricted_constant(E, r, weight=None, tol=1e-9, *, refine_rounds=2, snap_seed=None):
    """(R estimate, nodes) by the candidate-grid search; an upper bound on R."""
    r = tuple(float(v) for v in r)
    n = len(r)
    weight = weight if weight is not None else _default_weight(E)
    logw = log_of_weight_field(weight)
    kernel = Log()
    kf = scalar_fn(kernel)

    def exact_log(nodes):
        return _log_max(logw, kf, tuple(zip(r, nodes)), E.components)

    if snap_seed is None:
        _, w_nodes = unrestricted_constant(E, r, weight, tol)
        snap_seed = snap_to_E(w_nodes, E)
    candidates = []
    candidates.append((exact_log(snap_seed), tuple(snap_seed)))

    points_per_dim = max(6, min(200, int(round(8000 ** (1.0 / n)))))
    T_parts = [np.linspace(lo, hi, 129) for lo, hi in E.components]
    T = np.concatenate(T_parts)
    logw_T = logw.values(T)
    chunk = max(1, int(2_000_000 // T.size))

    for counts in _compositions(n, E.k):
        boxes = []  # (lo, hi, component index)
        for comp_idx, c in enumerate(counts):
            lo, hi = E.components[comp_idx]
            boxes.extend((lo, hi, comp_idx) for _ in range(c))
        incumbent = None
        for _ in range(refine_rounds + 1):
            axes = [np.linspace(lo, hi, points_per_dim) for lo, hi, _ in boxes]
            grids = []
            for dim_axes in itertools.product(*axes):
                ordered = all(
                    boxes[i][2] != boxes[i - 1][2] or dim_axes[i] >= dim_axes[i - 1]
                    for i in range(1, n)
                )
                if ordered:
                    grids.append(dim_axes)
            if not grids:
                break
            X = np.asarray(grids, dtype=float)
            approx = np.concatenate([
                _F_rows(kernel, r, X[start : start + chunk], T, logw_T).max(axis=1)
                for start in range(0, X.shape[0], chunk)
            ])
            order = np.argsort(approx, kind="stable")[:8]
            for idx in order:
                nodes = tuple(float(v) for v in X[idx])
                val = exact_log(nodes)
                if incumbent is None or val < incumbent[0] or (
                    val == incumbent[0] and nodes < incumbent[1]
                ):
                    incumbent = (val, nodes)
            # shrink boxes around the incumbent inside each component
            new_boxes = []
            for (lo, hi, comp), x in zip(boxes, incumbent[1]):
                pitch = (hi - lo) / (points_per_dim - 1)
                clo, chi = E.components[comp]
                new_boxes.append((max(clo, x - 3 * pitch), min(chi, x + 3 * pitch), comp))
            boxes = new_boxes
        if incumbent is not None:
            candidates.append(incumbent)

    best_val, best_nodes = min(candidates, key=lambda c: (c[0], c[1]))
    return math.exp(best_val), best_nodes


def _grid_lattice(ranges: list[tuple[float, float]], points: int):
    axes = [np.linspace(lo, hi, points) for lo, hi in ranges]
    n = len(axes)

    def rec(i: int, prev: float, prefix: tuple[float, ...]):
        if i == n:
            yield prefix
            return
        for v in axes[i]:
            fv = float(v)
            if fv >= prev:
                yield from rec(i + 1, fv, prefix + (fv,))

    yield from rec(0, 0.0, ())


def _grid_objective(problem: Problem, nodes: tuple[float, ...], mode: str, xtol: float) -> float:
    vals, _ = _maxima_floats(problem, (0.0, *nodes, 1.0), xtol)
    if mode == "minimax":
        return max(vals)
    return min(vals)  # −∞ as soon as one maximum is


def _grid_evaluate(problem, ranges, points, mode, xtol):
    """The lattice cells over ``ranges`` and the objective at each of them."""
    cells = list(_grid_lattice(ranges, points))
    return cells, [_grid_objective(problem, c, mode, xtol) for c in cells]


def reference_grid_search(problem, grid, mode, xtol=1e-12):
    """(nodes, value, per-round gaps between the best and second-best objectives)."""
    sign = 1.0 if mode == "minimax" else -1.0
    ranges = [(0.0, 1.0)] * problem.n
    width = 1.0
    gaps = []
    for round_no in range(grid.refine_rounds + 1):
        if round_no:
            width /= 10.0
            ranges = [(max(0.0, y - 0.5 * width), min(1.0, y + 0.5 * width)) for y in best_nodes]
        cells, values = _grid_evaluate(problem, ranges, grid.points_per_dim, mode, xtol)
        order = sorted(range(len(cells)), key=lambda i: (sign * values[i], i))
        best_nodes, best_val = cells[order[0]], values[order[0]]
        runner_up = values[order[1]] if len(order) > 1 else math.inf
        gaps.append(0.0 if runner_up == best_val else abs(runner_up - best_val))
    return best_nodes, best_val, gaps
