"""Reference searches kept for differential tests only.

Golden section for the interval maxima: the library searched each concave
piece by plain golden section to an argument window of xtol before it moved
to Brent's method; ``golden_max`` is that search, verbatim.
``reference_interval_maxima`` rebuilds the old per-interval maximization
around it: cuts at field knots and at nodes inside the interval (no
kernel-kink cuts), cuts and overrides as point candidates, golden section on
concave pieces, a 64-point scan plus golden polish on the others, and ties to
the leftmost candidate. Each segment [c, d] between cuts takes the field piece
from c on, the library's piece rule.

Per-interval set-up: before a maxima vector built its cut points once,
``_maximize`` built the node set, the kink cuts, the sorted cuts inside its
interval and the override candidates for every interval it searched.
``reference_maximize`` is that ``_maximize`` and ``reference_scalar_interval_max``
its ``_interval_max``, verbatim but for the names, the node and piece rules
and the slope closure each piece hands to the library's search,
``_concave_max`` on a concave piece and ``_scan_max`` on the others. The
node rule is the library's: each piece is searched over [c, d] as it is,
with no offset from a node end and no midpoint rule for a narrow piece at a
node. So is the piece rule: [c, d] takes the field piece from c on. The slope
closure is built for the one interval, from the formula's ``_derivatives``
and ``slope_sum``, a per-term loop over the kernel's scalar (K′, K″)
(``LOG_DERIVATIVES`` for ``Log``).

Kink rows by forward difference: before only the kinked column of a
Jacobian row was differenced, ``solver._jacobian`` took every column of a row
whose argmax sits on a kernel kink by forward difference.
``reference_row_fd_jacobian`` is that ``_jacobian``, verbatim but for the name.

Per-entry kink test: before a table from each kink point to its columns
found the kinked Jacobian entries, ``solver._jacobian`` tested every entry
(i, k) against every kink offset in Python. ``reference_entry_fd_jacobian``
is that ``_jacobian``, verbatim but for the name.

Candidate grid for the restricted Chebyshev constant: before R came from
pinned-endpoint equioscillation solves, ``restricted_constant`` searched a
lattice of node systems per assignment of nodes to components, re-evaluated
the best few exactly and refined around the incumbent, always including the
snapped unrestricted extremizer. ``reference_restricted_constant`` is that
search, with the kernel-matrix block it ranked candidates by; it gives an
upper estimate of R. It is verbatim but for the lattice, which numpy builds
in the loop's row order with the same values.

All-endpoint pinned search for the restricted constant: before the hull ends
were left out, ``restricted_constant`` pinned nodes at every component
endpoint, a_1 and b_k included, and rebuilt the masked, hull-normalized log
field for every pin set. ``reference_pinned_restricted`` is that search
(``_restricted`` then), and ``_reference_union_problem`` the field builder it
called (``_union_problem`` then), both verbatim but for the names.

Inner-endpoint pinned search without pruning: before the search skipped pin
sets that a solved smaller pin set rules out, ``_restricted`` solved every
distinct (pins, free exponents) problem over the inner component endpoints.
``reference_inner_candidates`` is that search, verbatim but for the name,
up to its list of candidates, which it yields with their pin sets;
``reference_inner_restricted`` takes the least of them as the search did.
Both take the library's built union field, and ``pin_key`` is the search's
key of a pin set.

Scalar grid oracle: before the oracle evaluated each lattice as one batch, it
built the cells with a recursive generator and took every cell's objective
from the scalar maxima ``_maxima_floats``; ``_grid_lattice``,
``_grid_objective`` and ``_grid_evaluate`` are its ``_lattice``,
``_objective`` and ``_evaluate``, verbatim but for the names.
``reference_grid_search`` runs the oracle's refinement around them and also
reports, per round, how far the second-best cell's objective lies from the
best one's.

Per-term kernel sums: before each kernel compiled its sum of translates
into one closure (``KernelSpec._build_sum``), ``translates`` added the
translates one scalar kernel call at a time. ``kernel_sum`` and
``with_translates`` are its ``_kernel_sum`` and ``_with_translates``,
verbatim but for the names, and every reference here that sums translates
goes through them, not through the compiled sums; ``LOG_SCALAR`` is the
scalar ``Log`` kernel they take.

Unmerged field evaluation: before equal adjacent concave pieces were merged
when a field is built, a field evaluated over its pieces exactly as given.
``UnmergedField`` keeps them so; its ``pieces_at``, ``_value_float``,
``value`` and ``values`` are those ``PiecewiseField`` had then, verbatim.
"""

import functools
import itertools
import math
from bisect import bisect_right

import numpy as np

from equiosc.applications import (
    _PinnedTranslates,
    _default_weight,
    _log_max,
    _masked_log_field,
    snap_to_E,
    unrestricted_constant,
)
from equiosc.errors import BudgetError, DomainError, SchemaError
from equiosc.extreal import NEG_INFINITY, as_extreal
from equiosc.fields import NegInfinityPiece, Piece, PiecewiseField, affine_transport, log_of_weight_field
from equiosc.kernels import Log, scalar_fn
from equiosc.problem import Problem
from equiosc.solver import _fd_node, solve_equioscillation
from equiosc.translates import _concave_max, _interval_max, _maxima_floats, _scan_max

NEG_INF = float("-inf")
NODE_EPS = 1e-13
LOG_SCALAR = scalar_fn(Log())
LOG_DERIVATIVES = Log()._build_derivatives()
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def kernel_sum(kf, terms, t: float) -> float:
    s = 0.0
    for r, yj in terms:
        v = kf(t - yj)
        if v == NEG_INFINITY:
            return NEG_INFINITY
        s += r * v
    return s


def slope_sum(kd, terms, t: float) -> tuple[float, float]:
    """(Σ r_j K′(t − y_j), Σ r_j K″(t − y_j)), one scalar (K′, K″) call ``kd`` per term."""
    s1 = s2 = 0.0
    for r, yj in terms:
        d1, d2 = kd(t - yj)
        s1 += r * d1
        s2 += r * d2
    return s1, s2


def with_translates(fval, kf, terms):
    """t ↦ fval(t) + Σ r_j K(t − y_j), −∞ as soon as either part is −∞."""

    def g(t: float) -> float:
        fv = fval(t)
        if fv == NEG_INFINITY:
            return NEG_INFINITY
        ks = kernel_sum(kf, terms, t)
        if ks == NEG_INFINITY:
            return NEG_INFINITY
        return fv + ks

    return g


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
        formula = field.pieces[bisect_right(field.knots(), c) - 1].formula
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


def reference_maximize(field, kf, kd, terms, lo: float, hi: float, singular: bool, kinks=()):
    """(argmax | None, float max) of field + Σ r_j K(· − y_j) over [lo, hi], lo < hi, set up for this interval alone.

    ``kf`` is the scalar kernel and ``kd`` its scalar (K′, K″), summed per term by :func:`slope_sum`.
    """
    nodes = {yj for _, yj in terms}

    def slopes(formula):
        def dg(t: float) -> tuple[float, float]:
            f1, f2 = formula._derivatives(t)
            s1, s2 = slope_sum(kd, terms, t)
            return f1 + s1, f2 + s2

        return dg

    kink_cuts = [yj + s for yj in nodes for k in kinks for s in (k, -k)]
    inner = {tau for tau in (*field.interior_knots(), *nodes, *kink_cuts) if lo < tau < hi}
    cuts = [lo, *sorted(inner), hi]

    sums: dict[float, float] = {}

    def at_cut(fval, tau: float) -> float:
        if singular and tau in nodes:
            return NEG_INFINITY
        fv = fval(tau)
        if fv == NEG_INFINITY:
            return NEG_INFINITY
        ks = sums.get(tau)
        if ks is None:
            ks = sums[tau] = kernel_sum(kf, terms, tau)
        return NEG_INFINITY if ks == NEG_INFINITY else fv + ks

    point_set = sorted(set(cuts) | {t for t in field.override_points() if lo <= t <= hi})
    candidates = [(tau, at_cut(field._value_float, tau)) for tau in point_set]

    for c, d in zip(cuts, cuts[1:]):
        formula = field.pieces[bisect_right(field.knots(), c) - 1].formula
        if isinstance(formula, NegInfinityPiece):
            continue
        g = with_translates(formula._value, kf, terms)
        ga, gb = at_cut(formula._value, c), at_cut(formula._value, d)
        if formula.concave:
            candidates.append(_concave_max(g, c, d, ga, gb, slopes(formula)))
        else:
            candidates.append(_scan_max(g, slopes(formula), c, d, ga, gb))

    candidates.sort(key=lambda p: p[0])
    best_t: float | None = None
    best_v = NEG_INFINITY
    for t, v in candidates:
        if v > best_v:
            best_t, best_v = t, v
    return best_t, best_v


def reference_scalar_interval_max(problem: Problem, ys: tuple[float, ...], j: int):
    """(argmax | None, float max) of F(y, ·) over [ys[j], ys[j+1]], by :func:`reference_maximize`."""
    kernel = problem.kernel
    kf = scalar_fn(kernel)
    terms = tuple(zip(problem.r, ys[1:-1]))
    lo, hi = ys[j], ys[j + 1]
    singular = kernel.flags().singular
    if hi > lo:
        kd = kernel._build_derivatives()
        return reference_maximize(problem.field, kf, kd, terms, lo, hi, singular, kernel._kinks)
    if singular:
        return None, NEG_INFINITY
    v = with_translates(problem.field._value_float, kf, terms)(lo)
    return (lo if v > NEG_INFINITY else None), v


def reference_entry_fd_jacobian(problem: Problem, ys: list[float], vals, args):
    """Jacobian of Φ at ys, an entry by forward difference where its row's argmax is on that column's kink."""
    n = problem.n
    kernel = problem.kernel
    nodes = ys[1:-1]
    shifts = [s for k in kernel._kinks for s in (k, -k)]
    dm = np.empty((n + 1, n))
    rows = [i for i, t in enumerate(args) if t is not None]
    if rows:
        ts = np.array([args[i] for i in rows])
        dm[rows] = -np.asarray(problem.r) * kernel._slope(ts[:, None] - np.array(nodes))
    for i, t in enumerate(args):
        for k in range(1, n + 1):
            if t is None or any(t == ys[k] + s for s in shifts):
                pert, h = _fd_node(ys, k)
                _, v = _interval_max(problem, pert, i)
                if v == NEG_INFINITY:
                    return None
                dm[i, k - 1] = (v - vals[i]) / h
    return dm[1:] - dm[:-1]


def reference_row_fd_jacobian(problem: Problem, ys: list[float], vals, args):
    """Jacobian of Φ at ys, every column of a kink row (or of a row without argmax) by forward difference."""
    n = problem.n
    kernel = problem.kernel
    nodes = ys[1:-1]
    kink_points = {y + s for y in nodes for k in kernel._kinks for s in (k, -k)}
    exact = [i for i, t in enumerate(args) if t is not None and t not in kink_points]
    dm = np.empty((n + 1, n))
    if exact:
        ts = np.array([args[i] for i in exact])
        dm[exact] = -np.asarray(problem.r) * kernel._slope(ts[:, None] - np.array(nodes))
    for i in sorted(set(range(n + 1)).difference(exact)):
        for k in range(1, n + 1):
            pert, h = _fd_node(ys, k)
            _, v = _interval_max(problem, pert, i)
            if v == NEG_INFINITY:
                return None
            dm[i, k - 1] = (v - vals[i]) / h
    return dm[1:] - dm[:-1]


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

    def exact_log(nodes):
        return _log_max(logw, tuple(zip(r, nodes)), E.components)

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
            # the rows of itertools.product(*axes), in its order, ordered within each component
            X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
            for i in range(1, n):
                if boxes[i][2] == boxes[i - 1][2]:
                    X = X[X[:, i] >= X[:, i - 1]]
            if not X.shape[0]:
                break
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


def _reference_union_problem(E, r, weight, pins=()):
    """The hull-normalized log problem for nodes r, with pinned (r, e) translates in the field."""
    A, B = E.hull
    if weight.domain != (A, B):
        raise SchemaError("weight must live on the hull of the union")
    logw = _masked_log_field(log_of_weight_field(weight), E)
    field01 = affine_transport(logw)
    if pins:  # e is moved as affine_transport moves knots, so it lands on one
        terms = tuple((rj, (e - A) / (B - A)) for rj, e in pins)
        field01 = PiecewiseField(
            tuple(
                p if isinstance(p.formula, NegInfinityPiece)
                else Piece(p.lo, p.hi, _PinnedTranslates(p.formula, terms))
                for p in field01.pieces
            ),
            tuple((t, v + kernel_sum(LOG_SCALAR, terms, t)) for t, v in field01.point_values),
        )
    problem = Problem(n=len(r), r=tuple(r), kernel=Log(), field=field01)
    return problem, A, B - A


def reference_pinned_restricted(E, r, weight, tol, unpinned=None):
    """(R, nodes) with nodes pinned at every component endpoint; ``unpinned`` is the unrestricted solution's nodes when known."""
    r = tuple(float(v) for v in r)
    n = len(r)
    if n > 4:
        raise BudgetError("restricted search supports n ≤ 4")
    weight = weight if weight is not None else _default_weight(E)
    logw = log_of_weight_field(weight)

    @functools.lru_cache(maxsize=None)
    def free_nodes(pins, free_r):
        if not free_r:
            return ()
        if pins or unpinned is None:
            problem, A, width = _reference_union_problem(E, free_r, weight, pins)
            xs = tuple(A + width * u for u in solve_equioscillation(problem, tol).nodes.nodes)
        else:
            xs = unpinned
        return xs if all(any(a < x < b for a, b in E.components) for x in xs) else None

    endpoints = tuple(e for comp in E.components for e in comp)
    candidates = []
    for p in range(n + 1):
        for pinned, ends in itertools.product(
            itertools.combinations(range(n), p),
            itertools.combinations_with_replacement(endpoints, p),
        ):
            free_r = tuple(r[j] for j in range(n) if j not in pinned)
            free = free_nodes(tuple(sorted(zip((r[i] for i in pinned), ends))), free_r)
            if free is None:
                continue
            nodes = list(free)
            for i, e in zip(pinned, ends):  # ascending i: each lands at its index
                nodes.insert(i, e)
            if nodes == sorted(nodes):
                val = _log_max(logw, tuple(zip(r, nodes)), E.components)
                candidates.append((val, tuple(nodes)))
    best_val, best_nodes = min(candidates)
    return math.exp(best_val), best_nodes


def pin_key(r, pinned, ends):
    """The (pins, free exponents) problem of pinning the indices ``pinned`` at ``ends``."""
    return (
        tuple(sorted(zip((r[i] for i in pinned), ends))),
        tuple(r[j] for j in range(len(r)) if j not in pinned),
    )


def reference_inner_restricted(union, r, tol, unpinned=None):
    """(R, nodes) from every inner-endpoint pin set; ``unpinned`` is the unrestricted nodes when known."""
    best_val, best_nodes = min((val, nodes) for _, _, val, nodes in reference_inner_candidates(union, r, tol, unpinned))
    return math.exp(best_val), best_nodes


def reference_inner_candidates(union, r, tol, unpinned=None):
    """Every candidate of the unpruned inner-endpoint search as (pinned, ends, log value, nodes), in search order."""
    n = len(r)
    E = union.E

    @functools.lru_cache(maxsize=None)
    def free_nodes(pins, free_r):
        if not free_r:
            return ()
        xs = union.solve(free_r, tol, pins)[1] if pins or unpinned is None else unpinned
        return xs if all(any(a < x < b for a, b in E.components) for x in xs) else None

    inner_ends = tuple(e for comp in E.components for e in comp)[1:-1]
    for p in range(n + 1):
        for pinned, ends in itertools.product(
            itertools.combinations(range(n), p),
            itertools.combinations_with_replacement(inner_ends, p),
        ):
            free_r = tuple(r[j] for j in range(n) if j not in pinned)
            free = free_nodes(tuple(sorted(zip((r[i] for i in pinned), ends))), free_r)
            if free is None:
                continue
            nodes = list(free)
            for i, e in zip(pinned, ends):  # ascending i: each lands at its index
                nodes.insert(i, e)
            if nodes == sorted(nodes):
                val = _log_max(union.logw, tuple(zip(r, nodes)), E.components)
                yield pinned, ends, val, tuple(nodes)


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


def _grid_objective(problem: Problem, nodes: tuple[float, ...], mode: str) -> float:
    vals, _ = _maxima_floats(problem, (0.0, *nodes, 1.0))
    if mode == "minimax":
        return max(vals)
    return min(vals)  # −∞ as soon as one maximum is


def _grid_evaluate(problem, ranges, points, mode):
    """The lattice cells over ``ranges`` and the objective at each of them."""
    cells = list(_grid_lattice(ranges, points))
    return cells, [_grid_objective(problem, c, mode) for c in cells]


def reference_grid_search(problem, grid, mode):
    """(nodes, value, per-round gaps between the best and second-best objectives)."""
    sign = 1.0 if mode == "minimax" else -1.0
    ranges = [(0.0, 1.0)] * problem.n
    width = 1.0
    gaps = []
    for round_no in range(grid.refine_rounds + 1):
        if round_no:
            width /= 10.0
            ranges = [(max(0.0, y - 0.5 * width), min(1.0, y + 0.5 * width)) for y in best_nodes]
        cells, values = _grid_evaluate(problem, ranges, grid.points_per_dim, mode)
        order = sorted(range(len(cells)), key=lambda i: (sign * values[i], i))
        best_nodes, best_val = cells[order[0]], values[order[0]]
        runner_up = values[order[1]] if len(order) > 1 else math.inf
        gaps.append(0.0 if runner_up == best_val else abs(runner_up - best_val))
    return best_nodes, best_val, gaps


class UnmergedField:
    """The pieces and point overrides of a field, evaluated without merging any."""

    def __init__(self, pieces, point_values=(), domain=(0.0, 1.0)):
        self.pieces = tuple(pieces)
        self._knots = (self.pieces[0].lo, *(p.hi for p in self.pieces))
        self.point_values = tuple(sorted((float(t), as_extreal(v)) for t, v in point_values))
        self.domain = (float(domain[0]), float(domain[1]))

    def pieces_at(self, t: float):
        """The pieces whose closure contains t: two at an interior knot, else at most one."""
        knots, pieces = self._knots, self.pieces
        i = bisect_right(knots, t)  # knots[i - 1] <= t < knots[i]
        if i == 0:
            return ()
        if i == len(knots):  # past the last knot, or NaN
            return (pieces[-1],) if t == knots[-1] else ()
        if i > 1 and t == knots[i - 1]:
            return (pieces[i - 2], pieces[i - 1])
        return (pieces[i - 1],)

    def _value_float(self, t: float) -> float:
        best = NEG_INFINITY
        for p in self.pieces_at(t):
            v = p.formula._value(t)
            if v > best:
                best = v
        for tau, ov in self.point_values:
            if tau == t:
                if ov > best:
                    best = ov
                break
        return best

    def value(self, t: float):
        t = float(t)
        lo, hi = self.domain
        if math.isnan(t) or t < lo or t > hi:
            raise DomainError(f"field argument {t!r} outside [{lo}, {hi}]")
        return as_extreal(self._value_float(t))

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized usc evaluation; −∞ appears as IEEE -inf."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.domain
        if ts.size and (np.nanmin(ts) < lo or np.nanmax(ts) > hi):
            raise DomainError("field argument outside the domain")
        out = np.full(ts.shape, NEG_INFINITY)
        for p in self.pieces:
            mask = (ts >= p.lo) & (ts <= p.hi)
            if mask.any():
                out[mask] = np.maximum(out[mask], p.formula._values(ts[mask]))
        for tau, ov in self.point_values:
            mask = ts == tau
            if mask.any():
                out[mask] = np.maximum(out[mask], ov)
        return out
