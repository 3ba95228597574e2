"""Weighted extremal node products and Chebyshev constants on interval unions.

Two applications of the equioscillation machinery:

* minimizing the weighted sup-norm of P(t) = ∏ |t − x_j|^{r_j} over node
  choices in a compact interval (positive real exponents, usc non-negative
  weight). Taking logarithms turns this into the minimax problem for the
  log kernel with external field log w, so the solver delivers the unique
  extremal node system together with its equioscillation certificate.
* comparing the restricted Chebyshev constant R (all nodes inside a union E
  of k intervals) with the unrestricted one C (nodes anywhere in the hull):
  C ≤ R ≤ 2^{max sum of k−1 exponents} · C, with the upper bound witnessed
  constructively by snapping gap-resident nodes of the unrestricted
  extremizer to the nearest component endpoint. R is exact: nodes pinned at
  the inner component endpoints b_1, a_2, …, b_{k−1}, a_k join the field as
  fixed translates (Fenton's sum of translates with a fixed part), and the
  free nodes equioscillate. No optimum has a node at a hull end, so none is
  pinned there: at most C(2k+n−3, n−1) solves for n equal exponents. A pin
  set is skipped unsolved when un-pinning one of its nodes gives a problem
  whose minimax value already reaches the best candidate kept, or one that
  was itself skipped. Each public call builds the masked, hull-normalized log
  field once and shares it among its solves.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import BudgetError, DomainError, PreconditionError, SchemaError
from .extreal import NEG_INFINITY, _count, _instance, _real, _reals, _sequence
from .fields import (
    Formula,
    NegInfinityPiece,
    Piece,
    PiecewiseField,
    constant_field,
    affine_transport,
    log_of_weight_field,
)
from .kernels import Log
from .problem import Problem
from .solver import solve_equioscillation
from .translates import _maxima

__all__ = [
    "GapProblem",
    "GapSolution",
    "IntervalUnion",
    "compare_constants",
    "gap_eval",
    "gap_interval_maxima",
    "gap_norm",
    "restricted_constant",
    "snap_to_E",
    "solve_bojanov",
    "union_bound_factor",
    "unrestricted_constant",
    "verify_signed_equioscillation",
]

_LOG = Log()


# -- problem bundles -----------------------------------------------------------

@dataclass(frozen=True)
class GapProblem:
    """Extremal-product problem: interval, positive exponents, usc weight."""

    interval: tuple[float, float]
    exponents: tuple[float, ...]
    weight: PiecewiseField

    def __post_init__(self):
        ends = _reals(self.interval, "interval end")
        if len(ends) != 2 or not ends[0] < ends[1]:
            raise SchemaError(f"interval must be a non-degenerate pair (a, b), got {self.interval!r}")
        object.__setattr__(self, "interval", ends)
        object.__setattr__(self, "exponents", _reals(self.exponents, "exponent", positive=True))
        if _instance(self.weight, PiecewiseField, "weight").domain != ends:
            raise SchemaError("weight must live on the problem interval")

    @property
    def n(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class GapSolution:
    nodes: tuple[float, ...]
    extremal_points: tuple[float, ...]
    norm: float
    interlaces: bool


@dataclass(frozen=True)
class IntervalUnion:
    """Disjoint closed intervals [a_1,b_1], …, [a_k,b_k] with b_l < a_{l+1}."""

    components: tuple[tuple[float, float], ...]

    def __post_init__(self):
        comps = tuple(_reals(c, "component end") for c in _sequence(self.components, "components"))
        if not comps:
            raise SchemaError("interval union needs at least one component")
        for c in comps:
            if len(c) != 2 or not c[0] < c[1]:
                raise SchemaError(f"components must be non-degenerate pairs (a, b), got {c!r}")
        for (_, b), (a2, _) in zip(comps, comps[1:]):
            if not b < a2:
                raise SchemaError("components must be strictly ordered and disjoint")
        object.__setattr__(self, "components", comps)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def hull(self) -> tuple[float, float]:
        return (self.components[0][0], self.components[-1][1])

    @property
    def gaps(self) -> tuple[tuple[float, float], ...]:
        return tuple(
            (b, a2) for (_, b), (a2, _) in zip(self.components, self.components[1:])
        )

    def contains(self, t: float) -> bool:
        return any(a <= t <= b for a, b in self.components)


# -- evaluation ------------------------------------------------------------------

def _gap_terms(nodes, r, weight: PiecewiseField) -> tuple[tuple[float, float], ...]:
    """The (r_j, x_j) pairs, after checking one node per exponent, each in the weight's domain."""
    r = _reals(r, "exponent", positive=True)
    nodes = _reals(nodes, "node", PreconditionError)
    if len(nodes) != len(r):
        raise PreconditionError(f"expected {len(r)} nodes, one per exponent, got {len(nodes)}")
    lo, hi = _instance(weight, PiecewiseField, "weight").domain
    for x in nodes:
        if not lo <= x <= hi:
            raise PreconditionError(f"node {x!r} outside [{lo}, {hi}]")
    return tuple(zip(r, nodes))


def _weight_value(weight: PiecewiseField, t: float) -> float:
    v = weight.value(t)
    if v < 0.0:  # −∞ included
        raise SchemaError("weights must be non-negative")
    return v


def gap_eval(nodes, r, weight: PiecewiseField, t: float) -> float:
    """w(t) · ∏ |t − x_j|^{r_j} at a point of the weight's domain."""
    terms = _gap_terms(nodes, r, weight)
    lo, hi = weight.domain
    t = _real(t, "point", DomainError)
    if not lo <= t <= hi:
        raise DomainError(f"point {t!r} outside [{lo}, {hi}]")
    w = _weight_value(weight, t)
    if w == 0.0:
        return 0.0
    prod = w
    for rj, x in terms:
        prod *= abs(t - x) ** rj
    return prod


def _log_max(logw: PiecewiseField, terms, intervals) -> float:
    """max of log w(t) + Σ r_j log|t − x_j| over non-degenerate intervals."""
    return max(v for _, v in _maxima(logw, Log(), terms, intervals))


def gap_norm(nodes, r, weight: PiecewiseField, E: IntervalUnion | None = None) -> float:
    """sup of w · ∏ |t − x_j|^{r_j} over E (default: the weight's whole domain)."""
    terms = _gap_terms(nodes, r, weight)
    intervals = _instance(E, IntervalUnion, "E").components if E is not None else (weight.domain,)
    if not weight.domain[0] <= intervals[0][0] < intervals[-1][1] <= weight.domain[1]:
        raise DomainError(f"E reaches past the weight's domain {list(weight.domain)}")
    return math.exp(_log_max(log_of_weight_field(weight), terms, intervals))  # exp(−∞) = 0


def gap_interval_maxima(nodes, r, weight: PiecewiseField) -> tuple[float, ...]:
    """Max of w·∏|t−x_j|^{r_j} over each of the n+1 intervals cut by the nodes."""
    terms = _gap_terms(nodes, r, weight)
    a, b = weight.domain
    ys = (a, *sorted(x for _, x in terms), b)
    # a degenerate interval is a node: −∞ in the logs, and exp(−∞) = 0 is gap_eval's value there
    return tuple(math.exp(v) for _, v in _maxima(log_of_weight_field(weight), Log(), terms, zip(ys, ys[1:])))


# -- extremal products on one interval -------------------------------------------

def _interlaced(nodes, points) -> bool:
    """t_{i−1} < x_i < t_i for every node x_i, with points t_0, …, t_n."""
    return all(t0 < x < t1 for x, t0, t1 in zip(nodes, points, points[1:]))


def solve_bojanov(gap: GapProblem, tol: float = 1e-9) -> GapSolution:
    """Unique weighted extremal node product on [a, b]: the union solve on the one-component union [a, b]."""
    _instance(gap, GapProblem, "gap")
    union = _UnionField(IntervalUnion((gap.interval,)), gap.weight)
    report = solve_equioscillation(_union_problem(union, gap.exponents), tol)
    a, width = union.A, union.width
    nodes = tuple(a + width * u for u in report.nodes.nodes)
    extremal = tuple(a + width * t for t in report.maxima.argmax if t is not None)
    norm = math.exp(report.value) * width ** sum(gap.exponents)
    interlaces = len(extremal) == gap.n + 1 and _interlaced(nodes, extremal)
    return GapSolution(nodes=nodes, extremal_points=extremal, norm=norm, interlaces=interlaces)


def verify_signed_equioscillation(nodes, nu, extremal_points, weight: PiecewiseField) -> bool:
    """Check the signed alternation w(t_k)·T(t_k) = ±‖T‖ for integer exponents.

    The sign at t_k is (−1) raised to the total multiplicity of the nodes to
    the right of t_k; even multiplicities preserve the sign across a node.
    """
    nu = tuple(
        _count(v, "signed-check exponent", PreconditionError)
        for v in _sequence(nu, "signed-check exponents", PreconditionError)
    )
    if any(v <= 0 for v in nu):
        raise PreconditionError("signed check requires positive integer exponents")
    nodes = _reals(nodes, "node", PreconditionError)
    pts = _reals(extremal_points, "extremal point", PreconditionError)
    if len(pts) != len(nodes) + 1:
        raise PreconditionError("need one extremal point per node interval")
    if not _interlaced(nodes, pts):
        raise PreconditionError("extremal points must interlace the nodes")
    norm = gap_norm(nodes, nu, weight)
    if norm <= 0.0:
        return False
    for k, t in enumerate(pts):
        signed = _weight_value(weight, t)
        for x, m in zip(nodes, nu):
            signed *= (t - x) ** m
        sign = -1.0 if sum(nu[k:]) % 2 else 1.0
        if abs(signed - sign * norm) > 1e-9 * norm:
            return False
    return True


# -- interval unions ---------------------------------------------------------------

def _masked_log_field(logw: PiecewiseField, E: IntervalUnion) -> PiecewiseField:
    """The log field forced to −∞ outside the union (log of w·χ_E).

    It is cut at logw's knots and at E's ends. A segment [c, d] takes what
    holds from its left end on: logw's piece from c on, and E when some
    component [a, b] has a ≤ c < b, so a segment one float wide beside a
    knot keeps the formula of the piece it lies in.
    """
    knots = logw.knots()
    bounds = sorted({*knots, *(t for ab in E.components for t in ab)})
    pieces = []
    for c, d in zip(bounds, bounds[1:]):
        if any(a <= c < b for a, b in E.components):
            formula = logw.pieces[bisect_right(knots, c) - 1].formula
        else:
            formula = NegInfinityPiece()
        pieces.append(Piece(c, d, formula))
    point_values = tuple((t, v) for t, v in logw.point_values if E.contains(t))
    return PiecewiseField(tuple(pieces), point_values, domain=logw.domain)


def _default_weight(E: IntervalUnion) -> PiecewiseField:
    return constant_field(1.0, domain=E.hull)


@dataclass(frozen=True)
class _PinnedTranslates(Formula):
    """base(t) + Σ r·log|t − e| over pinned nodes (r, e), each e a knot of the field.

    No e lies inside a piece of this formula, so it is concave where ``base`` is.
    """

    base: Formula
    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "_log_sum", _LOG._build_sum(self.terms))
        object.__setattr__(self, "_log_slopes", _LOG._build_slope_sum(self.terms))

    def _value(self, t):
        v = self.base._value(t)
        return NEG_INFINITY if v == NEG_INFINITY else v + self._log_sum(t)

    def _derivatives(self, t):
        f1, f2 = self.base._derivatives(t)
        s1, s2 = self._log_slopes(t)
        return f1 + s1, f2 + s2

    @property
    def concave(self):
        return self.base.concave

    def _validate_on(self, lo, hi):
        self.base._validate_on(lo, hi)
        assert not any(lo < e < hi for _, e in self.terms), "pinned node inside a field piece"

    def _neg_inf_on(self, lo, hi):
        mode, points = self.base._neg_inf_on(lo, hi)
        points = (*points, *(e for _, e in self.terms if lo <= e <= hi))
        return (mode, points) if mode == "all" or not points else ("points", points)


class _UnionField:
    """A weight's log field on the hull [A, B] of E, and log(w·χ_E) pulled back to [0, 1].

    Built once per public call: every solve on E, pinned or not, starts from
    the same pull-back ``field01``.
    """

    def __init__(self, E: IntervalUnion, weight: PiecewiseField | None):
        _instance(E, IntervalUnion, "E")
        weight = _instance(weight, PiecewiseField, "weight") if weight is not None else _default_weight(E)
        A, B = E.hull
        if weight.domain != (A, B):
            raise SchemaError("weight must live on the hull of the union")
        self.E, self.A, self.width = E, A, B - A
        self.logw = log_of_weight_field(weight)
        self.field01 = affine_transport(_masked_log_field(self.logw, E), A, B - A)

    def solve(self, r, tol: float, pins=()):
        """The minimax value for nodes r on [0, 1] and the solved nodes moved back to the hull."""
        report = solve_equioscillation(_union_problem(self, r, pins), tol)
        return report.value, tuple(self.A + self.width * u for u in report.nodes.nodes)


def _union_problem(union: _UnionField, r, pins=()) -> Problem:
    """The hull-normalized log problem for nodes r, with pinned (r, e) translates in the field."""
    field01 = union.field01
    if pins:  # e is moved as affine_transport moves knots, so it lands on one
        terms = tuple((rj, (e - union.A) / union.width) for rj, e in pins)
        log_sum = _LOG._build_sum(terms)
        field01 = PiecewiseField(
            tuple(
                p if isinstance(p.formula, NegInfinityPiece)
                else Piece(p.lo, p.hi, _PinnedTranslates(p.formula, terms))
                for p in field01.pieces
            ),
            tuple((t, v + log_sum(t)) for t, v in field01.point_values),
        )
    return Problem(n=len(r), r=tuple(r), kernel=Log(), field=field01)


def unrestricted_constant(
    E: IntervalUnion, r, weight: PiecewiseField | None = None, tol: float = 1e-9
) -> tuple[float, tuple[float, ...]]:
    """Minimal sup-norm over E with nodes free in the hull, plus the nodes."""
    r = _reals(r, "exponent", positive=True)
    return _unrestricted(_UnionField(E, weight), r, tol)[:2]


def _unrestricted(union: _UnionField, r, tol):
    """C, the nodes and the solve's hull-normalized log value on a built union field."""
    log_value, nodes = union.solve(r, tol)
    return math.exp(log_value) * union.width ** sum(r), nodes, log_value


def snap_to_E(nodes, E: IntervalUnion) -> tuple[float, ...]:
    """Move gap-resident nodes to the nearer component endpoint (ties leftward)."""
    A, B = _instance(E, IntervalUnion, "E").hull
    out = []
    for x in _sequence(nodes, "nodes", PreconditionError):
        x = _real(x, "node", PreconditionError)
        if not A <= x <= B:
            raise PreconditionError(f"node {x!r} outside the hull [{A}, {B}]")
        if E.contains(x):
            out.append(x)
            continue
        for b_l, a_r in E.gaps:
            if b_l < x < a_r:
                out.append(b_l if (x - b_l) <= (a_r - x) else a_r)
                break
    return tuple(sorted(out))


def restricted_constant(
    E: IntervalUnion,
    r,
    weight: PiecewiseField | None = None,
    tol: float = 1e-9,
) -> tuple[float, tuple[float, ...]]:
    """Minimal sup-norm over E with all nodes confined to E, and the nodes.

    Each node of an optimum is pinned at an inner component endpoint
    b_1, a_2, …, b_{k−1}, a_k or free inside a component, where the free
    nodes equioscillate with the pinned translates in the field; no node sits
    at a hull end (see :func:`_restricted`). Every choice of pinned
    sorted-node indices and non-decreasing inner endpoints is solved once per
    distinct pinned field and free exponents, and kept if its free nodes lie
    strictly inside components in index order: at most C(2k+n−3, n−1) solves
    for n equal exponents. A choice is skipped unsolved when un-pinning one of
    its nodes gives a problem whose minimax value already reaches the best
    candidate kept, or one that was itself skipped. R is the least exact
    sup-norm kept, ties to the smaller node tuple.

    >>> restricted_constant(IntervalUnion(((0.0, 0.4), (0.6, 1.0))), (1,))
    (0.6, (0.4,))
    """
    r = _restricted_exponents(r)
    return _restricted(_UnionField(E, weight), r, tol)


def _restricted_exponents(r) -> tuple[float, ...]:
    """The checked exponents, if the restricted search can take that many nodes."""
    r = _reals(r, "exponent", positive=True)
    if len(r) > 4:
        raise BudgetError("restricted search supports n ≤ 4")
    return r


def _restricted(union: _UnionField, r, tol, unpinned=None):
    """:func:`restricted_constant` on a built union field; ``unpinned`` is ``union.solve(r, tol)`` when known.

    No optimum has a node at the hull end A = a_1, so no node is pinned
    there. Say a candidate has a node x_i = A with exponent r_i > 0 and norm
    N = sup_E w·∏|t − x_j|^{r_j}, which is positive (R ≥ C > 0 once the
    unpinned problem solves). Move that node to A + ε inside [a_1, b_1]. At
    every t ≥ A + ε the product is multiplied by (1 − ε/(t − A))^{r_i} < 1,
    so by upper semicontinuity its sup over E ∩ [A + ε, B] falls strictly
    below N; on [A, A + ε] it is at most ε^{r_i}·M, M the sup of w times the
    other factors, which is below N for small ε. So the sup over E falls
    strictly and the candidate is not the minimum. B = b_k is the mirror
    case. This leaves the 2k − 2 inner endpoints to pin.

    The search is a branch and bound over pin sets. A key is one distinct
    (pins, free exponents) problem: minimize sup_E of w times the pinned
    translates times ∏|t − y_j|^{s_j} over free nodes y_1 ≤ … ≤ y_f in the
    hull, the free exponents s in index order. Its solve gives the
    equioscillating free nodes and lb, the problem's minimax value on the
    scale of :func:`_log_max`. Levels p = 0 … n are visited in order, and
    ``best`` is the least value among the candidates kept so far. A
    candidate at level p is skipped unsolved if one of its sub-keys (one
    pinned index i un-pinned, r_i back among the free exponents at i's
    position) has lb ≥ ``best`` or was skipped, that is, never solved for
    any candidate. This loses no candidate below ``best``:

    * Pinning one more node restricts the minimization, so the minimax
      value cannot fall: a valid candidate's nodes are sorted, so they are a
      feasible placement for the ordered problem of each of its sub-keys,
      and of every key that un-pins more of its pinned indices. Its exact
      value is at least each of their lbs.
    * A sub-key was never solved only if the candidate's own sub-candidate
      (pin i dropped) was skipped; by induction down the candidate's own
      chain of un-pinnings, some key on it had lb ≥ an earlier ``best``,
      which is no less than today's. A key solved for another candidate
      keeps its lb: pin sets that share a key through other indices need
      not share this candidate's chain.
    * Once a key's solve gives a kept candidate, the key's lb is that
      candidate's exact value. The solved free nodes equioscillate, so this
      is the key's minimax value, as the solve's value is, to within the
      solve's residual, and the first point holds for it. It is also at
      least ``best`` from then on, so every candidate one pin above the
      key is skipped. Otherwise, when the key's candidate is the best one,
      lb and ``best`` would be one value computed two ways, and rounding
      would decide whether those candidates are solved.

    So no skipped candidate's exact value is below ``best``, beyond the
    solve's residual. A tie, which could move the answer to a smaller node
    tuple, is possible only within that residual, about 1e-15 after
    Newton's final step.
    """
    n = len(r)
    E = union.E
    shift = sum(r) * math.log(union.width)
    solved = {}  # key → (lb, free nodes, or None unless all lie strictly inside components)

    def record(k, value, xs):
        inside = all(any(a < x < b for a, b in E.components) for x in xs)
        solved[k] = (value + shift, xs if inside else None)

    def key(pinned, ends):
        return (
            tuple(sorted(zip((r[i] for i in pinned), ends))),
            tuple(r[j] for j in range(n) if j not in pinned),
        )

    def lb(k):
        return solved[k][0] if k in solved else math.inf  # never solved: every candidate under k was skipped

    if unpinned is not None:
        record(key((), ()), *unpinned)
    inner_ends = tuple(e for comp in E.components for e in comp)[1:-1]
    best, candidates = math.inf, []
    for p in range(n + 1):
        for pinned, ends in itertools.product(
            itertools.combinations(range(n), p),
            itertools.combinations_with_replacement(inner_ends, p),
        ):
            if any(lb(key(pinned[:q] + pinned[q + 1:], ends[:q] + ends[q + 1:])) >= best for q in range(p)):
                continue
            pins, free_r = k = key(pinned, ends)
            if free_r and k not in solved:
                record(k, *union.solve(free_r, tol, pins))
            free = solved[k][1] if free_r else ()
            if free is None:
                continue
            nodes = list(free)
            for i, e in zip(pinned, ends):  # ascending i: each lands at its index
                nodes.insert(i, e)
            if nodes == sorted(nodes):
                val = _log_max(union.logw, tuple(zip(r, nodes)), E.components)
                solved[k] = (val, free)  # the key's lb from now on: its own candidate's value
                candidates.append((val, tuple(nodes)))
                best = min(best, val)
    best_val, best_nodes = min(candidates)
    return math.exp(best_val), best_nodes


def union_bound_factor(k: int, r) -> float:
    """2 raised to the largest sum of min(k−1, n) exponents."""
    r = sorted(_reals(r, "exponent", positive=True), reverse=True)
    if _count(k, "k") < 1:
        raise SchemaError(f"a union has at least one component, got k={k!r}")
    take = min(k - 1, len(r))
    return 2.0 ** sum(r[:take])


def compare_constants(
    E: IntervalUnion, r, weight: PiecewiseField | None = None, tol: float = 1e-9
) -> dict:
    """C, R, the factor bound, and the constructive snapped witness in one report."""
    r = _restricted_exponents(r)
    union = _UnionField(E, weight)
    C, w_nodes, w_value = _unrestricted(union, r, tol)
    snapped = snap_to_E(w_nodes, E)
    R, r_nodes = _restricted(union, r, tol, unpinned=(w_value, w_nodes))
    bound = union_bound_factor(E.k, r)
    snap_norm = math.exp(_log_max(union.logw, tuple(zip(r, snapped)), E.components))
    slack = 1.0 + 1e-9  # relative: C, R and the snapped norm scale like width^Σr
    return {
        "C": C,
        "R": R,
        "bound": bound,
        "lower_ok": C <= R * slack,
        "upper_ok": R <= bound * C * slack,
        "snap_norm": snap_norm,
        "snap_ok": snap_norm <= bound * C * slack,
        "nodes_unrestricted": w_nodes,
        "nodes_restricted": r_nodes,
        "nodes_snapped": snapped,
    }
