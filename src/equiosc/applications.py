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
  component endpoints join the field as fixed translates (Fenton's sum of
  translates with a fixed part), and the free nodes equioscillate.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

from .errors import BudgetError, DomainError, PreconditionError, SchemaError
from .extreal import NEG_INFINITY
from .fields import (
    Formula,
    NegInfinityPiece,
    Piece,
    PiecewiseField,
    constant_field,
    affine_transport,
    log_of_weight_field,
)
from .kernels import Log, scalar_fn
from .problem import Problem
from .solver import solve_equioscillation
from .translates import _kernel_sum, _maximize

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

_LOG = scalar_fn(Log())


# -- problem bundles -----------------------------------------------------------

@dataclass(frozen=True)
class GapProblem:
    """Extremal-product problem: interval, positive exponents, usc weight."""

    interval: tuple[float, float]
    exponents: tuple[float, ...]
    weight: PiecewiseField

    def __post_init__(self):
        a, b = (float(self.interval[0]), float(self.interval[1]))
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise SchemaError("interval must be non-degenerate")
        object.__setattr__(self, "interval", (a, b))
        r = tuple(float(v) for v in self.exponents)
        if not r or any(not math.isfinite(v) or v <= 0.0 for v in r):
            raise SchemaError("exponents must be positive reals")
        object.__setattr__(self, "exponents", r)
        if self.weight.domain != (a, b):
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
        comps = tuple((float(a), float(b)) for a, b in self.components)
        if not comps:
            raise SchemaError("interval union needs at least one component")
        for a, b in comps:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise SchemaError("components must be non-degenerate intervals")
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

def _weight_value(weight: PiecewiseField, t: float) -> float:
    v = weight.value(t)
    if v < 0.0:  # −∞ included
        raise SchemaError("weights must be non-negative")
    return v


def gap_eval(nodes, r, weight: PiecewiseField, t: float) -> float:
    """w(t) · ∏ |t − x_j|^{r_j} at a point of the weight's domain."""
    lo, hi = weight.domain
    t = float(t)
    if not lo <= t <= hi:
        raise DomainError(f"point {t!r} outside [{lo}, {hi}]")
    w = _weight_value(weight, t)
    if w == 0.0:
        return 0.0
    prod = w
    for x, rj in zip(nodes, r):
        prod *= abs(t - x) ** rj
    return prod


def _log_max(logw: PiecewiseField, kf, terms, intervals) -> float:
    """max of log w(t) + Σ r_j log|t − x_j| over non-degenerate intervals."""
    return max(_maximize(logw, kf, terms, lo, hi, singular=True)[1] for lo, hi in intervals)


def gap_norm(nodes, r, weight: PiecewiseField, E: IntervalUnion | None = None) -> float:
    """sup of w · ∏ |t − x_j|^{r_j} over E (default: the weight's whole domain)."""
    logw = log_of_weight_field(weight)
    intervals = E.components if E is not None else (weight.domain,)
    best = _log_max(logw, _LOG, tuple(zip(r, nodes)), intervals)
    return math.exp(best)  # exp(−∞) = 0


def gap_interval_maxima(nodes, r, weight: PiecewiseField) -> tuple[float, ...]:
    """Max of w·∏|t−x_j|^{r_j} over each of the n+1 intervals cut by the nodes."""
    a, b = weight.domain
    logw = log_of_weight_field(weight)
    terms = tuple(zip(r, nodes))
    ys = (a, *sorted(float(x) for x in nodes), b)
    out = []
    for lo, hi in zip(ys, ys[1:]):
        if hi <= lo:
            out.append(gap_eval(nodes, r, weight, lo))
            continue
        _, v = _maximize(logw, _LOG, terms, lo, hi, singular=True)
        out.append(math.exp(v))
    return tuple(out)


# -- extremal products on one interval -------------------------------------------

def solve_bojanov(gap: GapProblem, tol: float = 1e-9) -> GapSolution:
    """Unique weighted extremal node product on [a, b], via log transport to [0, 1]."""
    a, b = gap.interval
    width = b - a
    logw = log_of_weight_field(gap.weight)
    field01 = affine_transport(logw, a, width, (0.0, 1.0))
    problem = Problem(n=gap.n, r=gap.exponents, kernel=Log(), field=field01)
    report = solve_equioscillation(problem, tol)
    nodes = tuple(a + width * u for u in report.nodes.nodes)
    extremal = tuple(
        a + width * t for t in report.maxima.argmax if t is not None
    )
    norm = math.exp(report.value) * width ** sum(gap.exponents)
    interlaces = False
    if len(extremal) == gap.n + 1:
        seq = [extremal[0]]
        for x, t in zip(nodes, extremal[1:]):
            seq.extend([x, t])
        interlaces = all(s < t for s, t in zip(seq, seq[1:]))
    return GapSolution(nodes=nodes, extremal_points=extremal, norm=norm, interlaces=interlaces)


def verify_signed_equioscillation(nodes, nu, extremal_points, weight: PiecewiseField) -> bool:
    """Check the signed alternation w(t_k)·T(t_k) = ±‖T‖ for integer exponents.

    The sign at t_k is (−1) raised to the total multiplicity of the nodes to
    the right of t_k; even multiplicities preserve the sign across a node.
    """
    nu = tuple(nu)
    if any(int(v) != v or v <= 0 for v in nu):
        raise PreconditionError("signed check requires positive integer exponents")
    nu = tuple(int(v) for v in nu)
    nodes = tuple(float(x) for x in nodes)
    pts = tuple(float(t) for t in extremal_points)
    if len(pts) != len(nodes) + 1:
        raise PreconditionError("need one extremal point per node interval")
    seq = [pts[0]]
    for x, t in zip(nodes, pts[1:]):
        seq.extend([x, t])
    if any(s >= t for s, t in zip(seq, seq[1:])):
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
    """The log field forced to −∞ outside the union (log of w·χ_E)."""
    lo, hi = logw.domain
    bounds = sorted(
        set(logw.knots())
        | {a for a, _ in E.components}
        | {b for _, b in E.components}
        | {lo, hi}
    )
    pieces = []
    for c, d in zip(bounds, bounds[1:]):
        mid = 0.5 * (c + d)
        if E.contains(mid):
            formula = logw.piece_over(c, d).formula
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

    def _value(self, t):
        v = self.base._value(t)
        return NEG_INFINITY if v == NEG_INFINITY else v + _kernel_sum(_LOG, self.terms, t)

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


def _union_problem(E: IntervalUnion, r, weight: PiecewiseField, pins=()) -> tuple[Problem, float, float]:
    """The hull-normalized log problem for nodes r, with pinned (r, e) translates in the field."""
    A, B = E.hull
    if weight.domain != (A, B):
        raise SchemaError("weight must live on the hull of the union")
    logw = _masked_log_field(log_of_weight_field(weight), E)
    field01 = affine_transport(logw, A, B - A, (0.0, 1.0))
    if pins:  # e is moved as affine_transport moves knots, so it lands on one
        terms = tuple((rj, (e - A) / (B - A)) for rj, e in pins)
        field01 = PiecewiseField(
            tuple(
                p if isinstance(p.formula, NegInfinityPiece)
                else Piece(p.lo, p.hi, _PinnedTranslates(p.formula, terms))
                for p in field01.pieces
            ),
            tuple((t, v + _kernel_sum(_LOG, terms, t)) for t, v in field01.point_values),
        )
    problem = Problem(n=len(r), r=tuple(r), kernel=Log(), field=field01)
    return problem, A, B - A


def unrestricted_constant(
    E: IntervalUnion, r, weight: PiecewiseField | None = None, tol: float = 1e-9
) -> tuple[float, tuple[float, ...]]:
    """Minimal sup-norm over E with nodes free in the hull, plus the nodes."""
    weight = weight if weight is not None else _default_weight(E)
    problem, A, width = _union_problem(E, r, weight)
    report = solve_equioscillation(problem, tol)
    nodes = tuple(A + width * u for u in report.nodes.nodes)
    value = math.exp(report.value) * width ** sum(float(v) for v in r)
    if any(abs(x - A) < 1e-9 or abs(x - (A + width)) < 1e-9 for x in nodes):
        warnings.warn("unrestricted extremizer touches the hull boundary", stacklevel=2)
    return value, nodes


def snap_to_E(nodes, E: IntervalUnion) -> tuple[float, ...]:
    """Move gap-resident nodes to the nearer component endpoint (ties leftward)."""
    A, B = E.hull
    out = []
    for x in nodes:
        x = float(x)
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
    *,
    refine_rounds: int | None = None,
    snap_seed: tuple[float, ...] | None = None,
) -> tuple[float, tuple[float, ...]]:
    """Minimal sup-norm over E with all nodes confined to E, and the nodes.

    Each node of an optimum is pinned at a component endpoint or free inside a
    component, where the free nodes equioscillate with the pinned translates in
    the field. Every choice of pinned sorted-node indices and non-decreasing
    endpoints is solved once per distinct pinned field and free exponents, and
    kept if its free nodes lie strictly inside components in index order. R is
    the least exact sup-norm kept, ties to the smaller node tuple.
    ``refine_rounds`` and ``snap_seed`` are deprecated and ignored.
    """
    for name, value in (("refine_rounds", refine_rounds), ("snap_seed", snap_seed)):
        if value is not None:
            warnings.warn(f"{name} is deprecated and ignored", DeprecationWarning, stacklevel=2)
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
        problem, A, width = _union_problem(E, free_r, weight, pins)
        xs = tuple(A + width * u for u in solve_equioscillation(problem, tol).nodes.nodes)
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
                val = _log_max(logw, _LOG, tuple(zip(r, nodes)), E.components)
                candidates.append((val, tuple(nodes)))
    best_val, best_nodes = min(candidates)
    return math.exp(best_val), best_nodes


def union_bound_factor(k: int, r) -> float:
    """2 raised to the largest sum of min(k−1, n) exponents."""
    r = sorted((float(v) for v in r), reverse=True)
    take = min(max(k - 1, 0), len(r))
    return 2.0 ** sum(r[:take])


def compare_constants(
    E: IntervalUnion, r, weight: PiecewiseField | None = None, tol: float = 1e-9
) -> dict:
    """C, R, the factor bound, and the constructive snapped witness in one report."""
    weight = weight if weight is not None else _default_weight(E)
    C, w_nodes = unrestricted_constant(E, r, weight, tol)
    snapped = snap_to_E(w_nodes, E)
    R, r_nodes = restricted_constant(E, r, weight, tol)
    bound = union_bound_factor(E.k, r)
    snap_norm = gap_norm(snapped, r, weight, E)
    slack = 1e-9
    return {
        "C": C,
        "R": R,
        "bound": bound,
        "lower_ok": C <= R + slack,
        "upper_ok": R <= bound * C + slack,
        "snap_norm": snap_norm,
        "snap_ok": snap_norm <= bound * C + slack,
        "nodes_unrestricted": w_nodes,
        "nodes_restricted": r_nodes,
        "nodes_snapped": snapped,
    }
