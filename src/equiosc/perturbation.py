"""Numerical checkers for the perturbation and intertwining structure.

Three groups of tools live here:

* a sampler for the two-translate widening inequality
  p·K(t−α) + q·K(t−β) ≤ p·K(t−a) + q·K(t−b) in its five case regimes,
  driven by the chord-slope ratio μ = p(a−α) / (q(β−b));
* the constructive node move for a non-trivial partition of the interval
  indices into a shrinking class and a growing class, node ℓ moving by
  ±h/r_ℓ exactly when its two neighboring intervals carry different labels;
* coordinatewise comparison of interval-maxima vectors: for distinct regular
  node systems under a singular strictly monotone kernel neither vector can
  weakly dominate the other, so any genuine difference must produce witnesses
  in both directions ("intertwining"). The verdict and the scan judge a pair
  by one rule, ``_verdict``: maxima within ``translates._TIE`` = 1e-9 tie.

The comparisons take the node systems that the difference map Φ takes, by
the one rule of ``translates``: strict, with every interval maximum finite
(under a singular kernel, exactly the regularity set); other node systems
raise ``RegularityError``. The widening sampler evaluates each of its two
pair sums once per sampled region, with the scalar kernel sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import PreconditionError, RegularityError
from .extreal import NEG_INFINITY, _count, _instance, _real, _sequence
from .kernels import KernelSpec
from .problem import NodeSystem, Problem, _checked
from .translates import _TIE, _regular_maxima, _require_singular

__all__ = [
    "CaseReport",
    "IntertwiningVerdict",
    "PartitionSpec",
    "PerturbationReport",
    "check_interval_perturbation",
    "check_intertwining",
    "check_strict_majorization_excluded",
    "perturb_partition",
    "sample_regular_nodes",
]

_PASS_TOL = 1e-12
# sample_regular_nodes: the smallest node gap, and the draws before giving up
_MIN_GAP = 1e-3
_MAX_TRIES = 1000


# -- interval perturbation inequality -----------------------------------------

@dataclass(frozen=True)
class CaseReport:
    applicable: bool
    passed: bool | None
    worst_violation: float
    worst_t: float | None


@dataclass(frozen=True)
class PerturbationReport:
    mu: float
    cases: dict


def _sample_le(lhs: np.ndarray, rhs: np.ndarray, ts: np.ndarray, strict: bool):
    """Check lhs ≤ rhs (strictly, if asked) on the samples ts; return (ok, worst, where)."""
    finite = lhs > NEG_INFINITY  # −∞ ≤ anything, strictly below any finite value
    violation = (lhs - rhs)[finite]  # +∞ where only rhs is −∞
    if not violation.size:
        return True, 0.0, None  # lhs was −∞ throughout: inequality holds with slack everywhere
    i = int(np.argmax(violation))  # the first sample of the worst violation
    worst = float(violation[i])
    ok = worst < 0.0 if strict else worst <= _PASS_TOL
    return ok, worst, float(ts[finite][i])


def check_interval_perturbation(
    kernel: KernelSpec,
    alpha: float,
    a: float,
    b: float,
    beta: float,
    p: float,
    q: float,
    grid_points: int = 1000,
) -> PerturbationReport:
    """Sample the widening inequality for the pair move (a, b) → (α, β).

    Cases: (a) outside-left under monotonicity and μ ≥ 1; (b) outside-right
    under monotonicity and μ ≤ 1; (c) both sides when μ = 1, no monotonicity
    needed; (d) strictness under strict concavity; (e) the reversed inequality
    between a and b under monotonicity, strict under strict monotonicity.
    """
    alpha, a, b, beta = (_real(v, "node", PreconditionError) for v in (alpha, a, b, beta))
    if not (0.0 < alpha < a < b < beta < 1.0):
        raise PreconditionError("need 0 < α < a < b < β < 1")
    p, q = (_real(v, "weight p, q", PreconditionError, positive=True) for v in (p, q))
    if _count(grid_points, "grid_points", PreconditionError) < 2:
        raise PreconditionError(f"grid_points must be at least 2, got {grid_points!r}")
    flags = _instance(kernel, KernelSpec, "kernel", PreconditionError).flags()
    mu = (p * (a - alpha)) / (q * (beta - b))
    # the scalar kernel sums, not numpy's log: the values every scalar caller sees (for Log,
    # kernel_eval's to the bit when p ≠ q, one log of the product when p = q)
    pair_sums = (kernel._build_sum(((p, alpha), (q, beta))), kernel._build_sum(((p, a), (q, b))))
    regions = {"left": (0.0, alpha), "right": (beta, 1.0), "inside": (a, b)}

    @cache
    def sample(region: str) -> tuple:
        """(ts, outer sums, inner sums) on the region, each computed once; −∞ if either translate is."""
        ts = np.linspace(*regions[region], grid_points)
        return (ts, *(np.fromiter(map(f, ts.tolist()), float, grid_points) for f in pair_sums))

    cases: dict[str, CaseReport] = {}

    def report(key, applicable, names, strict=False, reverse=False):
        if not applicable:
            cases[key] = CaseReport(False, None, 0.0, None)
            return
        ts, outer, inner = (np.concatenate(parts) for parts in zip(*map(sample, names)))
        lhs, rhs = (inner, outer) if reverse else (outer, inner)
        cases[key] = CaseReport(True, *_sample_le(lhs, rhs, ts, strict))

    left_case = flags.monotone_M and mu >= 1.0 - 1e-12
    right_case = flags.monotone_M and mu <= 1.0 + 1e-12
    mu_is_one = abs(mu - 1.0) <= 1e-9
    report("a", left_case, ["left"])
    report("b", right_case, ["right"])
    report("c", mu_is_one, ["left", "right"])
    strict_regions = [name for name, on in (("left", left_case), ("right", right_case)) if on]
    if mu_is_one and not strict_regions:
        strict_regions = ["left", "right"]
    report("d", flags.strictly_concave and bool(strict_regions), strict_regions, strict=True)
    # case e: reversed inequality on [a, b]; swap lhs/rhs roles
    report("e", flags.monotone_M, ["inside"], strict=flags.strictly_monotone_SM, reverse=True)
    return PerturbationReport(mu=mu, cases=cases)


# -- constructive partition move -----------------------------------------------

@dataclass(frozen=True)
class PartitionSpec:
    """Labels 'I' (shrink) or 'J' (grow) for the n+1 intervals, both present."""

    class_of: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(v) for v in _sequence(self.class_of, "partition labels", PreconditionError))
        if any(v not in ("I", "J") for v in labels):
            raise PreconditionError("labels must be 'I' or 'J'")
        if "I" not in labels or "J" not in labels:
            raise PreconditionError("partition must be non-trivial (both classes present)")
        object.__setattr__(self, "class_of", labels)

    @property
    def shrink(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.class_of) if v == "I")

    @property
    def grow(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.class_of) if v == "J")


def perturb_partition(problem: Problem, w, partition: PartitionSpec, h: float) -> NodeSystem:
    """Move nodes by ±h/r_ℓ so intervals labelled 'I' shrink and 'J' grow.

    Node ℓ sits between intervals ℓ−1 and ℓ: it moves right when the left
    neighbour grows and the right one shrinks, left in the mirrored case, and
    stays put when both neighbours share a label. The produced inclusions
    I_i(w') ⊆ I_i(w) for the shrink class and ⊇ for the grow class are exact.
    """
    ns = _checked(problem).node_system(w)
    if len(partition.class_of) != problem.n + 1:
        raise PreconditionError(f"partition must label {problem.n + 1} intervals")
    if not ns.strict():
        raise PreconditionError("node system must be strictly inside the simplex")
    h = _real(h, "step h", PreconditionError, positive=True)
    labels = partition.class_of
    moved = list(ns.nodes)
    for ell in range(1, problem.n + 1):
        left, right = labels[ell - 1], labels[ell]
        if left == right:
            continue
        delta = h / problem.r[ell - 1]
        moved[ell - 1] += delta if (left, right) == ("J", "I") else -delta
    ys = (0.0, *moved, 1.0)
    if any(b <= a for a, b in zip(ys, ys[1:])):
        raise PreconditionError("step h too large: ordering would break")
    return NodeSystem(tuple(moved))


# -- intertwining / majorization ------------------------------------------------

@dataclass(frozen=True)
class IntertwiningVerdict:
    kind: str  # "equal" | "witness" | "majorization_violation"
    below: int | None = None  # first index where m(x) < m(y) − 1e-9
    above: int | None = None  # first index where m(x) > m(y) + 1e-9
    direction: str | None = None  # for violations: which vector dominates

    @property
    def is_witness(self) -> bool:
        return self.kind == "witness"


def check_intertwining(problem: Problem, x, y) -> IntertwiningVerdict:
    """Compare the interval-maxima vectors of two regular node systems; maxima within 1e-9 tie."""
    nx = _checked(problem).node_system(x)
    ny = problem.node_system(y)
    return _verdict(nx, _regular_maxima(problem, nx), ny, _regular_maxima(problem, ny))


def _verdict(nx: NodeSystem, mx, ny: NodeSystem, my) -> IntertwiningVerdict:
    """The one verdict on a pair: nodes within 1e-12, or maxima all within the tie, are "equal"."""
    if max(abs(a - b) for a, b in zip(nx.nodes, ny.nodes)) <= 1e-12:
        return IntertwiningVerdict("equal")
    diffs = [a - b for a, b in zip(mx, my)]
    below = next((i for i, d in enumerate(diffs) if d < -_TIE), None)
    above = next((i for i, d in enumerate(diffs) if d > _TIE), None)
    if below is not None and above is not None:
        return IntertwiningVerdict("witness", below=below, above=above)
    if below is None and above is None:
        return IntertwiningVerdict("equal")
    direction = "x_dominates_y" if above is not None else "y_dominates_x"
    return IntertwiningVerdict(
        "majorization_violation", below=below, above=above, direction=direction
    )


def sample_regular_nodes(problem: Problem, rng: np.random.Generator) -> NodeSystem:
    """A random node system in the regularity set whose node gaps are at least 1e-3."""
    return _sample_regular(problem, rng)[0]


def _sample_regular(problem: Problem, rng: np.random.Generator) -> tuple[NodeSystem, list[float]]:
    """:func:`sample_regular_nodes` with the interval maxima it computed to test regularity."""
    _require_singular(problem)
    _instance(rng, np.random.Generator, "rng", PreconditionError)
    for _ in range(_MAX_TRIES):
        draw = np.sort(rng.uniform(_MIN_GAP, 1.0 - _MIN_GAP, size=problem.n))
        if problem.n > 1 and np.min(np.diff(draw)) < _MIN_GAP:
            continue
        ns = NodeSystem(tuple(draw.tolist()))
        try:
            return ns, _regular_maxima(problem, ns)
        except RegularityError:
            continue
    raise RegularityError("could not sample a regular node system")


@dataclass(frozen=True)
class MajorizationScanReport:
    checked: int
    strict_violations: int
    weak_dominations: int
    hypotheses_met: bool
    examples: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]


def check_strict_majorization_excluded(
    problem: Problem,
    samples: int = 500,
    *,
    seed: int = 0,
    pairs=None,
) -> MajorizationScanReport:
    """Scan node-system pairs for strict coordinatewise domination of the maxima.

    Under a singular monotone kernel strict domination can never occur; the
    scan reports how many pairs were checked, any strict violations found,
    and one-sided weak dominations (ties allowed) separately. Pairs may be
    supplied explicitly, e.g. to validate the checker on kernels outside the
    hypotheses, where strict domination genuinely happens.
    """
    flags = _checked(problem).kernel.flags()
    hypotheses = flags.singular and flags.monotone_M
    rng = np.random.default_rng(_count(seed, "seed", PreconditionError))
    if _count(samples, "samples", PreconditionError) < 0:
        raise PreconditionError(f"samples must be at least 0, got {samples!r}")
    if pairs is None:
        # the sampler's maxima are the scan's: each node system's are computed once
        scan = [(*_sample_regular(problem, rng), *_sample_regular(problem, rng)) for _ in range(samples)]
    else:
        pairs = [_sequence(pair, "pair", PreconditionError) for pair in _sequence(pairs, "pairs", PreconditionError)]
        if any(len(pair) != 2 for pair in pairs):
            raise PreconditionError("each pair must hold two node systems")
        scan = []
        for x, y in pairs:
            nx = problem.node_system(x)
            ny = problem.node_system(y)
            try:
                scan.append((nx, _regular_maxima(problem, nx), ny, _regular_maxima(problem, ny)))
            except RegularityError:
                continue
    violations = [pair for pair in scan if _verdict(*pair).kind == "majorization_violation"]
    # a violation is strict when no maximum ties, weak when one does
    strict = [
        (nx.nodes, ny.nodes) for nx, mx, ny, my in violations if all(abs(a - b) > _TIE for a, b in zip(mx, my))
    ]
    return MajorizationScanReport(
        checked=len(scan),
        strict_violations=len(strict),
        weak_dominations=len(violations) - len(strict),
        hypotheses_met=hypotheses,
        examples=tuple(strict[:8]),
    )
