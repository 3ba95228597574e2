"""Brute-force grid search over the closed simplex.

The oracle evaluates m̄ (or m̲) on a lattice of nondecreasing node tuples and
refines by shrinking a box around the incumbent tenfold per round. It is the
independent ground-truth generator at small n, and the only tool that applies
when a kernel violates the solver's hypotheses.

Both problems are searched in one orientation: with sign = +1 for the
minimax and −1 for the maximin, a cell's cost is max_j sign·m_j and the
least cost wins; the value reported is sign·cost, m̄ or m̲ at that cell.

Each scan builds its lattice as one array and evaluates the n + 1 interval
maxima of every cell at once with :func:`translates._maxima_batch`, which
follows the scalar maximizer's cuts and end checks, searches the remaining
pieces by a numpy lockstep bracket search (seven samples per piece and step,
the bracket shrinking fourfold) and agrees with the scalar maximizer to
1e-12 relative; the cells go through in fixed-size chunks, so memory does
not grow with the lattice. The search is pruned: concavity bounds each
searched piece's maximum at every step, and a cell whose cost is certainly
greater than the least cell's (by more than ``tol`` in
:func:`grid_near_optimal`) stops being searched, each chunk starting from
the least cost of the chunks before it. A pruned cell's cost is only a
bound; the cells that can win, and so every returned node system and
value, are exactly those of a search without pruning, as long as the
rounding in the bounds stays below the pruning margin,
1e-12·max(1, |cost|); rounding that grows with the size of the summed
terms could exceed it where large terms cancel to a cost near 0 (see
:func:`_losing`). Ties break to the lexicographically smallest node vector,
the first in lattice order. It runs single-threaded: the ``threads``
argument is deprecated, and a value other than 1 only warns. The problem
must be a ``Problem`` and the grid a ``GridSpec``, grid counts integers
and ``tol`` finite and non-negative, else ``PreconditionError``. A search
over n > 4 nodes, or of more than 1e8 lattice evaluations
(points_per_dim^n × (refine_rounds + 1)), raises ``BudgetError``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BudgetError, PreconditionError
from .extreal import _count, _instance, _real
from .problem import NodeSystem, Problem
from .translates import _maxima_batch

__all__ = ["GridSpec", "grid_maximin", "grid_minimax", "grid_near_optimal"]

# node intervals per _maxima_batch call; a 64-point scan of one piece in each
# is 1 MB of samples
_BATCH_INTERVALS = 2048
# lattice evaluations a search may make, points_per_dim^n × (refine_rounds + 1)
_BUDGET = 1e8


@dataclass(frozen=True)
class GridSpec:
    points_per_dim: int = 21
    refine_rounds: int = 2

    def __post_init__(self):
        for name in ("points_per_dim", "refine_rounds"):
            object.__setattr__(self, name, _count(getattr(self, name), name, PreconditionError))
        if self.points_per_dim < 2:
            raise BudgetError("points_per_dim must be at least 2")
        if self.refine_rounds < 0:
            raise BudgetError("refine_rounds must be non-negative")


def _check_budget(problem: Problem, grid: GridSpec) -> None:
    _instance(problem, Problem, "problem", PreconditionError)
    _instance(grid, GridSpec, "grid", PreconditionError)
    if problem.n > 4:
        raise BudgetError("grid oracle supports n ≤ 4")
    cost = float(grid.points_per_dim) ** problem.n * (grid.refine_rounds + 1)
    if cost > _BUDGET:
        raise BudgetError(
            f"{grid.points_per_dim}^{problem.n} × {grid.refine_rounds + 1} "
            f"evaluations exceed the budget {_BUDGET:g}"
        )


def _lattice(ranges: list[tuple[float, float]], points: int) -> np.ndarray:
    """The nondecreasing cells of the ``points``-per-axis lattice over ``ranges``.

    One row per cell, in lexicographic order: each axis in turn extends every
    row by the axis values not below its last coordinate.
    """
    cells = np.empty((1, 0))
    last = np.zeros(1)
    for lo, hi in ranges:
        axis = np.linspace(lo, hi, points)
        row, col = np.nonzero(axis[None, :] >= last[:, None])
        cells = np.column_stack([cells[row], axis[col]])
        last = axis[col]
    return cells


def _losing(sign: int, tol: float, attained: float):
    """The ``losing`` test of :func:`translates._maxima_batch` for the cost max_j sign·m_j, least wins.

    It takes bounds lo ≤ m ≤ hi on the (cells, n + 1) interval maxima m. The
    incumbent is the least upper bound on the cost among the cells where it
    is certainly finite, or the finite cost ``attained`` by a cell elsewhere
    (+∞: none) if that is less; a cell loses when its cost is certainly
    greater than the incumbent by more than ``tol`` + 1e-12·max(1,
    |incumbent|), a margin for rounding in the bounds. That rounding grows
    with the size of the summed terms, not with the cost's, so where large
    terms cancel to a cost near 0 it could exceed the margin; the answers
    are exact only while it does not.
    """

    def losing(lo, hi):
        # the bounds on sign·m: (lo, hi) itself, or (−hi, −lo) when sign = −1
        lo, hi = (sign * bound for bound in (lo, hi)[::sign])
        # column by column: numpy's max over a short axis 1 is ten times slower
        cell_lo, cell_hi = reduce(np.maximum, lo.T), reduce(np.maximum, hi.T)
        finite = (cell_lo > -np.inf) & (cell_hi < np.inf)
        incumbent = cell_hi[finite].min(initial=attained)  # +∞: no cell loses
        return cell_lo > incumbent + tol + 1e-12 * max(1.0, abs(incumbent))

    return losing


def _evaluate(problem, ranges, points, sign, tol=0.0):
    """The lattice cells over ``ranges`` and the cost max_j sign·m_j at each of them.

    The cost is exact at every cell that can come within ``tol`` of the
    least; elsewhere it is only a bound, greater than the least by more than
    ``tol`` (see :func:`_losing`). Each chunk starts from the least finite
    cost of the chunks before it.
    """
    cells = _lattice(ranges, points)
    step = max(1, _BATCH_INTERVALS // (problem.n + 1))
    costs = np.empty(0)
    for start in range(0, len(cells), step):
        attained = costs[np.isfinite(costs)].min(initial=np.inf)
        maxima = _maxima_batch(problem, cells[start : start + step], _losing(sign, tol, attained))
        # column by column: a max over axis 1 is slow
        costs = np.concatenate([costs, reduce(np.maximum, (sign * maxima).T)])
    return cells, costs


def _scan(problem, ranges, points, sign):
    cells, costs = _evaluate(problem, ranges, points, sign)
    best = int(np.argmin(costs))  # first of ties
    return tuple(float(v) for v in cells[best]), sign * float(costs[best])


def _search(problem: Problem, grid: GridSpec, sign: int, threads: int):
    if threads != 1:
        warnings.warn("threads is deprecated and ignored", DeprecationWarning, stacklevel=3)
    _check_budget(problem, grid)
    n = problem.n
    ranges = [(0.0, 1.0)] * n
    width = 1.0
    best_nodes, best_val = _scan(problem, ranges, grid.points_per_dim, sign)
    for _ in range(grid.refine_rounds):
        width /= 10.0
        ranges = [
            (max(0.0, y - 0.5 * width), min(1.0, y + 0.5 * width)) for y in best_nodes
        ]
        best_nodes, best_val = _scan(problem, ranges, grid.points_per_dim, sign)
    return NodeSystem(best_nodes), best_val


def grid_minimax(
    problem: Problem,
    grid: GridSpec = GridSpec(),
    *,
    threads: int = 1,
) -> tuple[NodeSystem, float]:
    """Grid point minimizing m̄ over the closed simplex, with refinement."""
    return _search(problem, grid, 1, threads)


def grid_maximin(
    problem: Problem,
    grid: GridSpec = GridSpec(),
    *,
    threads: int = 1,
) -> tuple[NodeSystem, float]:
    """Grid point maximizing m̲ over the closed simplex, with refinement."""
    return _search(problem, grid, -1, threads)


def grid_near_optimal(
    problem: Problem,
    grid: GridSpec = GridSpec(),
    *,
    mode: str = "maximin",
    tol: float = 1e-6,
) -> list[tuple[tuple[float, ...], float]]:
    """All first-round grid cells whose objective is within tol of the best.

    Useful to surface plateaus where the extremum is attained on a whole set
    of node systems rather than a single point.
    """
    if mode not in ("minimax", "maximin"):
        raise PreconditionError("mode must be 'minimax' or 'maximin'")
    if _real(tol, "tol", PreconditionError) < 0.0:
        raise PreconditionError(f"tol must be non-negative, got {tol!r}")
    _check_budget(problem, grid)
    sign = 1 if mode == "minimax" else -1
    cells, costs = _evaluate(problem, [(0.0, 1.0)] * problem.n, grid.points_per_dim, sign, tol)
    finite = np.flatnonzero(np.isfinite(costs))
    keep = finite[costs[finite] - costs[finite].min(initial=np.inf) <= tol]
    return [(tuple(float(v) for v in cells[i]), sign * float(costs[i])) for i in keep]
