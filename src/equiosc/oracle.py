"""Brute-force grid search over the closed simplex.

The oracle evaluates m̄ (or m̲) on a lattice of nondecreasing node tuples and
refines by shrinking a box around the incumbent tenfold per round. It is the
independent ground-truth generator at small n, and the only tool that applies
when a kernel violates the solver's hypotheses.

Each scan builds its lattice as one array and evaluates the n + 1 interval
maxima of every cell at once with :func:`translates._maxima_batch`, a numpy
lockstep search that follows the scalar maximizer's cuts and end checks and
agrees with it to 1e-12 relative; the cells go through in fixed-size chunks,
so memory does not grow with the lattice. Ties break to the lexicographically
smallest node vector, the first in lattice order. It runs single-threaded:
the ``threads`` argument is deprecated, and a value other than 1 only warns.
Grid counts must be integers, the budget and ``xtol`` finite and positive and
``tol`` finite and non-negative, else ``PreconditionError``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PreconditionError
from .problem import NodeSystem, Problem
from .solver import _as_int, _check_real
from .translates import _maxima_batch

__all__ = ["GridSpec", "grid_maximin", "grid_minimax", "grid_near_optimal"]

# node intervals per _maxima_batch call; a 64-point scan of one piece in each
# is 1 MB of samples
_BATCH_INTERVALS = 2048


@dataclass(frozen=True)
class GridSpec:
    points_per_dim: int = 21
    refine_rounds: int = 2
    budget: float = 1e8

    def __post_init__(self):
        for name in ("points_per_dim", "refine_rounds"):
            count = _as_int(getattr(self, name))
            if count is None:
                raise PreconditionError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, count)
        if self.points_per_dim < 2:
            raise BudgetError("points_per_dim must be at least 2")
        if self.refine_rounds < 0:
            raise BudgetError("refine_rounds must be non-negative")
        object.__setattr__(self, "budget", _check_real("budget", self.budget, positive=True))


def _check_budget(problem: Problem, grid: GridSpec) -> None:
    if problem.n > 4:
        raise BudgetError("grid oracle supports n ≤ 4")
    cost = float(grid.points_per_dim) ** problem.n * (grid.refine_rounds + 1)
    if cost > grid.budget:
        raise BudgetError(
            f"{grid.points_per_dim}^{problem.n} × {grid.refine_rounds + 1} "
            f"evaluations exceed the budget {grid.budget:g}"
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


def _evaluate(problem, ranges, points, mode, xtol):
    """The lattice cells over ``ranges`` and the objective at each of them."""
    cells = _lattice(ranges, points)
    reduce = np.max if mode == "minimax" else np.min  # min is −∞ as soon as one maximum is
    step = max(1, _BATCH_INTERVALS // (problem.n + 1))
    values = np.concatenate([
        reduce(_maxima_batch(problem, cells[start : start + step], xtol), axis=1)
        for start in range(0, len(cells), step)
    ])
    return cells, values


def _scan(problem, ranges, points, mode, xtol):
    cells, values = _evaluate(problem, ranges, points, mode, xtol)
    best = int(np.argmin(values) if mode == "minimax" else np.argmax(values))  # first of ties
    return tuple(float(v) for v in cells[best]), float(values[best])


def _search(problem: Problem, grid: GridSpec, mode: str, xtol: float, threads: int):
    if threads != 1:
        warnings.warn("threads is deprecated and ignored", DeprecationWarning, stacklevel=3)
    xtol = _check_real("xtol", xtol, positive=True)
    _check_budget(problem, grid)
    n = problem.n
    ranges = [(0.0, 1.0)] * n
    width = 1.0
    best_nodes, best_val = _scan(problem, ranges, grid.points_per_dim, mode, xtol)
    for _ in range(grid.refine_rounds):
        width /= 10.0
        ranges = [
            (max(0.0, y - 0.5 * width), min(1.0, y + 0.5 * width)) for y in best_nodes
        ]
        best_nodes, best_val = _scan(problem, ranges, grid.points_per_dim, mode, xtol)
    return NodeSystem(best_nodes), best_val


def grid_minimax(
    problem: Problem,
    grid: GridSpec = GridSpec(),
    *,
    xtol: float = 1e-12,
    threads: int = 1,
) -> tuple[NodeSystem, float]:
    """Grid point minimizing m̄ over the closed simplex, with refinement."""
    return _search(problem, grid, "minimax", xtol, threads)


def grid_maximin(
    problem: Problem,
    grid: GridSpec = GridSpec(),
    *,
    xtol: float = 1e-12,
    threads: int = 1,
) -> tuple[NodeSystem, float]:
    """Grid point maximizing m̲ over the closed simplex, with refinement."""
    return _search(problem, grid, "maximin", xtol, threads)


def grid_near_optimal(
    problem: Problem,
    grid: GridSpec = GridSpec(),
    *,
    mode: str = "maximin",
    tol: float = 1e-6,
    xtol: float = 1e-12,
) -> list[tuple[tuple[float, ...], float]]:
    """All first-round grid cells whose objective is within tol of the best.

    Useful to surface plateaus where the extremum is attained on a whole set
    of node systems rather than a single point.
    """
    if mode not in ("minimax", "maximin"):
        raise PreconditionError("mode must be 'minimax' or 'maximin'")
    if _check_real("tol", tol) < 0.0:
        raise PreconditionError(f"tol must be non-negative, got {tol!r}")
    xtol = _check_real("xtol", xtol, positive=True)
    _check_budget(problem, grid)
    cells, values = _evaluate(problem, [(0.0, 1.0)] * problem.n, grid.points_per_dim, mode, xtol)
    finite = np.isfinite(values)
    if not finite.any():
        return []
    best = values[finite].min() if mode == "minimax" else values[finite].max()
    keep = np.flatnonzero(finite & (np.abs(values - best) <= tol))
    return [(tuple(float(v) for v in cells[i]), float(values[i])) for i in keep]
