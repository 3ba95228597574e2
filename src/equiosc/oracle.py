"""Brute-force grid search over the closed simplex.

The oracle evaluates m̄ (or m̲) on a lattice of nondecreasing node tuples and
refines by shrinking a box around the incumbent tenfold per round. It is the
independent ground-truth generator at small n, and the only tool that applies
when a kernel violates the solver's hypotheses. It runs single-threaded: the
``threads`` argument is deprecated, and a value other than 1 only warns. Ties
break to the lexicographically smallest node vector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, PreconditionError
from .extreal import NEG_INFINITY
from .problem import NodeSystem, Problem
from .translates import _maxima_floats

__all__ = ["GridSpec", "grid_maximin", "grid_minimax", "grid_near_optimal"]


@dataclass(frozen=True)
class GridSpec:
    points_per_dim: int = 21
    refine_rounds: int = 2
    budget: float = 1e8

    def __post_init__(self):
        if self.points_per_dim < 2:
            raise BudgetError("points_per_dim must be at least 2")
        if self.refine_rounds < 0:
            raise BudgetError("refine_rounds must be non-negative")


def _check_budget(problem: Problem, grid: GridSpec) -> None:
    if problem.n > 4:
        raise BudgetError("grid oracle supports n ≤ 4")
    cost = float(grid.points_per_dim) ** problem.n * (grid.refine_rounds + 1)
    if cost > grid.budget:
        raise BudgetError(
            f"{grid.points_per_dim}^{problem.n} × {grid.refine_rounds + 1} "
            f"evaluations exceed the budget {grid.budget:g}"
        )


def _lattice(ranges: list[tuple[float, float]], points: int):
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


def _objective(problem: Problem, nodes: tuple[float, ...], mode: str, xtol: float) -> float:
    vals, _ = _maxima_floats(problem, (0.0, *nodes, 1.0), xtol)
    if mode == "minimax":
        return max(vals)
    return min(vals)  # −∞ as soon as one maximum is


def _evaluate(problem, ranges, points, mode, xtol):
    """The lattice cells over ``ranges`` and the objective at each of them."""
    cells = list(_lattice(ranges, points))
    return cells, [_objective(problem, c, mode, xtol) for c in cells]


def _scan(problem, ranges, points, mode, xtol):
    better = (lambda v, b: v < b) if mode == "minimax" else (lambda v, b: v > b)
    best_nodes: tuple[float, ...] | None = None
    best_val = math.inf if mode == "minimax" else NEG_INFINITY
    for nodes, val in zip(*_evaluate(problem, ranges, points, mode, xtol)):
        if best_nodes is None or better(val, best_val):
            best_nodes, best_val = nodes, val
    return best_nodes, best_val


def _search(problem: Problem, grid: GridSpec, mode: str, xtol: float, threads: int):
    if threads != 1:
        warnings.warn("threads is deprecated and ignored", DeprecationWarning, stacklevel=3)
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
    _check_budget(problem, grid)
    if mode not in ("minimax", "maximin"):
        raise PreconditionError("mode must be 'minimax' or 'maximin'")
    cells, values = _evaluate(problem, [(0.0, 1.0)] * problem.n, grid.points_per_dim, mode, xtol)
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return []
    best = min(finite) if mode == "minimax" else max(finite)
    keep = []
    for nodes, val in zip(cells, values):
        if not math.isfinite(val):
            continue
        if abs(val - best) <= tol:
            keep.append((nodes, val))
    return keep
