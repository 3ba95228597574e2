import math

import numpy as np
import pytest

import equiosc as eq
from equiosc.catalog import build_problem

LOG_HALF = -0.6931471805599453


def test_symmetric_n1():
    problem = eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0))
    grid = eq.GridSpec(points_per_dim=1001, refine_rounds=2)
    nodes, value = eq.grid_minimax(problem, grid)
    assert nodes.nodes[0] == pytest.approx(0.5, abs=1e-4)
    assert value == pytest.approx(LOG_HALF, abs=1e-4)
    nodes2, value2 = eq.grid_maximin(problem, grid)
    assert nodes2.nodes[0] == pytest.approx(0.5, abs=1e-4)
    assert value2 == pytest.approx(LOG_HALF, abs=1e-4)


def test_boundary_optimum_nonsingular():
    problem = build_problem("singularity_5_1")
    grid = eq.GridSpec(points_per_dim=11, refine_rounds=2)
    nodes, value = eq.grid_minimax(problem, grid)
    assert max(nodes.nodes) <= 1e-3
    assert value == pytest.approx(12.0, abs=1e-3)
    nodes2, value2 = eq.grid_maximin(problem, grid)
    assert max(nodes2.nodes) <= 1e-3
    assert value2 == pytest.approx(12.0, abs=1e-3)


def test_degenerate_minimax_nonmonotone_kernel():
    problem = build_problem("monotonicity_5_2")
    grid = eq.GridSpec(points_per_dim=51, refine_rounds=2)
    nodes, value = eq.grid_minimax(problem, grid)
    assert nodes.nodes[0] == pytest.approx(0.0, abs=1e-3)
    assert value == pytest.approx(11.0 / 8.0, abs=1e-6)


def test_maximin_plateau_reported():
    problem = build_problem("strictness_5_3")
    cells = eq.grid_near_optimal(
        problem, eq.GridSpec(points_per_dim=81, refine_rounds=0), mode="maximin", tol=1e-9
    )
    xs = [nodes[0] for nodes, _ in cells]
    # the maximin value 0 is attained on the whole segment [a, 1 − a/e]
    assert min(xs) <= 0.26
    assert max(xs) >= 0.89
    a, lo_end = 0.25, 1.0 - 0.25 / math.e
    assert all(a - 0.02 <= x <= lo_end + 0.02 for x in xs)


def test_sandwich_between_grid_values(rng):
    problem = eq.Problem(2, (1.0, 1.5), eq.Log(), eq.sqrt_affine_field(1.0, 1.0, 0.0))
    grid = eq.GridSpec(points_per_dim=21, refine_rounds=1)
    _, v_min = eq.grid_minimax(problem, grid)
    _, v_max = eq.grid_maximin(problem, grid)
    assert v_max <= v_min + 1e-2  # pitch tolerance


def test_budget_errors():
    problem = eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    with pytest.raises(eq.BudgetError):
        eq.grid_minimax(problem, eq.GridSpec(points_per_dim=100001, refine_rounds=9))
    big = eq.Problem(5, (1.0,) * 5, eq.Log(), eq.constant_field(0.0))
    with pytest.raises(eq.BudgetError):
        eq.grid_minimax(big, eq.GridSpec(points_per_dim=5))


def test_threads_match_sequential():
    problem = eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    grid = eq.GridSpec(points_per_dim=11, refine_rounds=1)
    seq = eq.grid_minimax(problem, grid, threads=1)
    with pytest.warns(DeprecationWarning):
        par = eq.grid_minimax(problem, grid, threads=2)
    assert seq[0].nodes == par[0].nodes
    assert seq[1] == par[1]


def test_near_optimal_rejects_unknown_mode():
    problem = eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0))
    with pytest.raises(eq.PreconditionError):
        eq.grid_near_optimal(problem, eq.GridSpec(points_per_dim=5), mode="x")


def test_oracle_matches_solver_small():
    problem = eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    report = eq.solve_equioscillation(problem)
    nodes, value = eq.grid_minimax(problem, eq.GridSpec(points_per_dim=41, refine_rounds=2))
    assert value == pytest.approx(report.value, abs=1e-3)
    assert max(abs(a - b) for a, b in zip(nodes.nodes, report.nodes.nodes)) <= 1e-2
