import math

import numpy as np
import pytest

import equiosc as eq
from equiosc import translates
from equiosc.catalog import build_problem
from equiosc.fields import Constant, Indicator, LogOfWeight, NegInfinityPiece, Piece, PiecewiseField, SqrtAffine
from equiosc.translates import _maxima_batch, _maxima_floats
from golden_reference import reference_grid_search

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


# -- settings are validated up front --------------------------------------------

@pytest.mark.parametrize(
    "settings",
    [
        {"points_per_dim": 5.0},
        {"refine_rounds": 1.5},
        {"points_per_dim": True},
        {"refine_rounds": np.bool_(False)},
        {"points_per_dim": "5"},
        {"budget": math.nan},
        {"budget": math.inf},
        {"budget": 0.0},
        {"budget": -1.0},
        {"budget": True},
    ],
)
def test_grid_spec_rejects_non_integral_counts_and_bad_budgets(settings):
    with pytest.raises(eq.PreconditionError):
        eq.GridSpec(**settings)


@pytest.mark.parametrize("settings", [{"points_per_dim": 1}, {"refine_rounds": -1}])
def test_grid_spec_ranges_are_budget_errors(settings):
    with pytest.raises(eq.BudgetError):
        eq.GridSpec(**settings)


def test_grid_spec_accepts_numpy_integers():
    grid = eq.GridSpec(points_per_dim=np.int64(5), refine_rounds=np.int32(1))
    assert type(grid.points_per_dim) is int and grid.points_per_dim == 5
    assert type(grid.refine_rounds) is int and grid.refine_rounds == 1
    assert grid == eq.GridSpec(points_per_dim=5, refine_rounds=1)


@pytest.mark.parametrize("search", [eq.grid_minimax, eq.grid_maximin, eq.grid_near_optimal])
@pytest.mark.parametrize("xtol", [math.nan, 0.0, -1.0, math.inf, "1e-12"])
def test_oracle_rejects_bad_xtol(search, xtol):
    problem = eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0))
    with pytest.raises(eq.PreconditionError):
        search(problem, eq.GridSpec(points_per_dim=5), xtol=xtol)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_near_optimal_rejects_bad_tol(tol):
    problem = eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0))
    with pytest.raises(eq.PreconditionError):
        eq.grid_near_optimal(problem, eq.GridSpec(points_per_dim=5), tol=tol)


def test_near_optimal_checks_mode_before_budget():
    big = eq.Problem(5, (1.0,) * 5, eq.Log(), eq.constant_field(0.0))
    with pytest.raises(eq.PreconditionError):
        eq.grid_near_optimal(big, eq.GridSpec(points_per_dim=5), mode="x")
    with pytest.raises(eq.BudgetError):
        eq.grid_near_optimal(big, eq.GridSpec(points_per_dim=5))


def test_near_optimal_zero_tol_keeps_the_ties():
    problem = eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0))
    cells = eq.grid_near_optimal(problem, eq.GridSpec(points_per_dim=5), mode="minimax", tol=0.0)
    assert cells == [((0.5,), pytest.approx(LOG_HALF, abs=1e-15))]


# -- batched lattice evaluation = scalar maxima -----------------------------------

KERNELS = [
    eq.Log(),
    eq.CappedLog(0.2),
    eq.SqrtShift(),
    eq.TentLog(),
    eq.CappedLogPlusQuadratic(0.15),
    eq.Regularized(eq.CappedLog(0.3), 0.5),
]

FIELDS = {
    "one_piece": eq.constant_field(0.3),
    # a non-concave middle piece, a log weight vanishing at t = 1, two overrides
    "pieces_overrides": PiecewiseField(
        (
            Piece(0.0, 0.3, Constant(0.5)),
            Piece(0.3, 0.6, SqrtAffine(-1.0, 1.0, 0.0)),
            Piece(0.6, 1.0, LogOfWeight(SqrtAffine(2.0, -1.0, 1.0))),
        ),
        ((0.45, 3.0), (0.8, -1.0)),
    ),
    # a −∞ piece carrying an override, then a jump
    "minus_infinity_piece": PiecewiseField(
        (
            Piece(0.0, 0.2, NegInfinityPiece()),
            Piece(0.2, 0.7, Indicator(1.0)),
            Piece(0.7, 1.0, SqrtAffine(-2.0, 1.0, 0.7)),
        ),
        ((0.1, 0.4),),
    ),
}


def _cells(rng, n, count=24):
    """Random nondecreasing cells; a third snapped to tenths (ties, nodes at 0 and 1)."""
    Y = np.sort(rng.uniform(0.0, 1.0, size=(count, n)), axis=1)
    Y[: count // 3] = np.round(Y[: count // 3] * 10.0) / 10.0
    return np.vstack([Y, np.zeros((1, n)), np.ones((1, n))])


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
def test_maxima_batch_matches_scalar_maxima(kernel):
    rng = np.random.default_rng(20240817)
    for field in FIELDS.values():
        for n in (1, 2, 3):
            problem = eq.Problem(n, tuple(rng.uniform(0.5, 2.0, size=n)), kernel, field)
            Y = _cells(rng, n)
            batch = _maxima_batch(problem, Y, 1e-12)
            scalar = np.array([_maxima_floats(problem, (0.0, *y, 1.0), 1e-12)[0] for y in Y])
            assert batch.shape == (len(Y), n + 1)
            assert np.array_equal(np.isneginf(batch), np.isneginf(scalar))
            assert np.all(np.isfinite(batch) | np.isneginf(batch))
            finite = np.isfinite(scalar)
            dev = np.abs(batch[finite] - scalar[finite])
            assert np.all(dev <= 1e-12 * np.maximum(1.0, np.abs(scalar[finite])))


ORACLE_CASES = [
    ("symmetric_n1", eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0)), 201),
    ("singularity_5_1", build_problem("singularity_5_1"), 11),
    ("monotonicity_5_2", build_problem("monotonicity_5_2"), 51),
    ("strictness_5_3", build_problem("strictness_5_3"), 81),
    ("sqrt_field", eq.Problem(2, (1.0, 1.5), eq.Log(), eq.sqrt_affine_field(1.0, 1.0, 0.0)), 21),
    ("log_n2", eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0)), 11),
]


@pytest.mark.parametrize("name, problem, points", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
@pytest.mark.parametrize("mode", ["minimax", "maximin"])
def test_oracle_matches_scalar_reference(name, problem, points, mode):
    grid = eq.GridSpec(points_per_dim=points, refine_rounds=2)
    search = eq.grid_minimax if mode == "minimax" else eq.grid_maximin
    nodes, value = search(problem, grid)
    ref_nodes, ref_value, gaps = reference_grid_search(problem, grid, mode)
    if math.isfinite(ref_value):
        assert abs(value - ref_value) <= 1e-12 * max(1.0, abs(ref_value))
    else:
        assert value == ref_value
    # the cells may differ only where two of the reference's cells tie to 1e-12
    assert nodes.nodes == ref_nodes or min(gaps) <= 1e-12


def test_oracle_makes_no_scalar_maximizations(monkeypatch):
    """Work gate: the lattice goes through the batch, not the scalar maximizer."""
    calls = {"maximize": 0}
    maximize = translates._maximize

    def counted_maximize(*args, **kwargs):
        calls["maximize"] += 1
        return maximize(*args, **kwargs)

    monkeypatch.setattr(translates, "_maximize", counted_maximize)
    problem = eq.Problem(2, (1.0, 1.3), eq.Regularized(eq.CappedLog(0.3), 0.8), eq.constant_field(0.2))
    nodes, _ = eq.grid_minimax(problem, eq.GridSpec(points_per_dim=41, refine_rounds=2))
    assert calls["maximize"] == 0
    eq.interval_maxima(problem, nodes)
    assert calls["maximize"] == problem.n + 1
