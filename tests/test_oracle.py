import functools
import math

import numpy as np
import pytest

import equiosc as eq
from equiosc import oracle, translates
from equiosc.catalog import build_problem
from equiosc.fields import Constant, Indicator, LogOfWeight, NegInfinityPiece, Piece, PiecewiseField, SqrtAffine
from equiosc.translates import _maxima_batch, _maxima_floats
from golden_reference import reference_grid_search, reference_scalar_interval_max

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


@pytest.mark.parametrize("search", [eq.grid_minimax, eq.grid_maximin, eq.grid_near_optimal])
def test_searches_reject_arguments_that_are_not_library_objects(search):
    problem = eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0))
    with pytest.raises(eq.PreconditionError):
        search(problem, None)
    with pytest.raises(eq.PreconditionError):
        search(None, eq.GridSpec(points_per_dim=5))


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
    # the argmax tolerance is fixed at translates._XTOL: the oracle refuses any xtol
    problem = eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0))
    with pytest.raises(TypeError, match="unexpected keyword argument"):
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


def test_near_optimal_is_empty_when_no_cell_is_finite():
    """A field that is −∞ but at 0.1 and 0.2: on the lattice {0, 1} every cell's m̲ is −∞."""
    field = PiecewiseField((Piece(0.0, 1.0, NegInfinityPiece()),), ((0.1, 0.0), (0.2, 0.0)))
    problem = eq.Problem(1, (1.0,), eq.Log(), field)
    assert eq.grid_near_optimal(problem, eq.GridSpec(2, 0), mode="maximin") == []


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


def _box_cells(rng, n, width, count=8):
    """Random nondecreasing cells in a refine-round box of the given width around a random incumbent."""
    incumbent = np.sort(rng.uniform(0.0, 1.0, size=n))
    lo = np.maximum(0.0, incumbent - 0.5 * width)
    hi = np.minimum(1.0, incumbent + 0.5 * width)
    return np.sort(rng.uniform(lo, hi, size=(count, n)), axis=1)


def _narrow_cells(n):
    """Cells with an interval 1e-15 to 4e-13 wide at a node: beside 0, beside 1 or between two nodes."""
    base = np.arange(1, n + 1) / (n + 1)
    rows = []
    for w in (1e-15, 1e-13, 3e-13, 4e-13):
        rows += [np.r_[w, base[1:]], np.r_[base[:-1], 1.0 - w]]
        if n > 1:
            rows.append(np.r_[base[:-1], base[-2] + w])
    return np.array(rows)


@functools.cache
def _batch_cases(kernel):
    """(field, n, problem, Y, scalar maxima at Y) for each problem the batch tests draw for ``kernel``."""
    rng = np.random.default_rng(20240817)
    cases = []
    for field in FIELDS.values():
        for n in (1, 2, 3, 4):
            problem = eq.Problem(n, tuple(rng.uniform(0.5, 2.0, size=n)), kernel, field)
            Y = np.vstack([_cells(rng, n), _box_cells(rng, n, 1e-2), _box_cells(rng, n, 1e-3), _narrow_cells(n)])
            scalar = np.array([_maxima_floats(problem, (0.0, *y, 1.0))[0] for y in Y])
            Y.flags.writeable = scalar.flags.writeable = False  # cached: shared by the tests that read them
            cases.append((field, n, problem, Y, scalar))
    return tuple(cases)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
def test_maxima_batch_matches_scalar_maxima(kernel):
    for _, n, problem, Y, scalar in _batch_cases(kernel):
        batch = _maxima_batch(problem, Y)
        assert batch.shape == (len(Y), n + 1)
        assert np.array_equal(np.isneginf(batch), np.isneginf(scalar))
        assert np.all(np.isfinite(batch) | np.isneginf(batch))
        finite = np.isfinite(scalar)
        dev = np.abs(batch[finite] - scalar[finite])
        assert np.all(dev <= 1e-12 * np.maximum(1.0, np.abs(scalar[finite])))


def _hex(values):
    return tuple(None if v is None else float(v).hex() for v in values)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
def test_maxima_vector_is_bit_identical_to_per_interval_set_up(kernel):
    """One set-up per maxima vector gives the argmaxima and values of one set-up per interval, to the bit."""
    rng = np.random.default_rng(20240817)
    degenerate = 0
    for field in FIELDS.values():
        for n in (1, 2, 3):
            problem = eq.Problem(n, tuple(rng.uniform(0.5, 2.0, size=n)), kernel, field)
            for y in _cells(rng, n):
                ys = (0.0, *(float(v) for v in y), 1.0)
                vals, args = _maxima_floats(problem, ys)
                for j in range(n + 1):
                    want = _hex(reference_scalar_interval_max(problem, ys, j))
                    assert _hex((args[j], vals[j])) == want, (field, ys, j)
                    assert _hex(translates._interval_max(problem, ys, j)) == want, (field, ys, j)
                    degenerate += ys[j] == ys[j + 1]
    assert degenerate > 0


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
def test_warm_started_maxima_vector_equals_the_cold_one(kernel):
    """Slope searches started at a nearby node system's argmaxima find the same maxima as from the midpoints.

    Each prior is the cold maxima vector at the nodes moved by up to 1e-9 … 0.3,
    its argmaxima mapped into the intervals of the unmoved nodes.
    """
    rng = np.random.default_rng(20241019)
    for field in FIELDS.values():
        for n in (1, 2, 3):
            problem = eq.Problem(n, tuple(rng.uniform(0.5, 2.0, size=n)), kernel, field)
            for y in _cells(rng, n, count=12):
                ys = (0.0, *(float(v) for v in y), 1.0)
                cold, cold_args = _maxima_floats(problem, ys)
                for scale in (1e-9, 1e-5, 1e-2, 0.3):
                    moved = np.sort(np.clip(y + scale * rng.uniform(-1.0, 1.0, size=n), 0.0, 1.0))
                    near = (0.0, *(float(v) for v in moved), 1.0)
                    prior = near, _maxima_floats(problem, near)[1]
                    warm, warm_args = _maxima_floats(problem, ys, prior)
                    assert [v == -math.inf for v in warm] == [v == -math.inf for v in cold], (field, ys, near)
                    assert [t is None for t in warm_args] == [t is None for t in cold_args]
                    for m, w in zip(cold, warm):
                        if m > -math.inf:
                            assert abs(w - m) <= 1e-14 * max(1.0, abs(m)), (field, ys, near)


def test_slope_search_start_outside_the_piece_is_the_midpoint():
    """A start at or beyond an end of the piece is replaced by its midpoint: the same search, to the bit."""
    problem = eq.Problem(2, (1.0, 1.5), eq.Log(), eq.constant_field(0.0))
    ksum = problem.kernel._build_sum(((1.0, 0.3), (1.5, 0.7)))
    kslope = problem.kernel._build_slope_sum(((1.0, 0.3), (1.5, 0.7)))
    g = translates._with_translates(problem.field.pieces[0].formula._value, ksum)
    dg = translates._with_slopes(problem.field.pieces[0].formula, kslope)
    a, b = 0.3 + 1e-13, 0.7 - 1e-13
    cold = translates._slope_max(g, dg, a, b)
    for start in (a, b, 0.0, 1.0, None):
        assert translates._slope_max(g, dg, a, b, start) == cold
    t, v = translates._slope_max(g, dg, a, b, cold[0] + 1e-9)
    assert abs(t - cold[0]) <= 1e-15 and abs(v - cold[1]) <= 1e-15


ORACLE_CASES = [
    ("symmetric_n1", eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0)), 201),
    ("singularity_5_1", build_problem("singularity_5_1"), 11),
    ("monotonicity_5_2", build_problem("monotonicity_5_2"), 51),
    ("strictness_5_3", build_problem("strictness_5_3"), 81),
    ("sqrt_field", eq.Problem(2, (1.0, 1.5), eq.Log(), eq.sqrt_affine_field(1.0, 1.0, 0.0)), 21),
    ("log_n2", eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0)), 11),
]
SEARCH = {"minimax": eq.grid_minimax, "maximin": eq.grid_maximin}


@pytest.mark.parametrize("name, problem, points", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
@pytest.mark.parametrize("mode", ["minimax", "maximin"])
def test_oracle_matches_scalar_reference(name, problem, points, mode):
    grid = eq.GridSpec(points_per_dim=points, refine_rounds=2)
    nodes, value = SEARCH[mode](problem, grid)
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


def test_oracle_bracket_search_work_ceiling(monkeypatch):
    """Work gate: batched evaluations of one n = 3 minimax search. The ceiling may only go down."""
    calls = {"sums": 0}
    sums_batch = translates._sums_batch

    def counted_sums_batch(*args, **kwargs):
        calls["sums"] += 1
        return sums_batch(*args, **kwargs)

    monkeypatch.setattr(translates, "_sums_batch", counted_sums_batch)
    problem = eq.Problem(3, (1.0, 1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    eq.grid_minimax(problem, eq.GridSpec(points_per_dim=11, refine_rounds=2))
    # 105 without the chunk carry-over: each refine round's 1,331 cells are three chunks
    assert calls["sums"] <= 57


def test_oracle_pruned_scans_sample_few_points(monkeypatch):
    """Work gate: points sampled by one n = 3 minimax search. The ceiling may only go down."""
    size = {"points": 0}
    sums_batch = translates._sums_batch

    def counted_sums_batch(formula_values, r, kernel, T, nodes):
        size["points"] += T.size
        return sums_batch(formula_values, r, kernel, T, nodes)

    monkeypatch.setattr(translates, "_sums_batch", counted_sums_batch)
    problem = eq.Problem(3, (1.0, 1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    eq.grid_minimax(problem, eq.GridSpec(points_per_dim=11, refine_rounds=2))
    assert size["points"] <= 130_000  # 573,507 when every cell was searched to the end


# -- pruned scans = unpruned scans, to the bit ------------------------------------------

# the four problem kinds of the oracle benchmark, at its grids
ORACLE_GRID_CASES = [
    ("log_n2", eq.Problem(2, (1.3, 1.3), eq.Log(), eq.constant_field(-0.7)), 21),
    ("log_n3", eq.Problem(3, (0.8, 0.8, 0.8), eq.Log(), eq.constant_field(1.2)), 11),
    ("sqrt_shift", eq.Problem(2, (1.0, 1.0), eq.SqrtShift(), eq.sqrt_affine_field(8.0, -1.0, 1.0)), 21),
    (
        "capped_quadratic",
        eq.Problem(1, (1.0,), eq.CappedLogPlusQuadratic(0.1), eq.sqrt_affine_field(1.0, 1.0, 0.0)),
        101,
    ),
]
SCAN_CASES = ORACLE_CASES + ORACLE_GRID_CASES


@functools.cache
def _lattice_objectives(problem, ranges, points, mode):
    """The lattice cells over ``ranges`` and the objective at each from the exact maxima: one unpruned batch."""
    cells = oracle._lattice(ranges, points)
    reduce = np.max if mode == "minimax" else np.min
    values = reduce(_maxima_batch(problem, cells), axis=1)
    return cells, values


def _unpruned_search(problem, grid, mode):
    """``oracle._search`` with the objective of every lattice cell computed exactly."""
    pick = np.argmin if mode == "minimax" else np.argmax
    ranges, width = ((0.0, 1.0),) * problem.n, 1.0
    for round_no in range(grid.refine_rounds + 1):
        if round_no:
            width /= 10.0
            ranges = tuple((max(0.0, y - 0.5 * width), min(1.0, y + 0.5 * width)) for y in nodes)
        cells, values = _lattice_objectives(problem, ranges, grid.points_per_dim, mode)
        best = int(pick(values))  # first of ties
        nodes, value = tuple(float(v) for v in cells[best]), float(values[best])
    return nodes, value


# small chunks: each chunk's scan starts from the best objective of the chunks before it
CHUNK_INTERVALS = [oracle._BATCH_INTERVALS, 64]


@pytest.mark.parametrize("name, problem, points", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
@pytest.mark.parametrize("mode", ["minimax", "maximin"])
@pytest.mark.parametrize("intervals", CHUNK_INTERVALS)
def test_pruned_search_is_bit_identical_to_unpruned(name, problem, points, mode, intervals, monkeypatch):
    monkeypatch.setattr(oracle, "_BATCH_INTERVALS", intervals)
    grid = eq.GridSpec(points_per_dim=points, refine_rounds=2)
    nodes, value = SEARCH[mode](problem, grid)
    want_nodes, want_value = _unpruned_search(problem, grid, mode)
    assert _hex(nodes.nodes) == _hex(want_nodes)
    assert float(value).hex() == float(want_value).hex()


@pytest.mark.parametrize("R", [1e6, 1e9])
@pytest.mark.parametrize(
    "kernel, n, points", [(eq.Log(), 2, 21), (eq.Log(), 3, 11), (eq.SqrtShift(), 2, 21)], ids=["log_n2", "log_n3", "sqrt_n2"]
)
@pytest.mark.parametrize("mode", ["minimax", "maximin"])
def test_pruned_search_is_bit_identical_when_large_terms_cancel(kernel, n, points, mode, R):
    """Field constant and translates of size R cancel to an objective near 0: the bounds' rounding is ~ε·R."""
    grid = eq.GridSpec(points_per_dim=points, refine_rounds=2)
    _, unit_value = SEARCH[mode](eq.Problem(n, (1.0,) * n, kernel, eq.constant_field(0.0)), grid)
    problem = eq.Problem(n, (R,) * n, kernel, eq.constant_field(-R * unit_value))
    nodes, value = SEARCH[mode](problem, grid)
    want_nodes, want_value = _unpruned_search(problem, grid, mode)
    assert abs(want_value) < 1e-6 * R
    assert _hex(nodes.nodes) == _hex(want_nodes)
    assert float(value).hex() == float(want_value).hex()


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05, 0.2])
@pytest.mark.parametrize("mode", ["minimax", "maximin"])
@pytest.mark.parametrize("intervals", CHUNK_INTERVALS)
def test_pruned_near_optimal_lists_are_exact(mode, tol, intervals, monkeypatch):
    """The cells within tol of the best and their values are those of the unpruned lattice."""
    monkeypatch.setattr(oracle, "_BATCH_INTERVALS", intervals)
    for name, problem, points in SCAN_CASES:
        cells, values = _lattice_objectives(problem, ((0.0, 1.0),) * problem.n, points, mode)
        finite = np.isfinite(values)
        best = values[finite].min() if mode == "minimax" else values[finite].max()
        keep = np.flatnonzero(finite & (np.abs(values - best) <= tol))
        want = [(_hex(cells[i]), float(values[i]).hex()) for i in keep]
        got = eq.grid_near_optimal(problem, eq.GridSpec(points_per_dim=points, refine_rounds=0), mode=mode, tol=tol)
        assert [(_hex(nodes), float(value).hex()) for nodes, value in got] == want, name


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.variant)
@pytest.mark.parametrize("mode", ["minimax", "maximin"])
def test_pruning_bounds_enclose_the_scalar_maxima(kernel, mode, monkeypatch):
    """Every row bound a pruned batch tests cells against holds for the scalar maxima, to 1e-12 relative."""
    seen = []
    losing_cells = translates._losing_cells

    def recorded_losing_cells(lo, hi, *args):
        seen.append((lo.copy(), hi.copy()))
        return losing_cells(lo, hi, *args)

    monkeypatch.setattr(translates, "_losing_cells", recorded_losing_cells)
    finite_bounds = 0
    for field, n, problem, Y, scalar in _batch_cases(kernel):
        seen.clear()
        _maxima_batch(problem, Y, mode)
        slack = 1e-12 * np.maximum(1.0, np.abs(np.nan_to_num(scalar, neginf=0.0)))
        for lo, hi in seen:
            assert np.all(lo <= scalar + slack), (field, n)
            assert np.all(hi >= scalar - slack), (field, n)
            finite_bounds += np.count_nonzero(np.isfinite(hi) & (hi > lo))
    assert finite_bounds > 0  # the searches' concavity bounds were tested, not only finished rows


def test_bracket_bounds_skip_minus_infinity_samples():
    """A lane of −∞ samples gets no bound and a −∞ neighbour an infinite one, without −∞ − −∞."""

    def g(T, lanes):
        # lane 0: −∞ left of 0.3, a parabola peaking at 0.35 right of it; lane 1: −∞ throughout
        parabola = np.where(T < 0.3, -np.inf, -((T - 0.35) ** 2))
        return np.where((lanes == 0)[:, None] if T.ndim == 2 else lanes == 0, parabola, -np.inf)

    bounds = []

    def prune(lanes, best, bound):
        bounds.append(bound.copy())
        return np.zeros(lanes.size, dtype=bool)

    a, b = np.zeros(2), np.ones(2)
    with np.errstate(all="raise"):
        plain = translates._bracket_batch(g, a, b, np.ones(2, dtype=bool))
        pruned = translates._bracket_batch(g, a, b, np.ones(2, dtype=bool), prune)
    assert _hex(plain) == _hex(pruned)
    assert plain[0] == pytest.approx(0.0, abs=1e-15) and plain[1] == -np.inf
    assert bounds[0][0] == np.inf  # best sample 0.375 beside the −∞ sample at 0.25
    assert all(bound[1] == np.inf for bound in bounds[:-1]) and bounds[-1][1] == -np.inf
    assert all(bound[0] >= plain[0] for bound in bounds)  # the last one is the value itself
    assert any(plain[0] < bound[0] < np.inf for bound in bounds)
