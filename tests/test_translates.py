import math

import numpy as np
import pytest

import equiosc as eq
from equiosc.catalog import build_problem
from equiosc.extreal import is_neg_infinity
from conftest import random_concave_field, random_strict_nodes
from equiosc import translates
from equiosc.fields import Constant, Indicator, Piece, PiecewiseField, SqrtAffine
from golden_reference import reference_interval_maxima

LOG_HALF = -0.6931471805599453
LOG_QUARTER = -1.3862943611198906
LOG_THREE = 1.0986122886681098


@pytest.fixture
def log1():
    return eq.Problem(1, (1.0,), eq.Log(), eq.constant_field(0.0))


@pytest.fixture
def strictness():
    return build_problem("strictness_5_3")


@pytest.fixture
def tent():
    return build_problem("nonmonotone_5_4")


def test_eval_f_examples(log1):
    assert float(eq.eval_f(log1, (0.5,), 0.75)) == pytest.approx(math.log(0.25))
    p2 = eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    assert is_neg_infinity(eq.eval_f(p2, (0.2, 0.8), 0.2))
    p_sqrt = eq.Problem(2, (1.0, 1.0), eq.SqrtShift(), eq.constant_field(0.0))
    assert float(eq.eval_f(p_sqrt, (0.0, 0.0), 0.0)) == pytest.approx(4.0)


def test_eval_F_examples(log1, strictness):
    boundary = build_problem("singularity_5_1")
    assert float(eq.eval_F(boundary, (0.0, 0.0), 0.0)) == pytest.approx(12.0)
    got = float(eq.eval_F(strictness, (0.775,), 1.0))
    assert got == pytest.approx(1.0 + math.log(0.225 / 0.25), abs=1e-12)
    assert float(eq.eval_F(log1, (0.5,), 0.0)) == pytest.approx(LOG_HALF)


def test_interval_maxima_symmetric_log(log1):
    m = eq.interval_maxima(log1, (0.5,))
    assert float(m.m[0]) == pytest.approx(LOG_HALF)
    assert float(m.m[1]) == pytest.approx(LOG_HALF)
    assert m.argmax == (0.0, 1.0)
    assert m.m_bar == pytest.approx(LOG_HALF)


def test_interval_maxima_strictness_midpoint(strictness):
    m = eq.interval_maxima(strictness, (0.5,))
    assert float(m.m[0]) == pytest.approx(0.0, abs=1e-12)
    assert float(m.m[1]) == pytest.approx(1.0, abs=1e-12)
    # both maxima sit on flat plateaus; ties go leftmost (0 and the jump at b)
    assert m.argmax[0] == pytest.approx(0.0)
    assert m.argmax[1] == pytest.approx(0.955671)


def test_interval_maxima_tent_example(tent):
    m = eq.interval_maxima(tent, (0.2, 0.3))
    assert float(m.m[1]) == pytest.approx(2.0 * math.log(0.5), abs=1e-10)
    assert float(m.m[2]) == pytest.approx(math.log(8.0 / 9.0), abs=1e-10)


def test_degenerate_interval_rules():
    singular = eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    m = eq.interval_maxima(singular, (0.3, 0.3))
    assert is_neg_infinity(m.m[1])
    assert m.argmax[1] is None
    assert m.m_bar > -math.inf

    nonsingular = build_problem("singularity_5_1")
    m2 = eq.interval_maxima(nonsingular, (0.0, 0.0))
    assert float(m2.m[0]) == pytest.approx(12.0)
    assert float(m2.m[1]) == pytest.approx(12.0)
    assert m2.argmax[0] == 0.0


def test_maximize_on_interval_examples(log1, strictness, tent):
    t, v = eq.maximize_on_interval(log1, (0.5,), 0)
    assert t == 0.0 and float(v) == pytest.approx(LOG_HALF)
    t, v = eq.maximize_on_interval(tent, (0.2, 0.3), 1)
    assert t == pytest.approx(0.25, abs=1e-9)
    assert float(v) == pytest.approx(2.0 * math.log(0.5), abs=1e-10)
    t, v = eq.maximize_on_interval(strictness, (0.775,), 1)
    assert t == pytest.approx(1.0)
    assert float(v) == pytest.approx(0.8946394843421737, abs=1e-12)
    with pytest.raises(eq.PreconditionError):
        eq.maximize_on_interval(log1, (0.5,), 2)
    with pytest.raises(eq.PreconditionError):
        eq.interval_maxima(log1, None)


def test_in_regularity_set(log1):
    assert eq.in_regularity_set(log1, (0.5,))
    p2 = eq.Problem(2, (1.0, 1.0), eq.Log(), eq.constant_field(0.0))
    assert not eq.in_regularity_set(p2, (0.3, 0.3))
    from test_fields import log_chi_union

    gap_problem = eq.Problem(2, (1.0, 1.0), eq.Log(), log_chi_union())
    assert not eq.in_regularity_set(gap_problem, (0.45, 0.55))
    assert eq.in_regularity_set(gap_problem, (0.3, 0.7))
    with pytest.raises(eq.PreconditionError):
        eq.in_regularity_set(build_problem("singularity_5_1"), (0.2, 0.8))


def test_narrow_interval_between_nodes_has_a_finite_maximum():
    """Two nodes 1e-13 apart: the interval between them is searched up to its node ends and has a finite maximum."""
    problem = build_problem("classical_chebyshev", n=2)
    y = (0.5, 0.5 + 1e-13)
    scalar = eq.interval_maxima(problem, y).m
    batch = translates._maxima_batch(problem, np.array([y]))[0]
    assert all(math.isfinite(v) for v in scalar)
    assert np.allclose(batch, scalar, rtol=1e-12, atol=0.0)
    # the maximum sits at the midpoint, where both translates are log of the half-width
    assert scalar[1] == pytest.approx(2.0 * math.log(0.5 * (y[1] - y[0])), rel=1e-4)
    assert eq.in_regularity_set(problem, y)
    assert len(eq.difference(problem, y).phi) == 2
    # a degenerate interval stays −∞
    assert eq.interval_maxima(problem, (0.5, 0.5)).m[1] == -math.inf
    # one float inside, with unequal exponents: the search's last point must not round onto a node
    unequal = eq.Problem(2, (0.5, 2.0), eq.Log(), eq.constant_field(0.0))
    y, inside = (0.5, 0.5 + 2.0 * math.ulp(0.5)), 0.5 + math.ulp(0.5)
    want = float(eq.eval_F(unequal, y, inside))
    assert math.isfinite(want)
    assert eq.maximize_on_interval(unequal, y, 1) == (inside, want)
    assert translates._maxima_batch(unequal, np.array([y]))[0, 1] == want


def _dense_maximum(problem, y, j, points=200_001):
    """The largest F(y, ·) at ``points`` equispaced points of interval j: every float of a piece 1e-12 wide."""
    ys = (0.0, *y, 1.0)
    return float(np.max(eq.eval_F_grid(problem, y, np.linspace(ys[j], ys[j + 1], points))))


def test_narrow_piece_maximum_matches_the_dense_scan_on_both_paths():
    """An interval between two nodes, 1e-14 to 1e-7 wide: its maximum on the scalar and the batch path.

    Searches that stayed 1e-13 from each node, and took the midpoint's value
    on a piece at most 4e-13 wide, read 1.2e-3 to 1.4e-3 relative low at
    1e-14, 1e-13 and 3e-13 on every path; at 4.0e-13 the midpoint's value
    is −54.353280 on the constant field. Convex field −√t, a non-concave
    piece: Brent's method, as the polish of the scan, returned its bracket's
    midpoint below _XTOL and read 3.1e-7, 2.1e-6 and 3.9e-6 relative low at
    4e-13, 2e-12 and 1e-11 on every path, and the batch paths 1.1e-9 low at
    1e-9 and 3.6e-11 at 1e-8.
    """
    widths = (1e-14, 1e-13, 3e-13, 2e-12, 1e-11, 1e-9, 1e-8, 1e-7)
    for field in (eq.constant_field(0.3), eq.sqrt_affine_field(-1.0, 1.0, 0.0)):
        problem = eq.Problem(2, (0.6711, 1.1980), eq.Log(), field)
        for y in [(1.0 / 3.0, 0.33333333333373333), *((1.0 / 3.0, 1.0 / 3.0 + w) for w in widths)]:
            dense = _dense_maximum(problem, y, 1)
            if y[1] == 0.33333333333373333 and field.pieces[0].formula.concave:
                assert dense == pytest.approx(-54.277997, abs=1e-6)
            cells = np.array([y])
            for got in (
                float(eq.interval_maxima(problem, y).m[1]),
                translates._maxima_batch(problem, cells)[0, 1],
                translates._maxima_batch(problem, cells, mode="minimax")[0, 1],
            ):
                assert abs(got - dense) <= 1e-12 * abs(dense), (field, y)


def test_maximum_beside_a_node_end_matches_the_dense_scan():
    """Unequal exponents put the maximum 2.0e-13 from the left node of a piece 1.2e-12 wide.

    Newton steps there are below _XTOL long before the search is within
    rounding of the maximum: a search that stopped on a small step alone
    returned a value 9e-9 low. The stop needs the bracket.

    Exponents 0.05 and 2.0 put it 7.3e-14 from the node of a piece 3e-12
    wide, where the dense scan reads −54.3265093415: a search that stayed
    1e-13 from each node read −54.329314 there, at 0.4 + 1.0e-13.
    """
    cases = (
        ((0.3, 1.5), (0.375, 0.375 + 1.2e-12), (1e-13, 3e-13)),
        ((0.05, 2.0), (0.4, 0.4 + 3e-12), (0.0, 1e-13)),
    )
    for r, y, (near, far) in cases:
        problem = eq.Problem(2, r, eq.Log(), eq.constant_field(0.3))
        t, v = eq.maximize_on_interval(problem, y, 1)
        dense = _dense_maximum(problem, y, 1)
        assert abs(float(v) - dense) <= 1e-12 * abs(dense), r
        assert y[0] + near < t < y[0] + far, r


def test_few_float_interval_reads_its_best_float_on_both_paths():
    """Two nodes 2 to 40 floats apart: the interval maximum is the best float inside it.

    F changes by up to 1e-2 relative per float there. The slope search read
    below the best float on 140 of 1,500 such intervals, by up to 3.2e-3
    relative, and so did the batch path, which handed such pieces to it.
    """
    rng = np.random.default_rng(20261019)
    kernels = (eq.Log(), eq.CappedLog(0.3), eq.TentLog())
    for k in range(300):
        r = tuple(float(v) for v in rng.uniform(0.05, 2.0, size=2))
        problem = eq.Problem(2, r, kernels[k % 3], eq.constant_field(0.3))
        y = [float(rng.uniform(0.05, 0.95))] * 2
        for _ in range(int(rng.integers(2, 41))):
            y[1] = math.nextafter(y[1], 1.0)
        best, t = -math.inf, math.nextafter(y[0], 1.0)
        while t < y[1]:
            best = max(best, float(eq.eval_F(problem, y, t)))
            t = math.nextafter(t, 1.0)
        assert float(eq.interval_maxima(problem, y).m[1]) == best, (problem, y)
        batch = translates._maxima_batch(problem, np.array([y]))[0, 1]
        assert abs(batch - best) <= 4.0 * translates._EPS * abs(best), (problem, y)


def test_few_float_walk_takes_the_spacing_nearer_zero(monkeypatch):
    """Nodes on either side of −0.5, where the float spacing halves: the walk reads the best float, in few values.

    The slope search read the first pair's maximum 2.6e-3 relative below
    its best float. The spacing at the left end, 2⁻⁵³, is twice that at the
    right end: a walk bounded by it would read 109 floats between the
    second pair.
    """
    weight = eq.constant_field(1.0, domain=(-1.0, 1.0))
    r = (0.1, 1.9)
    slope_max, reads = translates._slope_max, {}

    def counted(g, dg, a, b, start=None):
        calls = reads[a, b] = []
        return slope_max(lambda t: calls.append(t) or g(t), dg, a, b, start)

    monkeypatch.setattr(translates, "_slope_max", counted)
    for below, above in ((10, 40), (10, 100)):  # floats of spacing 2⁻⁵³ below −0.5 and 2⁻⁵⁴ above it
        nodes = (-0.5 - below * 2.0**-53, -0.5 + above * 2.0**-54)
        got = eq.gap_interval_maxima(nodes, r, weight)[1]
        assert len(reads[nodes]) <= translates._SCAN_POINTS
        if above == 40:
            ksum = eq.Log()._build_sum(tuple(zip(r, nodes)))
            best, t = -math.inf, math.nextafter(nodes[0], 0.0)
            while t < nodes[1]:
                best = max(best, ksum(t))  # log w = 0
                t = math.nextafter(t, 0.0)
            assert got == math.exp(best)


def test_scan_end_sample_that_g_falls_from_needs_no_polish():
    """On the convex field −1.5√t the scan of [0, y₁] peaks at t = 0, where g falls into the piece.

    The polish bisected toward t = 0 for 103 slope evaluations there, and
    the end sample won anyway.
    """
    problem = eq.Problem(2, (1.2, 0.8), eq.Log(), eq.sqrt_affine_field(-1.5, 1.0, 0.0))
    terms = ((1.2, 0.3), (0.8, 0.7))
    formula = problem.field.pieces[0].formula
    g = translates._with_translates(formula._value, problem.kernel._build_sum(terms))
    slopes = translates._with_slopes(formula, problem.kernel._build_slope_sum(terms))
    calls = []

    def dg(t):
        calls.append(t)
        return slopes(t)

    assert translates._scan_max(g, dg, 0.0, 0.3) == (0.0, g(0.0))
    assert len(calls) == 1


@pytest.mark.parametrize("floats", [1, 5, 40])
def test_few_float_scan_reads_each_float_once(floats):
    """A non-concave piece a few floats wide is read float by float: its best float, one g call each.

    The TentLog kink cut 0.8 − 0.1 lies one float past the knot 0.7 of the
    convex piece −2√(t − 0.7). The 64-point scan of that segment called g
    64 times for its 2 floats and its polish read them again; the best
    float is at least any value that scan could return.
    """
    kernel = eq.TentLog()
    formula = SqrtAffine(-2.0, 1.0, 0.7)
    terms = ((1.0, 0.6), (1.5, 0.8), (0.7, 1.0))
    g0 = translates._with_translates(formula._value, kernel._build_sum(terms))
    dg = translates._with_slopes(formula, kernel._build_slope_sum(terms))
    calls = []

    def g(t):
        calls.append(t)
        return g0(t)

    every = [0.7]
    for _ in range(floats):
        every.append(math.nextafter(every[-1], 1.0))
    if floats == 1:
        assert every[-1] == 0.8 - 0.1
    t, v = translates._scan_max(g, dg, every[0], every[-1])
    assert sorted(calls) == every
    assert v == max(map(g0, every)) and g0(t) == v


def test_a_zero_weight_piece_is_searched_as_a_minus_infinity_piece():
    """LogOfWeight(Constant(0)) is −∞ on its piece; no end check settles it, so the slope search runs there."""
    from equiosc.fields import LogOfWeight, NegInfinityPiece

    def field(formula):
        return PiecewiseField((Piece(0.0, 0.5, Constant(0.0)), Piece(0.5, 1.0, formula)))

    zero = eq.Problem(2, (1.0, 0.5), eq.Log(), field(LogOfWeight(Constant(0.0))))
    minus_infinity = eq.Problem(2, (1.0, 0.5), eq.Log(), field(NegInfinityPiece()))
    for y in ((0.25, 0.7), (0.1, 0.3)):
        assert eq.interval_maxima(zero, y) == eq.interval_maxima(minus_infinity, y)


def test_regularity_between_finite_points_of_a_minus_infinity_field():
    from test_fields import dotted_minus_infinity

    problem = eq.Problem(2, (1.0, 1.0), eq.Log(), dotted_minus_infinity())
    # each interval holds one finite point: 0.2, 0.5 and 0.8
    assert eq.in_regularity_set(problem, (0.3, 0.7))
    m = eq.interval_maxima(problem, (0.3, 0.7)).m
    assert m == pytest.approx((math.log(0.05), math.log(0.04), math.log(0.05)), abs=1e-12)
    phi = eq.difference(problem, (0.3, 0.7)).phi
    assert phi == pytest.approx((m[1] - m[0], m[2] - m[1]), abs=1e-12)
    # the open interval (0.3, 0.5) misses 0.5, and (0.5, 0.7) misses it too
    assert not eq.in_regularity_set(problem, (0.3, 0.5))
    assert not eq.in_regularity_set(problem, (0.5, 0.7))
    with pytest.raises(eq.RegularityError):
        eq.difference(problem, (0.3, 0.5))


def test_difference_examples(log1, strictness):
    d = eq.difference(log1, (0.25,))
    assert d.phi[0] == pytest.approx(LOG_THREE, abs=1e-12)
    d2 = eq.difference(strictness, (0.775,))
    assert d2.phi[0] == pytest.approx(0.8946394843421737, abs=1e-12)
    report = eq.solve_equioscillation(log1)
    d3 = eq.difference(log1, report.nodes)
    assert abs(d3.phi[0]) <= 1e-9


def test_difference_regularity_error():
    from test_fields import log_chi_union

    gap_problem = eq.Problem(2, (1.0, 1.0), eq.Log(), log_chi_union())
    with pytest.raises(eq.RegularityError):
        eq.difference(gap_problem, (0.45, 0.55))
    with pytest.raises(eq.RegularityError):
        eq.difference(gap_problem, (0.3, 0.3))


def test_m_bar_finite_on_closed_simplex(rng):
    problem = eq.Problem(2, (1.0, 1.5), eq.Log(), eq.constant_field(0.0))
    for _ in range(50):
        y = tuple(sorted(rng.uniform(0.0, 1.0, size=2)))
        m = eq.interval_maxima(problem, y)
        assert math.isfinite(m.m_bar)


def test_concavity_of_F_inside_intervals(rng):
    problem = eq.Problem(2, (1.0, 2.0), eq.Log(), eq.sqrt_affine_field(2.0, 1.0, 0.0))
    nodes = (0.3, 0.7)
    ys = (0.0, 0.3, 0.7, 1.0)
    for _ in range(1000):
        j = int(rng.integers(0, 3))
        lo, hi = ys[j] + 1e-6, ys[j + 1] - 1e-6
        t1, t2, t3 = np.sort(rng.uniform(lo, hi, size=3))
        if t3 - t1 < 1e-9:
            continue
        lam = (t3 - t2) / (t3 - t1)
        v1 = float(eq.eval_F(problem, nodes, float(t1)))
        v2 = float(eq.eval_F(problem, nodes, float(t2)))
        v3 = float(eq.eval_F(problem, nodes, float(t3)))
        assert v2 >= lam * v1 + (1 - lam) * v3 - 1e-12


def test_golden_vs_dense_grid(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        r = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
        problem = eq.Problem(n, r, eq.Log(), random_concave_field(rng))
        y = random_strict_nodes(rng, n)
        ys = (0.0, *y, 1.0)
        j = int(rng.integers(0, n + 1))
        maxima = eq.interval_maxima(problem, y)
        ts = np.linspace(ys[j], ys[j + 1], 100001)
        dense = float(np.max(eq.eval_F_grid(problem, y, ts)))
        assert float(maxima.m[j]) >= dense - 1e-12
        assert abs(float(maxima.m[j]) - dense) <= 1e-6


def test_continuity_probe(rng):
    problem = eq.Problem(2, (1.0, 1.3), eq.Log(), eq.constant_field(0.5))
    for _ in range(100):
        y = random_strict_nodes(rng, 2, min_gap=0.05)
        ys = (0.0, *y, 1.0)
        min_gap = min(b - a for a, b in zip(ys, ys[1:]))
        lipschitz = sum(problem.r) * (4.0 / min_gap)  # |d/dt log| ≤ 1/dist
        delta = rng.uniform(-1e-6, 1e-6, size=2)
        y2 = tuple(sorted(np.clip(np.array(y) + delta, 1e-9, 1 - 1e-9)))
        m1 = eq.interval_maxima(problem, y)
        m2 = eq.interval_maxima(problem, y2)
        for a, b in zip(m1.as_floats(), m2.as_floats()):
            assert abs(a - b) <= lipschitz * 1e-6 + 1e-12


def test_argmax_is_leftmost_on_ties(strictness):
    # m_0 of the capped-log/indicator instance is flat at 0 on [0, x−a]
    m = eq.interval_maxima(strictness, (0.6,))
    assert m.argmax[0] == 0.0


def test_maxima_values_match_argmax_evaluation(rng):
    for _ in range(20):
        n = int(rng.integers(1, 4))
        r = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
        problem = eq.Problem(n, r, eq.Log(), random_concave_field(rng))
        y = random_strict_nodes(rng, n)
        maxima = eq.interval_maxima(problem, y)
        for value, t in zip(maxima.m, maxima.argmax):
            if t is None:
                assert is_neg_infinity(value)
                continue
            assert float(eq.eval_F(problem, y, t)) == pytest.approx(float(value), abs=1e-9)


def test_eval_F_grid_matches_scalar(rng, log1):
    ts = np.linspace(0.0, 1.0, 101)
    grid = eq.eval_F_grid(log1, (0.5,), ts)
    for t, v in zip(ts, grid):
        want = eq.eval_F(log1, (0.5,), float(t))
        if is_neg_infinity(want):
            assert v == -math.inf
        else:
            assert v == pytest.approx(float(want), abs=1e-12)
    with pytest.raises(eq.DomainError):
        eq.eval_F_grid(log1, (0.5,), [0.5, math.nan])
    with pytest.raises(eq.DomainError):
        eq.eval_F_grid(log1, (0.5,), "ab")


# -- the slope search against the golden-section reference ----------------------------

def _reference_kernels(rng):
    a = float(rng.uniform(0.1, 0.45))
    return {
        "Log": eq.Log(),
        "CappedLog": eq.CappedLog(a),
        "SqrtShift": eq.SqrtShift(),
        "TentLog": eq.TentLog(),
        "CappedLogPlusQuadratic": eq.CappedLogPlusQuadratic(a),
        "Regularized": eq.Regularized(eq.CappedLog(a), float(rng.uniform(0.3, 1.5))),
    }


def _reference_fields(rng):
    k1, k2 = (float(v) for v in np.sort(rng.uniform(0.15, 0.85, size=2)))
    return {
        "constant": eq.constant_field(float(rng.uniform(-2.0, 2.0))),
        "sqrt_affine": eq.sqrt_affine_field(float(rng.uniform(0.5, 4.0)), 1.0, 0.0),
        "three_piece": PiecewiseField(
            (
                Piece(0.0, k1, Constant(float(rng.uniform(-1.0, 1.0)))),
                Piece(k1, k2, Indicator(float(rng.uniform(-1.0, 1.0)))),
                Piece(k2, 1.0, SqrtAffine(float(rng.uniform(0.5, 3.0)), 1.0, 0.0)),
            )
        ),
        "convex": eq.sqrt_affine_field(-1.5, 1.0, 0.0),  # fixed: no draw, so the other cases keep theirs
    }


@pytest.mark.parametrize("kernel_name", list(_reference_kernels(np.random.default_rng(0))))
def test_interval_maxima_match_golden_reference(kernel_name, rng):
    """Values within 1e-12·max(1, |m|) of golden section; argmax within 1e-6 at strict maxima.

    From n = 2 on, the first interval between nodes is at most 2e-4 wide, where
    F is sharply curved, and from n = 3 on the last two nodes coincide, so
    singular kernels give −∞ maxima. Golden section
    has no kink cuts and stops up to slope·xtol below a maximum on a kernel
    kink; there the new value may exceed the reference by more.
    """
    strict_maxima = 0
    for field_name in ("constant", "sqrt_affine", "three_piece", "convex"):
        for n in range(1, 7):
            kernel = _reference_kernels(rng)[kernel_name]
            r = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
            y = [float(v) for v in np.sort(rng.uniform(0.0, 1.0, size=n))]
            if n >= 2:
                y[1] = min(y[1], y[0] + 2e-4)
            if n >= 3:
                y[-1] = y[-2]
            problem = eq.Problem(n, r, kernel, _reference_fields(rng)[field_name])
            got = eq.interval_maxima(problem, y)
            want_m, want_t = reference_interval_maxima(problem, y)
            kinks = {yk + s for yk in y for k in kernel._kinks for s in (k, -k)}
            ys = (0.0, *y, 1.0)
            for j, (m, t, rm, rt) in enumerate(zip(got.as_floats(), got.argmax, want_m, want_t)):
                label = (field_name, n, j)
                if rm == -math.inf:
                    assert m == -math.inf and t is None, label
                    continue
                scale = max(1.0, abs(rm))
                assert m >= rm - 1e-12 * scale, label
                assert m <= rm + (1e-10 if t in kinks else 1e-12) * scale, label
                sides = [s for s in (rt - 1e-6, rt + 1e-6) if ys[j] <= s <= ys[j + 1]]
                if sides and max(float(eq.eval_F(problem, y, s)) for s in sides) < rm - 1e-11 * scale:
                    strict_maxima += 1
                    assert abs(t - rt) <= 1e-6, label
    assert strict_maxima > 0


def test_maximum_on_a_kernel_kink_is_exact():
    # TentLog kinks at |u| = 0.1: F = K(t − 0.3) + K(t − 0.7)/2 peaks on t = 0.4
    tent = eq.Problem(2, (1.0, 0.5), eq.TentLog(), eq.constant_field(0.0))
    t, v = eq.maximize_on_interval(tent, (0.3, 0.7), 1)
    assert t == pytest.approx(0.4, abs=1e-15)
    assert abs(float(v) - 0.5 * math.log(7.0 / 9.0)) <= 1e-14
    # CappedLogPlusQuadratic(0.2) peaks on its kinks |u| = 0.2 at 1 − 2·0.2²
    quad = eq.Problem(1, (1.0,), eq.CappedLogPlusQuadratic(0.2), eq.constant_field(0.0))
    m = eq.interval_maxima(quad, (0.5,))
    assert m.argmax == pytest.approx((0.3, 0.7), abs=1e-15)
    for value in m.m:
        assert abs(float(value) - 0.92) <= 1e-14


def _count_log_sums(monkeypatch, calls, kernel=eq.Log):
    """Count the evaluations of the compiled sums of a kernel class, ``Log`` by default.

    Kernel sums go into ``calls["kernel_sum"]``, slope sums into ``calls["slope_sum"]``.
    """
    for method, key in (("_build_sum", "kernel_sum"), ("_build_slope_sum", "slope_sum")):
        calls.setdefault(key, 0)

        def counted_build(self, terms, build=getattr(kernel, method), key=key):
            compiled = build(self, terms)

            def counted(t):
                calls[key] += 1
                return compiled(t)

            return counted

        monkeypatch.setattr(kernel, method, counted_build)


def test_chebyshev_n8_evaluation_ceiling(monkeypatch):
    """Work gate: objective evaluations of the Chebyshev n = 8 solve.

    The golden-section search made 184,790 kernel sums over 3,746 interval
    maximizations, Brent's method 43,630 over the same 3,746, Newton with the
    exact Jacobian 836 over 81, 692 once a node of the singular kernel is a
    point candidate without a kernel sum, and 664 with one log per run of
    equal exponents. The slope search makes 99 kernel sums (a candidate, an
    end check or the one value of a search) and 278 slope sums, and 210 once
    each trial vector's searches start at the current iterate's argmaxima.
    The ceilings may only go down.
    """
    calls = {"kernel_sum": 0, "maximize": 0}
    maximize = translates._maximize

    def counted_maximize(*args, **kwargs):
        calls["maximize"] += 1
        return maximize(*args, **kwargs)

    _count_log_sums(monkeypatch, calls)
    monkeypatch.setattr(translates, "_maximize", counted_maximize)
    problem = eq.Problem(8, (1.0,) * 8, eq.Log(), eq.constant_field(0.0))
    report = eq.solve_equioscillation(problem)
    assert abs(report.value - math.log(2.0 * 4.0**-8)) <= 1e-8
    assert calls["maximize"] == 81
    assert 0 < calls["kernel_sum"] <= 99
    assert 0 < calls["slope_sum"] <= 210


def _count_piece_work(monkeypatch, field):
    """Kernel sums, slope sums and searched pieces at the Chebyshev n = 4 nodes, then in the n = 4 solve."""
    calls = {"kernel_sum": 0, "slope_sum": 0, "pieces": 0}
    concave_max = translates._concave_max

    def counted_concave_max(*args):
        calls["pieces"] += 1
        return concave_max(*args)

    _count_log_sums(monkeypatch, calls)
    monkeypatch.setattr(translates, "_concave_max", counted_concave_max)
    problem = eq.Problem(4, (1.0,) * 4, eq.Log(), field)
    nodes = sorted(0.5 * (1.0 + math.cos((2 * j - 1) * math.pi / 8)) for j in range(1, 5))
    eq.interval_maxima(problem, nodes)
    at_nodes = dict(calls)
    calls.update(kernel_sum=0, slope_sum=0, pieces=0)
    report = eq.solve_equioscillation(problem)
    assert abs(report.value - 0.3 - math.log(2.0 * 4.0**-4)) <= 1e-12
    assert at_nodes["kernel_sum"] > 0 and calls["kernel_sum"] > 0
    return at_nodes, calls


def test_kernel_sums_per_piece_on_a_200_piece_field(monkeypatch):
    """Work gate: a cut's kernel sum is computed once, not again per adjacent piece end.

    Alternating Constant(0.3) and Indicator(0.3) pieces are never merged. At the
    Chebyshev n = 4 nodes 204 pieces are searched with 506 kernel sums and
    9 slope sums (540 kernel sums with Brent's method on the pieces no end
    check settles, 611 with one log per term, 619 while the nodes of the
    singular kernel took one, 923 when each use recomputed them); the n = 4
    solve makes 4,040 and 58 over 1,628 pieces (79 slope sums with every
    search started at its piece's midpoint; 4,278 kernel sums with Brent's
    method, 4,333 with one log per term, 4,397 with the sums at the nodes,
    146,169 over 34,398 with the sweeps).
    """
    field = PiecewiseField(
        tuple(Piece(i / 200, (i + 1) / 200, (Constant, Indicator)[i % 2](0.3)) for i in range(200))
    )
    assert len(field.pieces) == 200
    at_nodes, solve = _count_piece_work(monkeypatch, field)
    assert at_nodes == {"kernel_sum": 506, "slope_sum": 9, "pieces": 204}
    assert solve == {"kernel_sum": 4_040, "slope_sum": 58, "pieces": 1_628}


def test_equal_pieces_cost_what_one_piece_costs(monkeypatch):
    """Work gate: 200 equal Constant pieces merge into one and do the one-piece work.

    Brent's method took 30 kernel sums at the nodes and 239 in the solve, and
    with one log per term 34 and 265; the slope search takes 7 kernel sums
    and 12 slope sums at the nodes and 56 and 94 in the solve, and 56 and 68
    once each trial vector's searches start at the current iterate's argmaxima.
    """
    field = PiecewiseField(tuple(Piece(i / 200, (i + 1) / 200, Constant(0.3)) for i in range(200)))
    assert len(field.pieces) == 1
    at_nodes, solve = _count_piece_work(monkeypatch, field)
    assert at_nodes == {"kernel_sum": 7, "slope_sum": 12, "pieces": 5}
    assert solve == {"kernel_sum": 56, "slope_sum": 68, "pieces": 40}


def test_a_node_shared_by_two_intervals_costs_one_kernel_sum(monkeypatch):
    """Work gate: a maxima vector computes each cut's kernel sum once, for all its intervals.

    Under the non-singular SqrtShift an interior node is a point candidate of
    both intervals it ends. With a kernel sum per interval and cut the vector
    took 14 kernel sums; one per cut and call saves the three interior
    nodes' second ones.
    """
    calls = {}
    _count_log_sums(monkeypatch, calls, eq.SqrtShift)
    problem = eq.Problem(3, (1.0, 1.5, 0.7), eq.SqrtShift(), eq.constant_field(0.3))
    maxima = eq.interval_maxima(problem, (0.2, 0.45, 0.8))
    assert maxima.argmax == (0.0, 0.2, 0.8, 1.0)
    assert calls == {"kernel_sum": 11, "slope_sum": 0}


# -- tolerances are constants, not parameters -------------------------------------------

# the argmax tolerance (translates._XTOL), the tie of two maxima (translates._TIE, the
# sandwich's and the intertwining checks' one slack) and the sampler's gap and tries
# are fixed: an entry point that took one as a parameter refuses it now. The oracle's
# xtol is covered in test_oracle.
_X, _Y = (0.3,), (0.6,)
REMOVED_PARAMETERS = {
    "interval_maxima-xtol": lambda p: eq.interval_maxima(p, _X, xtol=1e-12),
    "maximize_on_interval-xtol": lambda p: eq.maximize_on_interval(p, _X, 0, xtol=1e-12),
    "difference-xtol": lambda p: eq.difference(p, _X, xtol=1e-12),
    "solve_difference-xtol": lambda p: eq.solve_difference(p, (0.0,), xtol=1e-12),
    "solve_equioscillation-xtol": lambda p: eq.solve_equioscillation(p, xtol=1e-12),
    "check_intertwining-xtol": lambda p: eq.check_intertwining(p, _X, _Y, xtol=1e-12),
    "check_intertwining-tau": lambda p: eq.check_intertwining(p, _X, _Y, tau=1e-9),
    "check_strict_majorization_excluded-xtol": lambda p: eq.check_strict_majorization_excluded(p, 2, xtol=1e-12),
    "check_strict_majorization_excluded-tau": lambda p: eq.check_strict_majorization_excluded(p, 2, tau=1e-9),
    "sandwich_check-slack": lambda p: eq.sandwich_check(p, _X, 0.0, slack=1e-9),
    "sample_regular_nodes-min_gap": lambda p: eq.sample_regular_nodes(p, np.random.default_rng(0), min_gap=1e-3),
    "sample_regular_nodes-max_tries": lambda p: eq.sample_regular_nodes(p, np.random.default_rng(0), max_tries=1000),
    "finiteness_count-endpoints_half": lambda p: p.field.finiteness_count(endpoints_half=True),
}


@pytest.mark.parametrize("call", REMOVED_PARAMETERS.values(), ids=REMOVED_PARAMETERS.keys())
def test_removed_tolerance_parameters_are_refused(call, log1):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call(log1)
