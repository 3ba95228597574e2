import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import equiosc as eq
from equiosc import solver
from equiosc.catalog import build_problem
from equiosc.fields import NegInfinityPiece, Piece, PiecewiseField
from equiosc.translates import _maxima_floats
from conftest import random_concave_field, random_sm_problem, random_strict_nodes
import golden_reference
from golden_reference import reference_entry_fd_jacobian, reference_row_fd_jacobian

LOG_HALF = -0.6931471805599453
CHEB2_NODES = (0.14644660940672624, 0.8535533905932737)
CHEB2_VALUE = -2.0794415416798357  # log(1/8)


def log_problem(n, r=None):
    r = r if r is not None else (1.0,) * n
    return eq.Problem(n, r, eq.Log(), eq.constant_field(0.0))


def test_symmetric_n1():
    report = eq.solve_equioscillation(log_problem(1))
    assert report.converged
    assert report.nodes.nodes[0] == pytest.approx(0.5, abs=1e-9)
    assert report.value == pytest.approx(LOG_HALF, abs=1e-9)
    assert report.residual <= 1e-9
    assert eq.in_regularity_set(log_problem(1), report.nodes)


def test_symmetric_n1_doubled_multiplier():
    report = eq.solve_equioscillation(log_problem(1, (2.0,)))
    assert report.nodes.nodes[0] == pytest.approx(0.5, abs=1e-9)
    assert report.value == pytest.approx(2.0 * LOG_HALF, abs=1e-9)


def test_chebyshev_n2():
    report = eq.solve_equioscillation(log_problem(2), tol=1e-10)
    for got, want in zip(report.nodes.nodes, CHEB2_NODES):
        assert got == pytest.approx(want, abs=1e-9)
    assert report.value == pytest.approx(CHEB2_VALUE, abs=1e-9)


def test_strictness_equioscillation_point():
    problem = build_problem("strictness_5_3")
    report = eq.solve_equioscillation(problem, tol=1e-10)
    assert report.converged
    assert report.nodes.nodes[0] == pytest.approx(1.0 - 0.25 / math.e, abs=1e-8)
    assert report.value == pytest.approx(0.0, abs=1e-8)
    assert report.nonuniqueness_risk
    assert "eta_trend" not in {f.name for f in dataclasses.fields(eq.SolveReport)}
    # work gate: Newton stalls after 1 iteration on the kernel itself, which inserts
    # eta = 1e-2; 7 iterations solve that level and 4 more the kernel from there
    assert report.iterations <= 12


def capped_log_problem(a, r, level):
    return eq.Problem(len(r), r, eq.CappedLog(a), eq.constant_field(level))


@pytest.mark.parametrize(
    "a, r, level, initial",
    [
        # the polish once stalled at residual 8.917e-07, when bisection sweeps were the fallback
        (0.08036431725564219, (1.1343843693522557, 1.6577544669750726, 1.5643504050272727), 0.0, None),
        (
            0.03673349627496637,
            (0.7555289652834258, 0.8683742907232999, 1.4529364092209693, 1.3702517703379395),
            0.36215605039448917,
            (0.29063602249471227, 0.3942934872449246, 0.732134091450303, 0.7525792797096746),
        ),
        (0.05, (1.0, 1.0, 1.0, 1.0), 0.0, None),
    ],
)
def test_non_strict_polish_sweeps_keep_tightening(a, r, level, initial):
    report = eq.solve_equioscillation(capped_log_problem(a, r, level), initial=initial)
    assert report.converged and report.nonuniqueness_risk
    assert report.value == pytest.approx(level, abs=1e-12)


def test_non_strict_solve_at_its_solution_takes_no_step(monkeypatch):
    """Equispaced nodes already equioscillate here, and a non-strict kernel starts at eta = 0 too."""
    monkeypatch.setattr(solver, "Regularized", lambda *args: pytest.fail("the continuation ran"))
    report = eq.solve_equioscillation(capped_log_problem(0.05, (1.0,) * 4, 0.0))
    assert report.iterations == 0 and report.nonuniqueness_risk
    assert report.value == pytest.approx(0.0, abs=1e-12)


# (a, r, level, target, initial) of an n = 6 non-strict problem with Σc ≠ 0
N6_TARGET_CASE = (
    0.026738784908472098,
    (0.8467770836686392, 1.4745943129066363, 1.3476840077981433,
     1.4721927822374687, 1.730781271839216, 1.591816675355288),
    -0.7616230553138208,
    (-0.6520734370020393, 0.5090866904499121, -0.21580070544892083,
     -0.4818679411546314, 0.3460994890722713, 0.5067031743967707),
    (0.20359766671973564, 0.36885250917563805, 0.44901767740459253,
     0.47271100775564384, 0.49799151171335077, 0.937727280896829),
)


@pytest.mark.parametrize(
    "a, r, level, target, initial",
    [
        (
            0.1418883569802129,
            (0.6560252718508888, 1.6094683553619482, 0.8318624775171317),
            -0.006670460012859092,
            (-0.34297317742272604, -0.5277664518068248, 0.8703555978358926),
            (0.5071947549102085, 0.6444513836261437, 0.6962076703239494),
        ),
        N6_TARGET_CASE,
    ],
)
def test_non_strict_target_needs_the_small_eta_level(a, r, level, target, initial, monkeypatch):
    """Σc = m_n − m_0 ≠ 0 on a constant field needs an end node within a of 0 or 1.

    The eta = 1e-2 solution meets Σc through the regularization instead, with both end
    nodes farther in, where m_0 and m_n of the original kernel do not move with the nodes,
    and a polish from there alone stalls after 500 iterations. The stall rule inserts
    eta = 1e-4 between the two.
    """
    levels = []
    regularized = solver.Regularized
    monkeypatch.setattr(
        solver, "Regularized", lambda base, eta: levels.append(eta) or regularized(base, eta)
    )
    problem = capped_log_problem(a, r, level)
    report = eq.solve_difference(problem, target, initial=initial)
    assert 1e-4 in levels
    assert report.nodes.nodes[0] < a or report.nodes.nodes[-1] > 1.0 - a
    phi = eq.difference(problem, report.nodes).phi
    assert max(abs(p - t) for p, t in zip(phi, target)) <= 1e-9


@pytest.mark.parametrize("total", [1e-4, 1e-5, -1e-5])
def test_small_target_sum_solves(total):
    """The n = 6 case above with Σc shifted to ±1e-5 or 1e-4 solves.

    With bisection sweeps as the fallback the polish stalled at a residual of
    about 0.24·|Σc|; continuation in η reaches the target from there.
    """
    a, r, level, target, initial = N6_TARGET_CASE
    target = [target[0] + total - sum(target), *target[1:]]
    problem = capped_log_problem(a, r, level)
    report = eq.solve_difference(problem, target, initial=initial)
    phi = eq.difference(problem, report.nodes).phi
    assert max(abs(p - t) for p, t in zip(phi, target)) <= 1e-9


def test_unreachable_target_fails_fast(monkeypatch):
    """m_1 − m_0 = 40 needs node 1 within e^−40 of 0, inside the 1e-12 node gap: the solve must fail quickly."""
    calls = []
    residual_norm = solver._residual_norm
    monkeypatch.setattr(solver, "_residual_norm", lambda *args: calls.append(1) or residual_norm(*args))
    with pytest.raises(eq.ConvergenceError, match="eta=.*residual"):
        eq.solve_difference(log_problem(2), (40.0, 0.0))
    assert len(calls) <= 300


def test_regularized_stall_of_a_probe_draw_solves():
    """Draw seed 5 #223 of tools/capped_log_probe.py stalled at eta = 1e-2, residual 0.17, under the sweeps."""
    problem = capped_log_problem(
        0.07020731433412038,
        (0.6282392461226176, 1.5036581400508133, 0.8185626306166613, 1.2129017953963923),
        0.5911581358750908,
    )
    target = (0.7602275413573185, 0.1170711228130128, -0.7093310562866142, 0.8972114391982766)
    report = eq.solve_difference(problem, target)
    phi = eq.difference(problem, report.nodes).phi
    assert max(abs(p - t) for p, t in zip(phi, target)) <= 1e-9


def test_initial_outside_the_regularity_set_is_refused():
    """Newton cannot start where an interval maximum is −∞: its residual is infinite there."""
    field = eq.PiecewiseField((
        eq.Piece(0.0, 0.5, eq.Constant(0.0)),
        eq.Piece(0.5, 1.0, eq.NegInfinityPiece()),
    ))
    problem = eq.Problem(1, (1.0,), eq.Log(), field)
    with pytest.raises(eq.PreconditionError, match="regularity set"):
        eq.solve_equioscillation(problem, initial=(0.9,))
    assert eq.solve_equioscillation(problem).converged


def test_initial_is_refused_exactly_outside_the_regularity_set():
    """A given start passes the solver's check exactly when ``in_regularity_set`` holds for it.

    The field's −∞ stretch (0.3, 0.7) holds a finite override at 0.5, so
    (0.4, 0.6) is regular while (0.4, 0.5) and (0.5, 0.6) are not.
    """
    field = eq.PiecewiseField((
        eq.Piece(0.0, 0.3, eq.Constant(0.0)),
        eq.Piece(0.3, 0.7, eq.NegInfinityPiece()),
        eq.Piece(0.7, 1.0, eq.Constant(0.0)),
    ), ((0.5, 0.0),))
    problem = eq.Problem(2, (1.0, 1.0), eq.Log(), field)
    accepted, refused = [], []
    for y in itertools.combinations_with_replacement([i / 10 for i in range(1, 10)], 2):
        try:
            report = eq.solve_equioscillation(problem, initial=y)
        except eq.PreconditionError:
            refused.append(y)
        else:
            assert report.converged, y
            accepted.append(y)
    assert accepted == [y for y in accepted + refused if eq.in_regularity_set(problem, y)]
    assert all(not eq.in_regularity_set(problem, y) for y in refused)
    assert (0.4, 0.6) in accepted and (0.4, 0.5) in refused and (0.2, 0.2) in refused


def test_non_strict_differential(rng):
    """Random CappedLog problems, zero and nonzero targets, default and random starts."""
    for i in range(60):
        n = int(rng.integers(1, 7))
        r = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
        problem = eq.Problem(n, r, eq.CappedLog(float(rng.uniform(0.01, 0.6))), random_concave_field(rng))
        target = (0.0,) * n if i % 3 == 0 else tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=n))
        initial = random_strict_nodes(rng, n) if i % 2 == 0 else None
        report = eq.solve_difference(problem, target, initial=initial)
        assert report.converged and report.nonuniqueness_risk
        phi = eq.difference(problem, report.nodes).phi
        assert max(abs(p - t) for p, t in zip(phi, target)) <= 1e-9, (i, problem, target, initial)


def test_solve_difference_target_roundtrip_strictness():
    problem = build_problem("strictness_5_3")
    report = eq.solve_difference(problem, (0.8946394843421737,), tol=1e-10)
    assert report.nodes.nodes[0] == pytest.approx(0.775, abs=1e-8)


def test_solve_difference_roundtrip_random(rng):
    for n in (1, 2, 3):
        for _ in range(8):
            problem = random_sm_problem(rng, n)
            target = tuple(float(v) for v in rng.uniform(-3.0, 3.0, size=n))
            report = eq.solve_difference(problem, target)
            assert report.converged
            phi = eq.difference(problem, report.nodes)
            assert max(abs(a - b) for a, b in zip(phi.phi, target)) <= 1e-6


def test_uniqueness_under_random_initializations(rng):
    problem = log_problem(2, (1.0, 1.7))
    solutions = []
    for _ in range(10):
        init = random_strict_nodes(rng, 2)
        report = eq.solve_equioscillation(problem, initial=init)
        solutions.append(report.nodes.nodes)
    base = solutions[0]
    for other in solutions[1:]:
        assert max(abs(a - b) for a, b in zip(base, other)) <= 1e-7


def test_solver_keeps_nodes_out_of_field_gaps():
    from test_fields import log_chi_union

    problem = eq.Problem(2, (1.0, 1.0), eq.Log(), log_chi_union())
    report = eq.solve_equioscillation(problem)
    assert report.converged
    assert eq.in_regularity_set(problem, report.nodes)


@st.composite
def admissible_problems(draw):
    """Log problems on random piecewise fields: pieces −∞ with probability 3/5, finite overrides on some.

    Every fifth field is −∞ on every piece, so it is finite only at its
    overrides; a drawn field that is not admissible for n is rejected.
    """
    n = draw(st.integers(1, 6))
    cuts = draw(st.lists(st.integers(1, 999), min_size=1, max_size=28, unique=True))
    knots = [0.0, *sorted(c / 1000.0 for c in cuts), 1.0]
    override_only = draw(st.integers(0, 4)) == 0
    pieces = []
    for lo, hi in zip(knots, knots[1:]):
        level = None if override_only else draw(st.sampled_from([None, None, None, -1.0, 0.5]))
        pieces.append(eq.Piece(lo, hi, eq.NegInfinityPiece() if level is None else eq.Constant(level)))
    overrides = ()
    if override_only or draw(st.integers(0, 9)) < 3:
        at = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=10, unique=True))
        overrides = tuple((t / 1000.0, draw(st.sampled_from([-2.0, 0.0, 1.0]))) for t in sorted(at))
    field = eq.PiecewiseField(tuple(pieces), overrides)
    assume(eq.field_admissible(field, n))
    return eq.Problem(n, (1.0,) * n, eq.Log(), field)


# two adjacent finite pieces between −∞ stretches: the default start is not regular
@example(eq.Problem(3, (1.0,) * 3, eq.Log(), eq.PiecewiseField((
    eq.Piece(0.0, 0.4, eq.NegInfinityPiece()),
    eq.Piece(0.4, 0.5, eq.Constant(0.0)),
    eq.Piece(0.5, 0.6, eq.Constant(-1.0)),
    eq.Piece(0.6, 1.0, eq.NegInfinityPiece()),
))))
@given(admissible_problems())
def test_initial_nodes_are_strict_and_regular(problem):
    """The solver's start lies in the regularity set for every admissible field, override-only ones included."""
    ys, _ = solver._start(problem, (0.0,) * problem.n, None)
    ws = ys[1:-1]
    assert eq.in_regularity_set(problem, tuple(ws)), ws
    if not problem.field.singular_segments():
        assert ws == [(j + 1.0) / (problem.n + 1.0) for j in range(problem.n)]


@st.composite
def problems_with_nodes(draw):
    """An admissible problem and sorted nodes on its 1e-3 grid of knots and overrides, some moved by ±1e-13."""
    problem = draw(admissible_problems())
    ticks = draw(st.lists(st.integers(0, 1000), min_size=problem.n, max_size=problem.n))
    shifts = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 3e-4]), min_size=problem.n, max_size=problem.n))
    return problem, tuple(sorted(min(1.0, max(0.0, t / 1000.0 + s)) for t, s in zip(ticks, shifts)))


# two nodes 1e-13 apart: the interval between them is regular and its maximum finite
@example((log_problem(2), (0.5, 0.5 + 1e-13)))
@given(problems_with_nodes())
def test_regularity_set_is_the_domain_of_difference(case):
    """``in_regularity_set`` holds exactly where ``difference`` returns."""
    problem, y = case
    try:
        eq.difference(problem, y)
    except eq.RegularityError:
        returned = False
    else:
        returned = True
    assert eq.in_regularity_set(problem, y) == returned


def test_start_between_finite_pieces_needs_no_fallback(monkeypatch):
    """A start with nodes on one point had −∞ interval maxima, so Newton was skipped for 28 bisections."""
    field = eq.PiecewiseField((
        eq.Piece(0.0, 0.75, eq.NegInfinityPiece()),
        eq.Piece(0.75, 0.95, eq.Constant(0.0)),
        eq.Piece(0.95, 1.0, eq.NegInfinityPiece()),
    ))
    problem = eq.Problem(4, (1.0,) * 4, eq.Log(), field)
    ys, _ = solver._start(problem, (0.0,) * problem.n, None)
    assert eq.in_regularity_set(problem, tuple(ys[1:-1]))
    monkeypatch.setattr(solver, "Regularized", lambda *args: pytest.fail("the continuation ran"))
    report = eq.solve_equioscillation(problem)
    assert report.converged and eq.in_regularity_set(problem, report.nodes)


def test_hypothesis_errors():
    tent = build_problem("nonmonotone_5_4")
    with pytest.raises(eq.HypothesisError):
        eq.solve_equioscillation(tent)
    nonsingular = build_problem("singularity_5_1")
    with pytest.raises(eq.HypothesisError):
        eq.solve_equioscillation(nonsingular)


def test_convergence_error_on_tiny_budget():
    with pytest.raises(eq.ConvergenceError):
        eq.solve_equioscillation(log_problem(3), tol=1e-12, max_iterations=1)


def test_invalid_target():
    with pytest.raises(eq.PreconditionError):
        eq.solve_difference(log_problem(2), (0.0,))
    with pytest.raises(eq.PreconditionError):
        eq.solve_difference(log_problem(1), (float("inf"),))
    with pytest.raises(eq.PreconditionError):
        eq.solve_difference(log_problem(2), ["0.5", "0"])
    with pytest.raises(eq.PreconditionError):
        eq.solve_difference(log_problem(2), None)


def test_sandwich_examples():
    problem = log_problem(1)
    report = eq.solve_equioscillation(problem)
    checks = eq.sandwich_check(problem, report.nodes, report.value)
    assert checks == {"lower_ok": True, "upper_ok": True}

    checks = eq.sandwich_check(problem, (0.25,), LOG_HALF)
    assert checks == {"lower_ok": True, "upper_ok": True}

    strictness = build_problem("strictness_5_3")
    checks = eq.sandwich_check(strictness, (0.5,), 0.0)
    assert checks == {"lower_ok": True, "upper_ok": True}


def test_sandwich_detects_violations():
    problem = log_problem(1)
    # M far above m̄(x) violates the upper half; far below violates the lower half
    assert not eq.sandwich_check(problem, (0.5,), 5.0)["upper_ok"]
    assert not eq.sandwich_check(problem, (0.5,), -5.0)["lower_ok"]
    with pytest.raises(eq.PreconditionError):
        eq.sandwich_check(log_problem(2), (0.5, 0.5), 0.0)  # not strict


@pytest.mark.parametrize(
    "kwargs",
    [
        {"M": math.nan},
        {"M": math.inf},
        {"M": -math.inf},
        {"M": "x"},
        {"M": True},
        {"M": None},
    ],
)
def test_sandwich_rejects_non_finite_levels(kwargs):
    # a NaN level used to read as a violation of both halves, +inf as an upper violation
    with pytest.raises(eq.PreconditionError):
        eq.sandwich_check(log_problem(2), (0.3, 0.6), **kwargs)


def test_sandwich_accepts_numpy_reals():
    problem = log_problem(2)
    report = eq.solve_equioscillation(problem)
    checks = eq.sandwich_check(problem, report.nodes, np.float64(report.value))
    assert checks == {"lower_ok": True, "upper_ok": True}


def test_argmax_interlaces_nodes_for_concave_fields(rng):
    for field in (eq.constant_field(0.0), eq.sqrt_affine_field(1.0, 1.0, 0.0)):
        problem = eq.Problem(2, (1.0, 1.3), eq.Log(), field)
        report = eq.solve_equioscillation(problem)
        w1, w2 = report.nodes.nodes
        t0, t1, t2 = report.maxima.argmax
        assert t0 < w1 < t1 < w2 < t2


def test_report_phi_matches_difference():
    problem = log_problem(2)
    report = eq.solve_difference(problem, (0.5, -0.25))
    phi = eq.difference(problem, report.nodes)
    for a, b in zip(report.phi(), phi.phi):
        assert a == pytest.approx(b, abs=1e-12)


def _kinked_nodes(problem, ys, t):
    """The nodes k whose translate has a kink at t = y_k ± κ."""
    return {k for k in range(1, len(ys) - 1) for a in problem.kernel._kinks for s in (a, -a) if t == ys[k] + s}


def test_danskin_jacobian_matches_central_differences(rng):
    """Columns without an argmax on their translate's kink are exact; a kinked column is differenced.

    Φ need not be differentiable in y_k where an argmax sits on y_k ± κ, so
    that column matches the difference quotients of the row-by-row Jacobian
    exactly wherever that one differenced a row kinked at k, or a row without
    kinks; every other column matches central differences.
    """
    h = 1e-6
    kink_states = kinked_columns = 0
    for _ in range(120):
        n = int(rng.integers(1, 5))
        problem = random_sm_problem(rng, n)
        ys = [0.0, *random_strict_nodes(rng, n), 1.0]
        vals, args = _maxima_floats(problem, tuple(ys))
        kinked = [_kinked_nodes(problem, ys, t) for t in args]
        columns = set().union(*kinked)
        jac = solver._jacobian(problem, ys, vals, args)
        smooth = [k - 1 for k in range(1, n + 1) if k not in columns]
        central = np.empty((n, len(smooth)))
        for c, col in enumerate(smooth):
            up, down = list(ys), list(ys)
            up[col + 1] += h
            down[col + 1] -= h
            vals_up, _ = _maxima_floats(problem, tuple(up))
            vals_down, _ = _maxima_floats(problem, tuple(down))
            central[:, c] = (np.diff(vals_up) - np.diff(vals_down)) / (2.0 * h)
        if smooth:
            assert np.max(np.abs(jac[:, smooth] - central)) <= 1e-6 * np.max(np.abs(central))
        if columns:
            kink_states += 1
            rows = reference_row_fd_jacobian(problem, ys, vals, args)
            for k in columns:
                if all(k in K for K in kinked if K):
                    assert np.array_equal(jac[:, k - 1], rows[:, k - 1])
                    kinked_columns += 1
    assert kink_states >= 10 and kinked_columns >= 10


def test_kink_table_differences_the_entries_of_the_per_entry_test(rng, monkeypatch):
    """The Jacobian's kink-point table forward-differences the same entries, in the same order, as a test of every entry."""
    calls = {"table": [], "entry": []}
    fd_node = solver._fd_node
    monkeypatch.setattr(solver, "_fd_node", lambda ys, k: calls["table"].append(k) or fd_node(ys, k))
    monkeypatch.setattr(golden_reference, "_fd_node", lambda ys, k: calls["entry"].append(k) or fd_node(ys, k))
    states = []
    for _ in range(60):
        n = int(rng.integers(1, 6))
        problem = random_sm_problem(rng, n)
        ys = [0.0, *random_strict_nodes(rng, n), 1.0]
        vals, args = _maxima_floats(problem, tuple(ys))
        assert None not in args  # every maximum finite, as wherever the solver asks for a Jacobian
        states.append((problem, ys, vals, list(args)))
    kinked = 0
    for problem, ys, vals, args in states:
        calls["table"].clear()
        calls["entry"].clear()
        jac = solver._jacobian(problem, ys, vals, args)
        assert np.array_equal(jac, reference_entry_fd_jacobian(problem, ys, vals, args))
        assert calls["table"] == calls["entry"]
        kinked += bool(calls["table"])
    assert kinked >= 5


def test_argmax_on_a_kernel_kink_solves(monkeypatch):
    # two argmaxima of the solution sit exactly on y_2 ± a, where Φ has a kink
    a = 0.1418143608910151
    problem = eq.Problem(
        2,
        (0.5271954250943389, 1.4279739655413377),
        eq.Regularized(eq.CappedLog(a), 0.3329763274826674),
        eq.sqrt_affine_field(2.1637513178315144, -1.0, 1.0),
    )
    differenced = []
    fd_node = solver._fd_node
    monkeypatch.setattr(solver, "_fd_node", lambda ys, k: differenced.append(k) or fd_node(ys, k))
    report = eq.solve_equioscillation(problem)
    assert report.residual <= 1e-9
    for got, want in zip(report.nodes.nodes, (0.0533313795, 0.2745559472)):
        assert got == pytest.approx(want, abs=1e-8)
    w2 = report.nodes.nodes[1]
    assert report.maxima.argmax[1:] == (w2 - a, w2 + a)
    # one difference per argmax on a kink: 6 Jacobians, one with one and five with two
    # (14 over 7 Jacobians with every step in the nodes, 28 row by row)
    assert len(differenced) == 11
    # at the solution only node 2, whose translate's kink holds both argmaxima, is differenced
    differenced.clear()
    ys = [0.0, *report.nodes.nodes, 1.0]
    solver._jacobian(problem, ys, report.maxima.as_floats(), report.maxima.argmax)
    assert differenced == [2, 2]


def test_fd_node_steps_backwards_where_the_next_node_leaves_no_room():
    ys = [0.0, 0.5, 0.5 + 1e-12, 1.0]
    pert, h = solver._fd_node(ys, 1)
    assert pert == (0.0, 0.5 - 1e-7, 0.5 + 1e-12, 1.0)
    assert h == pert[1] - 0.5 and h == pytest.approx(-1e-7, rel=1e-9)


def test_jacobian_is_none_where_a_kink_difference_leaves_the_finite_points():
    # the field is −∞ but at its overrides 0.1 and 0.3; interval 1's argmax 0.3 is y_1 + κ
    kappa = 5e-8
    field = PiecewiseField((Piece(0.0, 1.0, NegInfinityPiece()),), ((0.1, 0.0), (0.3, 0.0)))
    problem = eq.Problem(1, (1.0,), eq.CappedLog(kappa), field)
    ys = [0.0, 0.3 - kappa, 1.0]
    res, vals, args = solver._residual_norm(problem, ys, (0.0,))
    assert res < 1e-9 and args == [0.1, 0.3] and args[1] == ys[1] + kappa
    # the forward difference moves y_1 past 0.3: interval 1 keeps no finite point
    pert, _ = solver._fd_node(ys, 1)
    assert pert[1] > 0.3 and _maxima_floats(problem, pert)[0][1] == -math.inf
    assert solver._jacobian(problem, ys, vals, args) is None
    report = eq.solve_equioscillation(problem, initial=(0.3 - kappa,))
    assert report.converged and report.iterations == 0 and report.nodes.nodes == (0.3 - kappa,)


@pytest.mark.parametrize("n", [32, 64])
def test_large_chebyshev(n):
    report = eq.solve_equioscillation(log_problem(n))
    assert report.residual <= 1e-9
    assert abs(report.value - math.log(2.0 * 4.0**-n)) <= 1e-9


def _check_weighted_chebyshev(weight, angle, n):
    """log ∘ weight with unit exponents: value −n·log 4 and nodes (1 + cos(angle(k)))/2, at the ladder tool's gates."""
    problem = eq.Problem(n, (1.0,) * n, eq.Log(), eq.log_of_weight_field(weight))
    report = eq.solve_equioscillation(problem)
    nodes = sorted(0.5 * (1.0 + math.cos(angle(k))) for k in range(1, n + 1))
    assert abs(report.value + n * math.log(4.0)) <= 2e-12
    assert max(abs(y - z) for y, z in zip(report.nodes.nodes, nodes)) <= 1e-14


@pytest.mark.parametrize("n", [4, 8, 16])
def test_third_kind_chebyshev(n):
    """Field log √t, −∞ at 0: √((1 + x)/2)·Vₙ(x) = cos((n + ½)θ)."""
    _check_weighted_chebyshev(eq.sqrt_affine_field(1.0, 1.0, 0.0), lambda k: (k - 0.5) * math.pi / (n + 0.5), n)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_fourth_kind_chebyshev(n):
    """Field log √(1 − t), −∞ at 1: √((1 − x)/2)·Wₙ(x) = sin((n + ½)θ)."""
    _check_weighted_chebyshev(eq.sqrt_affine_field(1.0, -1.0, 1.0), lambda k: k * math.pi / (n + 0.5), n)


def _phi_at(problem, ys):
    vals, _ = _maxima_floats(problem, tuple(ys))
    return np.diff(vals)


def test_log_gap_jacobian_matches_central_differences_of_phi_in_u(rng):
    """J_u = J_y·D, ∂y_k/∂u_l = h_l·([l < k] − y_k), against central differences of Φ∘y(u).

    The solver never forms J_u: its step in u is the step in the nodes mapped
    by D⁻¹ (``_gap_step``), which is checked here too.
    """
    h = 1e-6
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 6))
        problem = random_sm_problem(rng, n)
        ys = [0.0, *random_strict_nodes(rng, n), 1.0]
        vals, args = _maxima_floats(problem, tuple(ys))
        if any(_kinked_nodes(problem, ys, t) for t in args):
            continue  # Φ need not be differentiable there
        jac = solver._jacobian(problem, ys, vals, args)
        y, gaps = np.array(ys[1:-1]), np.diff(ys)
        d = (np.tri(n) - y[:, None]) * gaps[:n]
        central = np.empty((n, n))
        for col in range(n):
            unit = [float(col == l) for l in range(n)]
            up, down = solver._gap_trial(ys, unit, h), solver._gap_trial(ys, unit, -h)
            central[:, col] = (_phi_at(problem, up) - _phi_at(problem, down)) / (2.0 * h)
        assert np.max(np.abs(jac @ d - central)) <= 1e-6 * np.max(np.abs(central))
        for col in range(n):
            dy = [float(col == k) for k in range(n)]
            assert np.allclose(d @ solver._gap_step(ys, dy), dy, rtol=0.0, atol=1e-12)
        checked += 1
    assert checked >= 30


def test_log_gap_trial_of_a_huge_step_stays_inside_or_is_refused(rng):
    """A trial rescales the gaps by exp(λ·δu) and renormalizes them: inside the open simplex, but for rounding.

    Its nodes match the renormalized gaps summed in a log-sum-exp, and a gap
    that rounds below _BRACKET_EPS is what the solver's feasibility check
    refuses; at λ = 0 the trial is the iterate itself.
    """
    refused = inside = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        ys = [0.0, *random_strict_nodes(rng, n), 1.0]
        du = rng.uniform(-50.0, 50.0, size=n).tolist()
        assert solver._gap_trial(ys, du, 0.0) == ys
        for lam in (1.0, 0.5, 1e-2, 1e-4):
            trial = solver._gap_trial(ys, du, lam)
            assert len(trial) == n + 2 and trial[0] == 0.0 and trial[-1] == 1.0
            logs = np.log(np.diff(ys)) + lam * np.append(du, 0.0)
            exact = np.cumsum(np.exp(logs - logs.max()))
            assert np.allclose(trial[1:-1], exact[:-1] / exact[-1], rtol=0.0, atol=1e-13)
            if all(b - a >= solver._BRACKET_EPS for a, b in zip(trial, trial[1:])):
                inside += 1
            else:
                refused += 1
                assert lam * max(map(abs, du)) > 1.0  # only a large step empties a gap
    assert inside >= 200 and refused >= 50


def test_probe_draw_solves_through_levels_that_step_in_the_nodes(monkeypatch):
    """Draw seed 29 #284 of tools/capped_log_probe.py: Newton on the kernel stalls twice, and the levels η > 0 solve it.

    Those levels step in the nodes: a flat kernel's slow direction is a
    translation of all nodes, which is far in log-gaps. The solve takes 25
    Newton steps; with log-gap steps at every level it took 247.
    """
    problem = eq.Problem(
        6,
        (0.8467770836686392, 1.4745943129066363, 1.3476840077981433, 1.4721927822374687, 1.730781271839216,
         1.591816675355288),
        eq.CappedLog(0.026738784908472098),
        eq.constant_field(-0.7616230553138208),
    )
    target = (-0.6520734370020393, 0.5090866904499121, -0.21580070544892083, -0.4818679411546314,
              0.3460994890722713, 0.5067031743967707)
    initial = (0.20359766671973564, 0.36885250917563805, 0.44901767740459253, 0.47271100775564384,
               0.49799151171335077, 0.937727280896829)
    levels = []
    newton = solver._newton
    monkeypatch.setattr(
        solver, "_newton", lambda level, *args: levels.append((level.kernel, args[-1])) or newton(level, *args)
    )
    report = eq.solve_difference(problem, target, initial=initial)
    phi = eq.difference(problem, report.nodes).phi
    assert max(abs(p - t) for p, t in zip(phi, target)) <= 1e-9
    assert report.iterations <= 30
    regularized = [gaps for kernel, gaps in levels if isinstance(kernel, eq.Regularized)]
    assert regularized and not any(regularized)
    assert all(gaps for kernel, gaps in levels if kernel == problem.kernel)


@pytest.mark.parametrize("c", [-3.0, -1.0, 0.0, 1.0, 3.0])
def test_log_n1_solves_in_at_most_three_newton_steps(c):
    """Work gate: Φ(y) = log((1 − y)/y), affine in the log-gap u = log(y/(1 − y)), so one step in u lands.

    With every step in the nodes these solves took 5–7 steps; now 1–2 (a
    step in u, then the polish in the nodes).
    """
    report = eq.solve_difference(log_problem(1), (c,))
    assert report.iterations <= 3
    assert report.nodes.nodes[0] == pytest.approx(1.0 / (1.0 + math.exp(c)), abs=1e-12)


def test_solve_at_a_zero_residual_takes_no_step(monkeypatch):
    """Work gate: the n = 1 start y = 0.5 equioscillates exactly, so one maxima vector and no Newton step."""
    vectors = []
    maxima_floats = solver._maxima_floats
    monkeypatch.setattr(solver, "_maxima_floats", lambda *args: vectors.append(args) or maxima_floats(*args))
    report = eq.solve_equioscillation(log_problem(1))
    assert report.residual == 0.0 and report.iterations == 0 and len(vectors) == 1
    assert report.nodes.nodes == (0.5,)


def test_newton_alone_solves_smooth_problems(monkeypatch):
    """Log kernel, no kinks: no continuation level and no difference quotient is needed."""

    def forbidden(*args):
        raise AssertionError("fallback used")

    monkeypatch.setattr(solver, "Regularized", forbidden)
    monkeypatch.setattr(solver, "_fd_node", forbidden)
    report = eq.solve_equioscillation(log_problem(8))
    assert abs(report.value - math.log(2.0 * 4.0**-8)) <= 1e-12


def test_continuation_takes_over_when_newton_stalls(monkeypatch):
    problem = eq.Problem(
        4,
        (0.6675858474821905, 1.405747705328699, 1.1937348572933257, 1.0543904696585356),
        eq.Regularized(eq.CappedLog(0.05346814046975367), 0.03180362503922936),
        eq.sqrt_affine_field(0.706417647685788, -1.0, 1.0),
    )
    target = (1.1782014364682603, 2.573466896132424, 2.1622825109334247, 1.3596775974144233)
    initial = (0.178792384332672, 0.30396827700152607, 0.6764676951847486, 0.8749381822136748)
    levels = []
    regularized = solver.Regularized
    monkeypatch.setattr(
        solver, "Regularized", lambda base, eta: levels.append(eta) or regularized(base, eta)
    )
    report = eq.solve_difference(problem, target, initial=initial)
    assert levels
    phi = eq.difference(problem, report.nodes)
    assert max(abs(a - b) for a, b in zip(phi.phi, target)) <= 1e-9


@pytest.mark.parametrize(
    "settings",
    [
        {"tol": float("nan")},
        {"tol": 0.0},
        {"tol": -1.0},
        {"tol": float("inf")},
        {"tol": True},
        {"tol": "1e-9"},
        {"max_iterations": 2.5},
        {"max_iterations": 3.0},
        {"max_iterations": 0},
        {"max_iterations": -1},
        {"max_iterations": True},
    ],
    ids=repr,
)
def test_bad_settings_fail_up_front(settings, monkeypatch):
    monkeypatch.setattr(solver, "_newton", lambda *args: pytest.fail("solver ran"))
    with pytest.raises(eq.PreconditionError):
        eq.solve_difference(log_problem(2), (0.0, 0.0), **settings)
    with pytest.raises(eq.PreconditionError):
        eq.solve_equioscillation(log_problem(2), **settings)


def test_integer_like_max_iterations_are_accepted():
    for budget in (np.int64(50), 1):
        report = eq.solve_equioscillation(log_problem(1), max_iterations=budget)
        assert report.converged
