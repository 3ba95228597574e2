import math

import numpy as np
import pytest

import equiosc as eq
from equiosc import solver
from equiosc.catalog import build_problem
from equiosc.translates import _maxima_floats
from conftest import random_sm_problem, random_strict_nodes

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
    assert len(report.eta_trend) == 3
    etas = [eta for eta, _, _ in report.eta_trend]
    assert etas == [1e-2, 1e-3, 1e-4]


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"M": math.nan},
        {"M": math.inf},
        {"M": -math.inf},
        {"M": "x"},
        {"M": True},
        {"M": None},
        {"M": 0.0, "slack": math.nan},
        {"M": 0.0, "slack": math.inf},
        {"M": 0.0, "slack": False},
        {"M": 0.0, "slack": "1e-9"},
    ],
)
def test_sandwich_rejects_non_finite_levels(kwargs):
    # a NaN level used to read as a violation of both halves, +inf as an upper violation
    with pytest.raises(eq.PreconditionError):
        eq.sandwich_check(log_problem(2), (0.3, 0.6), **kwargs)


def test_sandwich_accepts_numpy_reals():
    problem = log_problem(2)
    report = eq.solve_equioscillation(problem)
    checks = eq.sandwich_check(problem, report.nodes, np.float64(report.value), slack=np.float32(1e-9))
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


def _on_kink(problem, ys, t):
    return any(t == y + s for y in ys[1:-1] for k in problem.kernel._kinks for s in (k, -k))


def test_danskin_jacobian_matches_central_differences(rng):
    h = 1e-6
    compared = 0
    for _ in range(120):
        n = int(rng.integers(1, 5))
        problem = random_sm_problem(rng, n)
        ys = [0.0, *random_strict_nodes(rng, n), 1.0]
        vals, args = _maxima_floats(problem, tuple(ys))
        if any(_on_kink(problem, ys, t) for t in args):
            continue  # Φ need not be differentiable there; those rows use differences
        jac = solver._jacobian(problem, ys, vals, args, 1e-12)
        central = np.empty((n, n))
        for k in range(1, n + 1):
            up, down = list(ys), list(ys)
            up[k] += h
            down[k] -= h
            vals_up, _ = _maxima_floats(problem, tuple(up))
            vals_down, _ = _maxima_floats(problem, tuple(down))
            central[:, k - 1] = (np.diff(vals_up) - np.diff(vals_down)) / (2.0 * h)
        assert np.max(np.abs(jac - central)) <= 1e-6 * np.max(np.abs(central))
        compared += 1
    assert compared >= 90


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
    assert differenced


@pytest.mark.parametrize("n", [32, 64])
def test_large_chebyshev(n):
    report = eq.solve_equioscillation(log_problem(n))
    assert report.residual <= 1e-9
    assert abs(report.value - math.log(2.0 * 4.0**-n)) <= 1e-9


def test_newton_alone_solves_smooth_problems(monkeypatch):
    """Log kernel, no kinks: no sweep and no difference quotient is needed."""

    def forbidden(*args):
        raise AssertionError("fallback used")

    monkeypatch.setattr(solver, "_bisect_node", forbidden)
    monkeypatch.setattr(solver, "_fd_node", forbidden)
    report = eq.solve_equioscillation(log_problem(8))
    assert abs(report.value - math.log(2.0 * 4.0**-8)) <= 1e-12


def test_sweeps_take_over_when_newton_stalls(monkeypatch):
    problem = eq.Problem(
        4,
        (0.6675858474821905, 1.405747705328699, 1.1937348572933257, 1.0543904696585356),
        eq.Regularized(eq.CappedLog(0.05346814046975367), 0.03180362503922936),
        eq.sqrt_affine_field(0.706417647685788, -1.0, 1.0),
    )
    target = (1.1782014364682603, 2.573466896132424, 2.1622825109334247, 1.3596775974144233)
    initial = (0.178792384332672, 0.30396827700152607, 0.6764676951847486, 0.8749381822136748)
    sweeps = []
    bisect_node = solver._bisect_node
    monkeypatch.setattr(
        solver, "_bisect_node", lambda *args: sweeps.append(args[2]) or bisect_node(*args)
    )
    report = eq.solve_difference(problem, target, initial=initial)
    assert sweeps
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
        {"xtol": float("nan")},
        {"xtol": 0.0},
        {"max_iterations": 2.5},
        {"max_iterations": 3.0},
        {"max_iterations": 0},
        {"max_iterations": -1},
        {"max_iterations": True},
    ],
    ids=repr,
)
def test_bad_settings_fail_up_front(settings, monkeypatch):
    monkeypatch.setattr(solver, "_solve_direct", lambda *args: pytest.fail("solver ran"))
    with pytest.raises(eq.PreconditionError):
        eq.solve_difference(log_problem(2), (0.0, 0.0), **settings)
    with pytest.raises(eq.PreconditionError):
        eq.solve_equioscillation(log_problem(2), **settings)


def test_integer_like_max_iterations_are_accepted():
    for budget in (np.int64(50), 1):
        report = eq.solve_equioscillation(log_problem(1), max_iterations=budget)
        assert report.converged
