"""Solving Φ(w) = c and the equioscillation point.

Under a singular, strictly monotone kernel the difference map Φ restricted to
the regularity set is a homeomorphism onto R^n, so the target equation has a
unique solution. The solve is damped Newton with the exact Jacobian: by
Danskin's envelope theorem ∂m_i/∂y_k = −r_k·K′(t_i* − y_k) at the interval
argmaxima t_i*, so every maxima vector comes with its Jacobian. Where an
argmax sits on a kernel kink y_k ± κ, Φ need not be differentiable in y_k, and
only that column k of the row is taken by forward difference. Only when
Newton stalls do Gauss–Seidel sweeps take over — node w_j moves by bisection
to zero the local residual m_j − m_{j−1} − c_j, which is strictly decreasing
in w_j — with Newton again once the residual is small. Sweeps that stop
lowering the residual end the solve unconverged.

Kernels that are monotone but not strictly so are warm-started on the strictly
monotone K + η√|t|: one solve at η = 1e−2, one at η = 1e−4 from its nodes, and
then the solve on the original kernel from those. The second level is there
because where the target needs a node within the flat part of K near an end of
[0, 1], the η = 1e−2 solution can sit where Φ of the original kernel is flat,
and no local step reaches the target from it. Such solves are flagged, since
without strict monotonicity the equioscillation point need not be unique; the
point returned is the one reached from the regularized solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, HypothesisError, PreconditionError
from .extreal import NEG_INFINITY, _count, _real, _reals
from .kernels import Regularized
from .problem import NodeSystem, Problem, _checked
from .translates import MaximaVector, _interval_max, _maxima_floats, _phi, _singular_interval, interval_maxima

__all__ = ["SolveReport", "sandwich_check", "solve_difference", "solve_equioscillation"]

_BRACKET_EPS = 1e-12
_BIG = 1e18
_FD_STEP = 1e-7
_SWEEP_SWITCH = 1e-3
_WARM_ETAS = (1e-2, 1e-4)
_SANDWICH_SLACK = 1e-9
# the sweeps give up once the best residual has not fallen by 10% over this many rounds
_STALL_ROUNDS = 10


@dataclass(frozen=True)
class SolveReport:
    nodes: NodeSystem
    maxima: MaximaVector
    target: tuple[float, ...]
    residual: float
    value: float
    iterations: int
    converged: bool
    nonuniqueness_risk: bool = False

    def phi(self) -> tuple[float, ...]:
        return _phi(self.maxima.as_floats())


# -- initialization -------------------------------------------------------------

def _finite_field_pieces(problem: Problem) -> list[tuple[float, float]]:
    """Complement components of the field's −∞ set (positive length only)."""
    segments = problem.field.singular_segments()
    out = []
    cursor = 0.0
    for seg in segments:
        if seg.lo > cursor:
            out.append((cursor, seg.lo))
        cursor = max(cursor, seg.hi)
    if cursor < 1.0:
        out.append((cursor, 1.0))
    if not out:
        out.append((0.0, 1.0))
    return out


def _regular_start(ws: list[float], segments) -> bool:
    """0 < w_1 < … < w_n < 1 with every interval's relative interior off the −∞ segments."""
    ys = (0.0, *ws, 1.0)
    return all(a < b for a, b in zip(ys, ys[1:])) and _singular_interval(ys, segments) is None


def _initial_nodes(problem: Problem) -> list[float]:
    """A strict start in the regularity set: (j + 1)/(n + 1), repaired where the field is −∞.

    A node bounding a −∞ interval moves to the midpoint of the nearest finite
    piece; if that gives no strict regular start, the nodes spread over the
    finite pieces by length quantiles, and failing that each node sits
    halfway between two consecutive of n + 1 finite points p_0 < … < p_n, so
    that interval j holds p_j.
    """
    n = problem.n
    ws = [(j + 1.0) / (n + 1.0) for j in range(n)]
    segments = problem.field.singular_segments()
    if not segments:
        return ws
    finite = _finite_field_pieces(problem)
    for _ in range(4 * n + 4):
        j = _singular_interval((0.0, *ws, 1.0), segments)
        if j is None:
            break
        move = j if 1 <= j <= n else 1
        node = ws[move - 1]
        lo, hi = min(finite, key=lambda seg: min(abs(node - seg[0]), abs(node - seg[1])))
        ws[move - 1] = 0.5 * (lo + hi)
        ws.sort()
    if j is None and _regular_start(ws, segments):
        return ws
    # fall back to spreading nodes over the finite pieces by length quantiles
    total = sum(hi - lo for lo, hi in finite)
    targets = [(j + 1.0) / (n + 1.0) * total for j in range(n)]
    ws = []
    for target in targets:
        acc = 0.0
        for lo, hi in finite:
            if acc + (hi - lo) >= target:
                ws.append(lo + (target - acc))
                break
            acc += hi - lo
        else:
            ws.append(finite[-1][1])
    ws = sorted(min(max(w, 1e-6), 1.0 - 1e-6) for w in ws)
    for i in range(1, n):
        if ws[i] <= ws[i - 1]:
            ws[i] = min(ws[i - 1] + 1e-6, 1.0 - 1e-6)
    if _regular_start(ws, segments):
        return ws
    # n + 1 finite points exist, since the field is admissible: the finite knots
    # and overrides, and n + 1 points inside each finite piece
    field = problem.field
    inner = [lo + (hi - lo) * (i + 1.0) / (n + 2.0) for lo, hi in finite for i in range(n + 1)]
    points = {*field.knots(), *field.override_points(), *inner}
    points = sorted(t for t in points if field._value_float(t) > NEG_INFINITY)
    picked = [points[round(i * (len(points) - 1) / n)] for i in range(n + 1)]
    return [0.5 * (a + b) for a, b in zip(picked, picked[1:])]


# -- residual machinery ----------------------------------------------------------

def _local_residual(problem: Problem, ys: list[float], j: int, c_j: float) -> float:
    _, m_left = _interval_max(problem, tuple(ys), j - 1)
    _, m_right = _interval_max(problem, tuple(ys), j)
    if m_left == NEG_INFINITY and m_right == NEG_INFINITY:
        return 0.0
    if m_left == NEG_INFINITY:
        return _BIG
    if m_right == NEG_INFINITY:
        return -_BIG
    return m_right - m_left - c_j


def _bisect_node(problem, ys: list[float], j: int, c_j: float, width_tol: float):
    lo = ys[j - 1] + _BRACKET_EPS
    hi = ys[j + 1] - _BRACKET_EPS
    if hi <= lo:
        return
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        ys[j] = mid
        if _local_residual(problem, ys, j, c_j) > 0.0:
            lo = mid
        else:
            hi = mid
    ys[j] = 0.5 * (lo + hi)


def _residual_norm(problem: Problem, ys: list[float], c):
    vals, args = _maxima_floats(problem, tuple(ys))
    if any(v == NEG_INFINITY for v in vals):
        return math.inf, vals, args
    return max(abs(p - cj) for p, cj in zip(_phi(vals), c)), vals, args


def _fd_node(ys: list[float], k: int) -> tuple[tuple[float, ...], float]:
    """ys with node k moved by _FD_STEP (backwards when there is no room), and the step."""
    pert = list(ys)
    pert[k] = min(ys[k] + _FD_STEP, ys[k + 1] - _BRACKET_EPS)
    h = pert[k] - ys[k]
    if h <= 0.0:
        pert[k] = max(ys[k] - _FD_STEP, ys[k - 1] + _BRACKET_EPS)
        h = pert[k] - ys[k]
    return tuple(pert), h


def _jacobian(problem: Problem, ys: list[float], vals, args):
    """Jacobian of Φ at ys from the interval argmaxima; None if a perturbed maximum is −∞.

    By Danskin's envelope theorem ∂m_i/∂y_l = −r_l·K′(t_i* − y_l) at the argmax
    t_i* of interval i, so each maxima vector carries its own Jacobian. Where
    t_i* sits exactly on a kink y_k ± κ of translate k, m_i need not be
    differentiable in y_k, and that entry alone is taken by forward
    difference. Every other column l of the row stays exact: t_i* − y_l is
    neither a kink nor 0 (F(y, t_i*) is finite), so F depends smoothly on y_l
    for t near t_i*, where the maximum stays, and Danskin's derivative holds
    there. A row without an argmax (m_i = −∞) is differenced in every column.
    """
    n = problem.n
    kernel = problem.kernel
    nodes = ys[1:-1]
    shifts = [s for k in kernel._kinks for s in (k, -k)]
    dm = np.empty((n + 1, n))
    rows = [i for i, t in enumerate(args) if t is not None]
    if rows:
        ts = np.array([args[i] for i in rows])
        dm[rows] = -np.asarray(problem.r) * kernel._slope(ts[:, None] - np.array(nodes))
    for i, t in enumerate(args):
        for k in range(1, n + 1):
            if t is None or any(t == ys[k] + s for s in shifts):
                pert, h = _fd_node(ys, k)
                _, v = _interval_max(problem, pert, i)
                if v == NEG_INFINITY:
                    return None
                dm[i, k - 1] = (v - vals[i]) / h
    return dm[1:] - dm[:-1]


def _newton(problem, ys: list[float], c, tol, budget: int, state):
    """Damped Newton on Φ − c from ys, which it updates in place.

    ``state`` is (residual, maxima, argmaxima) at ys, as from :func:`_residual_norm`;
    returns (steps used, state at the final ys). Stops at the first step that
    no halving makes lower the residual. Once the residual is within tol, one
    more full step is tried and kept only if it lowers the residual: that
    takes the nodes from tol down to rounding.
    """
    target = np.asarray(c, dtype=float)
    used = 0
    res, vals, args = state
    while used < budget and math.isfinite(res):
        within_tol = res <= tol
        jac = _jacobian(problem, ys, vals, args)
        if jac is None:
            break
        try:
            step = np.linalg.solve(jac, target - np.array(_phi(vals)))
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        step = step.tolist()  # keep nodes Python floats: the kernel sums are scalar code
        used += 1
        lam = 1.0
        improved = False
        for _ in range(1 if within_tol else 30):
            trial = [ys[0], *(y + lam * d for y, d in zip(ys[1:-1], step)), ys[-1]]
            if all(b - a >= _BRACKET_EPS for a, b in zip(trial, trial[1:])):
                new_res, new_vals, new_args = _residual_norm(problem, trial, c)
                if new_res < res:
                    ys[:] = trial
                    res, vals, args = new_res, new_vals, new_args
                    improved = True
                    break
            lam *= 0.5
        if within_tol or not improved:
            break
    return used, (res, vals, args)


def _solve_direct(problem: Problem, c, tol, max_iterations, initial):
    n = problem.n
    if initial is not None:
        init = problem.node_system(initial)
        if not init.strict():
            raise PreconditionError("initial node system must be strict")
        ys = [0.0, *init.nodes, 1.0]
    else:
        ys = [0.0, *_initial_nodes(problem), 1.0]

    # Newton with the exact Jacobian first; the sweeps are the fallback when it stalls
    state = _residual_norm(problem, ys, c)
    iterations, state = _newton(problem, ys, c, tol, max_iterations, state)
    width = 1e-2
    floor = 1e-6
    best = []  # best residual after each round of sweeps
    while state[0] > tol and iterations < max_iterations:
        width = max(width * 0.25, 1e-13)
        for j in range(1, n + 1):
            _bisect_node(problem, ys, j, c[j - 1], width)
        iterations += 1
        state = _residual_norm(problem, ys, c)
        if tol < state[0] <= _SWEEP_SWITCH:
            used, state = _newton(problem, ys, c, tol, max_iterations - iterations, state)
            iterations += used
            if state[0] > tol:  # Newton stalled: restart the sweeps a little tighter each time
                width = max(width, floor)
                floor *= 0.25
        best.append(min([state[0], *best[-1:]]))
        if len(best) > _STALL_ROUNDS and best[-1] > 0.9 * best[-1 - _STALL_ROUNDS]:
            break
    res, vals, args = state
    return ys, res, vals, args, iterations, res <= tol


def _as_report(problem, ys, res, vals, args, iterations, converged, c, risk=False):
    nodes = NodeSystem(tuple(ys[1:-1]))
    maxima = MaximaVector(tuple(vals), tuple(args))
    return SolveReport(
        nodes=nodes,
        maxima=maxima,
        target=c,
        residual=res,
        value=maxima.m_bar,
        iterations=iterations,
        converged=converged,
        nonuniqueness_risk=risk,
    )


def _check_settings(tol, max_iterations) -> None:
    _real(tol, "tol", PreconditionError, positive=True)
    if _count(max_iterations, "max_iterations", PreconditionError) < 1:
        raise PreconditionError(f"max_iterations must be at least 1, got {max_iterations!r}")


def solve_difference(
    problem: Problem,
    c,
    tol: float = 1e-9,
    *,
    max_iterations: int = 500,
    initial=None,
) -> SolveReport:
    """Find w in the regularity set with Φ(w) = c (componentwise within tol)."""
    _checked(problem)
    _check_settings(tol, max_iterations)
    c = _reals(c, "target component", PreconditionError)
    if len(c) != problem.n:
        raise PreconditionError(f"target must have length n={problem.n}")
    flags = problem.kernel.flags()
    if not flags.singular:
        raise HypothesisError("solver requires a singular kernel (K(0) = −∞)")
    if not flags.monotone_M:
        raise HypothesisError("solver requires a monotone kernel")

    # A monotone kernel that is not strictly monotone is warm-started from regularized solves.
    strict = flags.strictly_monotone_SM
    warm, warm_iterations = initial, 0
    for eta in () if strict else _WARM_ETAS:
        regularized = replace(problem, kernel=Regularized(problem.kernel, eta))
        ys, res, _, _, iterations, converged = _solve_direct(
            regularized, c, max(tol, 1e-10), max_iterations, warm
        )
        warm_iterations += iterations
        if not converged:
            raise ConvergenceError(
                f"regularized solve (eta={eta}) stalled at residual {res:.3e}"
            )
        warm = NodeSystem(tuple(ys[1:-1]))
    ys, res, vals, args, iterations, converged = _solve_direct(problem, c, tol, max_iterations, warm)
    if not converged:
        raise ConvergenceError(
            f"no convergence after {iterations} iterations (residual {res:.3e})" if strict
            else f"polish on the original kernel stalled at residual {res:.3e}"
        )
    return _as_report(
        problem, ys, res, vals, args, warm_iterations + iterations, converged, c, risk=not strict
    )


def solve_equioscillation(
    problem: Problem,
    tol: float = 1e-9,
    *,
    max_iterations: int = 500,
    initial=None,
) -> SolveReport:
    """The unique node system with m_0 = … = m_n; also the minimax/maximin point."""
    zero = (0.0,) * _checked(problem).n
    return solve_difference(problem, zero, tol, max_iterations=max_iterations, initial=initial)


def sandwich_check(problem: Problem, x, M: float) -> dict:
    """Verify m̲(x) ≤ M ≤ m̄(x) up to a slack of 1e-9 for a node system x in the open simplex."""
    M = _real(M, "M", PreconditionError)
    ns = _checked(problem).node_system(x)
    if not ns.strict():
        raise PreconditionError("sandwich check expects a strict node system")
    maxima = interval_maxima(problem, ns)
    lower_ok = maxima.m_under <= M + _SANDWICH_SLACK
    upper_ok = M <= maxima.m_bar + _SANDWICH_SLACK
    return {"lower_ok": lower_ok, "upper_ok": upper_ok}
