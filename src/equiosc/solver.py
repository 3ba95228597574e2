"""Solving Φ(w) = c and the equioscillation point.

Under a singular, strictly monotone kernel the difference map Φ restricted to
the regularity set is a homeomorphism onto R^n, so the target equation has a
unique solution. The solve is damped Newton with the exact Jacobian: by
Danskin's envelope theorem ∂m_i/∂y_k = −r_k·K′(t_i* − y_k) at the interval
argmaxima t_i*, so every maxima vector comes with its Jacobian. Where an
argmax sits on a kernel kink y_k ± κ, Φ need not be differentiable in y_k, and
only that column k of the row is taken by forward difference. A singular
Jacobian, a flat direction of a kernel that is not strictly monotone, gets the
least-norm step. Each trial vector's slope searches start at the current
iterate's argmaxima, each moved affinely into its new interval, and a
continuation level's first vector starts at the last solved level's; near
convergence the argmaxima move little, so each search takes about two slope
evaluations, and the maxima are those of a search from the midpoint to
rounding.

The one fallback is continuation in η (Allgower–Georg, *Numerical
Continuation Methods*, 1990): K + η√|t| is singular and strictly monotone for
every η > 0, so each level η has exactly one solution, and the solve walks
levels down to η = 0, the kernel itself, each from the nodes of the last
solved level. A level that stalls gets a new level before it, between it and
the last solved level p (p = 1 before the first): √(p·η) if η > 0, p/100 if
η = 0. The solve fails once a stalled level is within a factor 1.5 of p, the
new level would be below 1e−14, or the one iteration budget is spent.

The start lies in the regularity set, where every interval maximum is
finite, and the solver tests that by the residual Newton starts from: a
given ``initial`` whose residual is infinite is refused, and the default
start is (j + 1)/(n + 1) when its residual is finite, else the midpoints
between n + 1 points where the field is finite, picked from its knots, its
overrides and n + 1 inner points of each piece.

Every solve starts at η = 0, so plain Newton on the kernel itself is the
first try, whether or not the kernel is strictly monotone. A kernel that is
monotone but not strictly so may have more than one solution, and any of them
is a correct answer; such solves are flagged, and the point returned is the
one Newton and the continuation reach from the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, HypothesisError, PreconditionError
from .extreal import NEG_INFINITY, _count, _real, _reals
from .kernels import Regularized
from .problem import NodeSystem, Problem, _checked
from .translates import _TIE, MaximaVector, _interval_max, _maxima_floats, _phi, interval_maxima

__all__ = ["SolveReport", "sandwich_check", "solve_difference", "solve_equioscillation"]

_BRACKET_EPS = 1e-12
_FD_STEP = 1e-7


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

def _start(problem: Problem, c, initial):
    """The first nodes, with sentinels, and the state there, as from :func:`_residual_norm`.

    The residual is finite exactly when every interval maximum is: in the
    regularity set, since a singular kernel makes a degenerate interval −∞.
    A given ``initial`` outside it is a PreconditionError. The default start
    is (j + 1)/(n + 1) when it is inside; otherwise each node sits halfway
    between two consecutive of n + 1 finite points p_0 < … < p_n of the
    field, so that interval j holds p_j.
    """
    n = problem.n
    if initial is None:
        ys = [0.0, *((j + 1.0) / (n + 1.0) for j in range(n)), 1.0]
    else:
        ys = [0.0, *problem.node_system(initial).nodes, 1.0]
    state = _residual_norm(problem, ys, c)
    if state[0] < math.inf:
        return ys, state
    if initial is not None:
        raise PreconditionError("initial node system must be strict and in the regularity set")
    # n + 1 finite points exist, since the field is admissible: the finite knots
    # and overrides, and n + 1 points inside each piece that is not −∞ there
    field = problem.field
    inner = [p.lo + (p.hi - p.lo) * (i + 1.0) / (n + 2.0) for p in field.pieces for i in range(n + 1)]
    points = {*field.knots(), *field.override_points(), *inner}
    points = sorted(t for t in points if field._value_float(t) > NEG_INFINITY)
    picked = [points[round(i * (len(points) - 1) / n)] for i in range(n + 1)]
    ys = [0.0, *(0.5 * (a + b) for a, b in zip(picked, picked[1:])), 1.0]
    return ys, _residual_norm(problem, ys, c)


# -- residual machinery ----------------------------------------------------------

def _residual_norm(problem: Problem, ys: list[float], c, prior=None):
    """(residual, maxima, argmaxima) at ys; ``prior`` = (nodes, argmaxima) nearby starts the slope searches."""
    vals, args = _maxima_floats(problem, tuple(ys), prior)
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
    difference; a table from each kink point to its columns finds them, one
    lookup per row. Every other column l of the row stays exact: t_i* − y_l is
    neither a kink nor 0 (F(y, t_i*) is finite), so F depends smoothly on y_l
    for t near t_i*, where the maximum stays, and Danskin's derivative holds
    there. Every argmax is set: the solver asks for a Jacobian only at a
    finite residual, where every m_i is finite. A kink entry's perturbed
    maximum can still be −∞, so the None is reachable: where t_i* = y_k + κ
    is the only finite point of F on interval i (a field that is −∞ but at
    an override at t_i*), the forward difference moves y_k past t_i* and
    leaves interval i no finite point.
    """
    n = problem.n
    kernel = problem.kernel
    nodes = ys[1:-1]
    shifts = [s for k in kernel._kinks for s in (k, -k)]
    dm = -np.asarray(problem.r) * kernel._slope(np.array(args)[:, None] - np.array(nodes))
    kinked: dict[float, list[int]] = {}  # kink point y_k ± κ -> its nodes k, ascending
    for k in range(1, n + 1):
        for s in shifts:
            kinked.setdefault(ys[k] + s, []).append(k)
    for i, t in enumerate(args):
        for k in kinked.get(t, ()):
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
    takes the nodes from tol down to rounding. A singular Jacobian above tol
    gets the least-norm step, a flat direction of a non-strict kernel.
    """
    target = np.asarray(c, dtype=float)
    used = 0
    res, vals, args = state
    while used < budget and math.isfinite(res):
        within_tol = res <= tol
        jac = _jacobian(problem, ys, vals, args)
        if jac is None:
            break
        rhs = target - np.array(_phi(vals))
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            if within_tol:
                break
            step = np.linalg.lstsq(jac, rhs, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            break
        step = step.tolist()  # keep nodes Python floats: the kernel sums are scalar code
        used += 1
        lam = 1.0
        improved = False
        for _ in range(1 if within_tol else 30):
            trial = [ys[0], *(y + lam * d for y, d in zip(ys[1:-1], step)), ys[-1]]
            if all(b - a >= _BRACKET_EPS for a, b in zip(trial, trial[1:])):
                new_res, new_vals, new_args = _residual_norm(problem, trial, c, (ys, args))
                if new_res < res:
                    ys[:] = trial
                    res, vals, args = new_res, new_vals, new_args
                    improved = True
                    break
            lam *= 0.5
        if within_tol or not improved:
            break
    return used, (res, vals, args)


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

    solved, first = _start(problem, c, initial)
    prior = None  # (nodes, argmaxima) of the last solved level
    levels = [0.0]  # a stack: the next level is last
    p = 1.0  # η of the last solved level, whose nodes are ``solved``
    iterations = 0
    while levels:
        eta = levels[-1]
        level = replace(problem, kernel=Regularized(problem.kernel, eta)) if eta else problem
        level_tol = max(tol, 1e-10) if eta else tol
        ys = list(solved)
        # the start's state serves the first level; a later one starts from the last solved level's argmaxima
        state = first or _residual_norm(level, ys, c, prior)
        first = None
        used, state = _newton(level, ys, c, level_tol, max_iterations - iterations, state)
        iterations += used
        if state[0] <= level_tol:
            solved, p = ys, levels.pop()
            prior = ys, state[2]
            continue
        inserted = math.sqrt(p * eta) if eta else p / 100.0
        if iterations >= max_iterations or p < 1.5 * eta or inserted < 1e-14:
            raise ConvergenceError(
                f"no convergence at eta={eta:g} after {iterations} iterations "
                f"(residual {state[0]:.3e})"
            )
        levels.append(inserted)
    res, vals, args = state
    maxima = MaximaVector(tuple(vals), tuple(args))
    return SolveReport(
        nodes=NodeSystem(tuple(solved[1:-1])),
        maxima=maxima,
        target=c,
        residual=res,
        value=maxima.m_bar,
        iterations=iterations,
        converged=True,
        nonuniqueness_risk=not flags.strictly_monotone_SM,
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
    """Verify m̲(x) ≤ M ≤ m̄(x) for a node system x in the open simplex; values within 1e-9 tie."""
    M = _real(M, "M", PreconditionError)
    ns = _checked(problem).node_system(x)
    if not ns.strict():
        raise PreconditionError("sandwich check expects a strict node system")
    maxima = interval_maxima(problem, ns)
    lower_ok = maxima.m_under <= M + _TIE
    upper_ok = M <= maxima.m_bar + _TIE
    return {"lower_ok": lower_ok, "upper_ok": upper_ok}
