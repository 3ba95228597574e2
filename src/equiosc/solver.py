"""Solving Φ(w) = c and the equioscillation point.

Under a singular, strictly monotone kernel the difference map Φ restricted to
the regularity set is a homeomorphism onto R^n, so the target equation has a
unique solution. The solve is damped Newton with the exact Jacobian: by
Danskin's envelope theorem ∂m_i/∂y_k = −r_k·K′(t_i* − y_k) at the interval
argmaxima t_i*, so every maxima vector comes with its Jacobian. Rows whose
argmax sits on a kernel kink y_k ± κ, where Φ is not differentiable, are taken
by forward difference. Only when Newton stalls do Gauss–Seidel sweeps take
over — node w_j moves by bisection to zero the local residual
m_j − m_{j−1} − c_j, which is strictly decreasing in w_j — with Newton again
once the residual is small.

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
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, HypothesisError, PreconditionError
from .extreal import NEG_INFINITY
from .kernels import Regularized
from .problem import NodeSystem, Problem
from .translates import MaximaVector, _interval_max, interval_maxima

__all__ = ["SolveReport", "sandwich_check", "solve_difference", "solve_equioscillation"]

_BRACKET_EPS = 1e-12
_BIG = 1e18
_FD_STEP = 1e-7
_SWEEP_SWITCH = 1e-3
_WARM_ETAS = (1e-2, 1e-4)


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
        m = self.maxima.as_floats()
        return tuple(m[j] - m[j - 1] for j in range(1, len(m)))


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


def _initial_nodes(problem: Problem) -> list[float]:
    n = problem.n
    ws = [(j + 1.0) / (n + 1.0) for j in range(n)]
    segments = problem.field.singular_segments()
    if not segments:
        return ws
    finite = _finite_field_pieces(problem)

    def offending(ws_now: list[float]) -> int | None:
        ys = (0.0, *ws_now, 1.0)
        from .translates import _rint_inside_segment

        for j in range(n + 1):
            lo, hi = ys[j], ys[j + 1]
            if any(_rint_inside_segment(lo, hi, j, n, seg) for seg in segments):
                return j
        return None

    for _ in range(4 * n + 4):
        j = offending(ws)
        if j is None:
            return ws
        move = j if 1 <= j <= n else 1
        node = ws[move - 1]
        lo, hi = min(finite, key=lambda seg: min(abs(node - seg[0]), abs(node - seg[1])))
        ws[move - 1] = 0.5 * (lo + hi)
        ws.sort()
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
    return ws


# -- residual machinery ----------------------------------------------------------

def _local_residual(problem: Problem, ys: list[float], j: int, c_j: float, xtol: float) -> float:
    _, m_left = _interval_max(problem, tuple(ys), j - 1, xtol)
    _, m_right = _interval_max(problem, tuple(ys), j, xtol)
    if m_left == NEG_INFINITY and m_right == NEG_INFINITY:
        return 0.0
    if m_left == NEG_INFINITY:
        return _BIG
    if m_right == NEG_INFINITY:
        return -_BIG
    return m_right - m_left - c_j


def _bisect_node(problem, ys: list[float], j: int, c_j: float, width_tol: float, xtol: float):
    lo = ys[j - 1] + _BRACKET_EPS
    hi = ys[j + 1] - _BRACKET_EPS
    if hi <= lo:
        return
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        ys[j] = mid
        if _local_residual(problem, ys, j, c_j, xtol) > 0.0:
            lo = mid
        else:
            hi = mid
    ys[j] = 0.5 * (lo + hi)


def _phi_floats(vals: list[float]) -> list[float]:
    return [vals[j] - vals[j - 1] for j in range(1, len(vals))]


def _residual_norm(problem: Problem, ys: list[float], c, xtol: float):
    from .translates import _maxima_floats

    vals, args = _maxima_floats(problem, tuple(ys), xtol)
    if any(v == NEG_INFINITY for v in vals):
        return math.inf, vals, args
    phi = _phi_floats(vals)
    return max(abs(p - cj) for p, cj in zip(phi, c)), vals, args


def _fd_node(ys: list[float], k: int) -> tuple[tuple[float, ...], float]:
    """ys with node k moved by _FD_STEP (backwards when there is no room), and the step."""
    pert = list(ys)
    pert[k] = min(ys[k] + _FD_STEP, ys[k + 1] - _BRACKET_EPS)
    h = pert[k] - ys[k]
    if h <= 0.0:
        pert[k] = max(ys[k] - _FD_STEP, ys[k - 1] + _BRACKET_EPS)
        h = pert[k] - ys[k]
    return tuple(pert), h


def _jacobian(problem: Problem, ys: list[float], vals, args, xtol: float):
    """Jacobian of Φ at ys from the interval argmaxima; None if a perturbed maximum is −∞.

    By Danskin's envelope theorem ∂m_i/∂y_k = −r_k·K′(t_i* − y_k) at the argmax
    t_i* of interval i, so each maxima vector carries its own Jacobian. A row
    whose argmax is missing or sits exactly on a kernel kink y_k ± κ, where m_i
    need not be differentiable, is taken by forward difference instead.
    """
    n = problem.n
    kernel = problem.kernel
    nodes = ys[1:-1]
    kink_points = {y + s for y in nodes for k in kernel._kinks for s in (k, -k)}
    exact = [i for i, t in enumerate(args) if t is not None and t not in kink_points]
    dm = np.empty((n + 1, n))
    if exact:
        ts = np.array([args[i] for i in exact])
        dm[exact] = -np.asarray(problem.r) * kernel._slope(ts[:, None] - np.array(nodes))
    for i in sorted(set(range(n + 1)).difference(exact)):
        for k in range(1, n + 1):
            pert, h = _fd_node(ys, k)
            _, v = _interval_max(problem, pert, i, xtol)
            if v == NEG_INFINITY:
                return None
            dm[i, k - 1] = (v - vals[i]) / h
    return dm[1:] - dm[:-1]


def _newton(problem, ys: list[float], c, tol, xtol, budget: int, state):
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
        jac = _jacobian(problem, ys, vals, args, xtol)
        if jac is None:
            break
        try:
            step = np.linalg.solve(jac, target - np.array(_phi_floats(vals)))
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
                new_res, new_vals, new_args = _residual_norm(problem, trial, c, xtol)
                if new_res < res:
                    ys[:] = trial
                    res, vals, args = new_res, new_vals, new_args
                    improved = True
                    break
            lam *= 0.5
        if within_tol or not improved:
            break
    return used, (res, vals, args)


def _solve_direct(problem: Problem, c, tol, xtol, max_iterations, initial):
    n = problem.n
    if initial is not None:
        init = problem.node_system(initial)
        if not init.strict():
            raise PreconditionError("initial node system must be strict")
        ys = [0.0, *init.nodes, 1.0]
    else:
        ys = [0.0, *_initial_nodes(problem), 1.0]

    # Newton with the exact Jacobian first; the sweeps are the fallback when it stalls
    state = _residual_norm(problem, ys, c, xtol)
    iterations, state = _newton(problem, ys, c, tol, xtol, max_iterations, state)
    width = 1e-2
    floor = 1e-6
    while state[0] > tol and iterations < max_iterations:
        width = max(width * 0.25, 1e-13)
        sweep_xtol = max(min(width * 1e-2, 1e-10), 1e-13)
        for j in range(1, n + 1):
            _bisect_node(problem, ys, j, c[j - 1], width, sweep_xtol)
        iterations += 1
        state = _residual_norm(problem, ys, c, xtol)
        if tol < state[0] <= _SWEEP_SWITCH:
            used, state = _newton(problem, ys, c, tol, xtol, max_iterations - iterations, state)
            iterations += used
            if state[0] > tol:  # Newton stalled: restart the sweeps a little tighter each time
                width = max(width, floor)
                floor *= 0.25
    res, vals, args = state
    return ys, res, vals, args, iterations, res <= tol


def _as_report(problem, ys, res, vals, args, iterations, converged, c, risk=False):
    nodes = NodeSystem(tuple(ys[1:-1]))
    maxima = MaximaVector(tuple(vals), tuple(args))
    return SolveReport(
        nodes=nodes,
        maxima=maxima,
        target=tuple(float(v) for v in c),
        residual=res,
        value=maxima.m_bar,
        iterations=iterations,
        converged=converged,
        nonuniqueness_risk=risk,
    )


def _check_real(name: str, v, positive: bool = False) -> float:
    """v as a float if it is a finite real, positive if asked; bools and non-numbers are refused."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v) or (
        positive and v <= 0.0
    ):
        kind = "finite positive real" if positive else "finite real"
        raise PreconditionError(f"{name} must be a {kind}, got {v!r}")
    return float(v)


def _as_int(v) -> int | None:
    """v as an int if it is an integer other than a bool, else None."""
    if isinstance(v, (bool, np.bool_)):
        return None
    try:
        return operator.index(v)
    except TypeError:
        return None


def _check_settings(tol, xtol, max_iterations) -> None:
    _check_real("tol", tol, positive=True)
    _check_real("xtol", xtol, positive=True)
    count = _as_int(max_iterations)
    if count is None or count < 1:
        raise PreconditionError(f"max_iterations must be an integer ≥ 1, got {max_iterations!r}")


def solve_difference(
    problem: Problem,
    c,
    tol: float = 1e-9,
    *,
    max_iterations: int = 500,
    initial=None,
    xtol: float = 1e-12,
) -> SolveReport:
    """Find w in the regularity set with Φ(w) = c (componentwise within tol)."""
    _check_settings(tol, xtol, max_iterations)
    c = tuple(float(v) for v in c)
    if len(c) != problem.n:
        raise PreconditionError(f"target must have length n={problem.n}")
    if any(not math.isfinite(v) for v in c):
        raise PreconditionError("target components must be finite")
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
            regularized, c, max(tol, 1e-10), xtol, max_iterations, warm
        )
        warm_iterations += iterations
        if not converged:
            raise ConvergenceError(
                f"regularized solve (eta={eta}) stalled at residual {res:.3e}"
            )
        warm = NodeSystem(tuple(ys[1:-1]))
    ys, res, vals, args, iterations, converged = _solve_direct(
        problem, c, tol, xtol, max_iterations, warm
    )
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
    xtol: float = 1e-12,
) -> SolveReport:
    """The unique node system with m_0 = … = m_n; also the minimax/maximin point."""
    return solve_difference(
        problem,
        (0.0,) * problem.n,
        tol,
        max_iterations=max_iterations,
        initial=initial,
        xtol=xtol,
    )


def sandwich_check(problem: Problem, x, M: float, slack: float = 1e-9) -> dict:
    """Verify m̲(x) ≤ M ≤ m̄(x) up to slack for a node system x in the open simplex."""
    M = _check_real("M", M)
    slack = _check_real("slack", slack)
    ns = problem.node_system(x)
    if not ns.strict():
        raise PreconditionError("sandwich check expects a strict node system")
    maxima = interval_maxima(problem, ns)
    lower_ok = maxima.m_under <= M + slack
    upper_ok = M <= maxima.m_bar + slack
    return {"lower_ok": lower_ok, "upper_ok": upper_ok}
