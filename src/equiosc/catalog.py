"""Built-in reference instances and their closed-form values.

Each key names a fully specified problem together with analytically known
quantities (interval maxima formulas, extremal locations and values), used by
the `example` CLI subcommand and the regression suite:

* ``singularity_5_1``: non-singular square-root kernel with a concave field;
  extrema sit on the simplex boundary at (0, 0).
* ``monotonicity_5_2``: singular strictly concave but non-monotone kernel;
  the minimax point degenerates to x = 0 with value 11/8.
* ``strictness_5_3``: capped-log kernel (monotone, not strictly) with an
  indicator field; unique equioscillation point 1 − a/e but a whole segment
  of maximin points.
* ``nonmonotone_5_4``: tent-shaped log kernel; a one-parameter family of
  equioscillating pairs and strict majorization along the separation scan.
* ``classical_chebyshev``: log kernel, zero field; nodes and value of the
  minimal monic product on [0, 1].
* ``figure1_quartics``: two fixed quartic node systems whose interval maxima
  intertwine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .extreal import NEG_INFINITY, _count, _real
from .fields import (
    Constant,
    Indicator,
    Piece,
    PiecewiseField,
    constant_field,
    sqrt_affine_field,
)
from .kernels import CappedLog, CappedLogPlusQuadratic, Log, SqrtShift, TentLog
from .oracle import GridSpec, grid_maximin, grid_minimax
from .perturbation import check_intertwining
from .problem import NodeSystem, Problem
from .solver import solve_equioscillation
from .translates import eval_F_grid, interval_maxima

__all__ = [
    "EXAMPLE_IDS",
    "ReferenceReport",
    "build_problem",
    "closed_forms",
    "run_reference_check",
]

EXAMPLE_IDS = (
    "singularity_5_1",
    "monotonicity_5_2",
    "strictness_5_3",
    "nonmonotone_5_4",
    "classical_chebyshev",
    "figure1_quartics",
)

FIGURE1_GREY = (0.05, 0.22, 0.634, 0.915)
FIGURE1_BLACK = (0.035, 0.25, 0.4, 0.965)

STRICTNESS_A = 0.25
STRICTNESS_B = 0.955671

# the parameters each example takes, with their defaults; any other is a SchemaError
_PARAMS = {key: {} for key in EXAMPLE_IDS} | {
    "strictness_5_3": {"a": STRICTNESS_A, "b": STRICTNESS_B},
    "classical_chebyshev": {"n": 3},
}


@dataclass(frozen=True)
class ReferenceReport:
    example: str
    rows: tuple[tuple[str, float, float], ...]  # (label, computed, reference)
    max_deviation: float
    elapsed: float
    notes: tuple[str, ...] = ()

    def ok(self, tol: float = 1e-6) -> bool:
        return self.max_deviation <= tol


def _params(key: str, params: dict) -> dict:
    """The example's parameters, defaults filled in and checked; SchemaError for an unknown id or parameter."""
    if key not in _PARAMS:
        raise SchemaError(f"unknown example id {key!r}; choose from {', '.join(EXAMPLE_IDS)}")
    extra = [name for name in params if name not in _PARAMS[key]]
    if extra:
        takes = ", ".join(_PARAMS[key]) or "no parameters"
        raise SchemaError(f"example {key!r} takes {takes}, not {', '.join(extra)}")
    values = _PARAMS[key] | params
    if key == "strictness_5_3":
        a = values["a"] = _real(values["a"], "a")
        b = values["b"] = _real(values["b"], "b")
        if not 0.0 < a < math.e / (1.0 + math.e):
            raise SchemaError("cap level must lie in (0, e/(1+e))")
        if not 1.0 - a / math.e < b < 1.0:
            raise SchemaError("jump location must lie in (1 − a/e, 1)")
    if key == "classical_chebyshev":
        values["n"] = _count(values["n"], "n")
        if values["n"] < 1:
            raise SchemaError("n must be a positive integer")
    return values


# -- problems -------------------------------------------------------------------

def build_problem(key: str, **params) -> Problem:
    params = _params(key, params)
    if key == "singularity_5_1":
        return Problem(2, (1.0, 1.0), SqrtShift(), sqrt_affine_field(8.0, -1.0, 1.0))
    if key == "monotonicity_5_2":
        return Problem(1, (1.0,), CappedLogPlusQuadratic(0.1), sqrt_affine_field(1.0, 1.0, 0.0))
    if key == "strictness_5_3":
        a, b = params["a"], params["b"]
        field = PiecewiseField((Piece(0.0, b, Constant(0.0)), Piece(b, 1.0, Indicator(1.0))))
        return Problem(1, (1.0,), CappedLog(a), field)
    if key == "nonmonotone_5_4":
        return Problem(2, (1.0, 1.0), TentLog(), constant_field(0.0))
    if key == "classical_chebyshev":
        n = params["n"]
        return Problem(n, (1.0,) * n, Log(), constant_field(0.0))
    return Problem(4, (1.0,) * 4, Log(), constant_field(0.0))  # figure1_quartics


# -- closed forms ----------------------------------------------------------------

def closed_forms(key: str, **params) -> dict:
    """Analytically known quantities for a reference instance."""
    params = _params(key, params)
    if key == "singularity_5_1":
        def m0(y1, y2):
            return 8.0 + math.sqrt(4.0 + y1) + math.sqrt(4.0 + y2)

        def m1(y1, y2):
            return 8.0 * math.sqrt(1.0 - y1) + 2.0 + math.sqrt(4.0 + y2 - y1)

        def m2(y1, y2):
            return 8.0 * math.sqrt(1.0 - y2) + math.sqrt(4.0 + y2 - y1) + 2.0

        return {"m": (m0, m1, m2), "optimum": (0.0, 0.0), "value": 12.0}
    if key == "monotonicity_5_2":
        return {"optimum": (0.0,), "value": 11.0 / 8.0}
    if key == "strictness_5_3":
        a = params["a"]

        def m0(x):
            return min(0.0, math.log(x / a)) if x > 0.0 else NEG_INFINITY

        def m1(x):
            return 1.0 + min(0.0, math.log((1.0 - x) / a)) if x < 1.0 else NEG_INFINITY

        return {
            "m0": m0,
            "m1": m1,
            "equioscillation": 1.0 - a / math.e,
            "value": 0.0,
            "maximin_segment": (a, 1.0 - a / math.e),
        }
    if key == "nonmonotone_5_4":
        def m_mid(delta):
            if delta <= 0.0:
                return NEG_INFINITY
            if delta <= 0.1:
                return 2.0 * math.log(10.0 * delta)
            return 2.0 * math.log(10.0 * (1.0 - delta) / 9.0)

        def m_side(delta, reach):
            # max over one outer interval when the boundary is at least
            # delta + 1/10 away; `reach` is that available room.
            if reach < delta + 0.1:
                return None  # closed form branch not applicable
            if delta + 0.1 <= 0.5:
                return math.log(1.0 - 20.0 * delta / 9.0)
            return math.log(100.0 / 9.0 * (0.5 - delta) ** 2)

        delta0 = (math.sqrt(82.0) - 1.0) / 90.0
        return {"m_mid": m_mid, "m_side": m_side, "delta0": delta0, "zero_deltas": (0.0, 0.1)}
    if key == "classical_chebyshev":
        n = params["n"]
        nodes = tuple(
            sorted(0.5 * (1.0 + math.cos((2 * j - 1) * math.pi / (2 * n))) for j in range(1, n + 1))
        )
        # log(2·4⁻ⁿ) as (1 − 2n)·log 2: 4⁻ⁿ underflows to 0 from n = 538 on
        return {"nodes": nodes, "value": (1 - 2 * n) * math.log(2.0)}
    return {"grey": FIGURE1_GREY, "black": FIGURE1_BLACK}  # figure1_quartics


# -- checks -----------------------------------------------------------------------

def _dense_interval_maxima(problem: Problem, nodes, points: int = 20001):
    """Independent per-interval maxima from a dense grid (reference values)."""
    ys = (0.0, *nodes, 1.0)
    out = []
    for lo, hi in zip(ys, ys[1:]):
        ts = np.linspace(lo, hi, points)
        vals = eval_F_grid(problem, NodeSystem(tuple(nodes)), ts)
        out.append(float(np.max(vals)))
    return out


def run_reference_check(key: str, *, fast: bool = False, seed: int = 0, **params) -> ReferenceReport:
    """Recompute a reference instance and compare against its closed forms."""
    start = time.perf_counter()
    rows: list[tuple[str, float, float]] = []
    notes: list[str] = []
    problem, forms = build_problem(key, **params), closed_forms(key, **params)

    if key == "singularity_5_1":
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(20 if fast else 100):
            y = tuple(sorted(rng.uniform(0.0, 1.0, size=2)))
            maxima = interval_maxima(problem, y)
            for j, form in enumerate(forms["m"]):
                worst = max(worst, abs(float(maxima.m[j]) - form(*y)))
        rows.append(("interval maxima vs formulas (max dev)", worst, 0.0))
        grid = GridSpec(points_per_dim=11 if fast else 21, refine_rounds=2)
        y_min, v_min = grid_minimax(problem, grid)
        y_max, v_max = grid_maximin(problem, grid)
        rows.append(("minimax node 1", y_min.nodes[0], forms["optimum"][0]))
        rows.append(("minimax node 2", y_min.nodes[1], forms["optimum"][1]))
        rows.append(("minimax value", v_min, forms["value"]))
        rows.append(("maximin node 1", y_max.nodes[0], forms["optimum"][0]))
        rows.append(("maximin node 2", y_max.nodes[1], forms["optimum"][1]))
        rows.append(("maximin value", v_max, forms["value"]))

    elif key == "monotonicity_5_2":
        grid = GridSpec(points_per_dim=51 if fast else 101, refine_rounds=2)
        y_min, v_min = grid_minimax(problem, grid)
        rows.append(("minimax node", y_min.nodes[0], forms["optimum"][0]))
        rows.append(("minimax value", v_min, forms["value"]))

    elif key == "strictness_5_3":
        report = solve_equioscillation(problem, tol=1e-10)
        rows.append(("equioscillation point", report.nodes.nodes[0], forms["equioscillation"]))
        rows.append(("equioscillation value", report.value, forms["value"]))
        notes.append("kernel not strictly monotone (nonuniqueness_risk), yet the point 1 - a/e is unique")
        lo, hi = forms["maximin_segment"]
        worst = 0.0
        for x in np.linspace(lo, hi, 12 if fast else 40):
            maxima = interval_maxima(problem, (float(x),))
            worst = max(worst, abs(float(maxima.m_under) - 0.0))
        rows.append(("maximin plateau flatness (max dev)", worst, 0.0))
        worst_m = 0.0
        for x in np.linspace(0.05, 0.95, 10 if fast else 31):
            maxima = interval_maxima(problem, (float(x),))
            worst_m = max(worst_m, abs(float(maxima.m[0]) - forms["m0"](float(x))))
            worst_m = max(worst_m, abs(float(maxima.m[1]) - forms["m1"](float(x))))
        rows.append(("interval maxima vs formulas (max dev)", worst_m, 0.0))

    elif key == "nonmonotone_5_4":
        d0 = forms["delta0"]
        rows.append(
            ("branch equality at delta0", forms["m_mid"](d0), forms["m_side"](d0, 0.55))
        )
        a = 0.45
        worst = 0.0
        for delta in np.linspace(0.02, 0.34, 9 if fast else 33):
            y = (a - delta, a + delta)
            maxima = interval_maxima(problem, y)
            worst = max(worst, abs(float(maxima.m[1]) - forms["m_mid"](delta)))
            side = forms["m_side"](delta, min(a, 1.0 - a))
            if side is not None:
                worst = max(worst, abs(float(maxima.m[0]) - side))
                worst = max(worst, abs(float(maxima.m[2]) - side))
        rows.append(("interval maxima vs formulas (max dev)", worst, 0.0))
        deltas = np.arange(0.0, 0.451, 0.01 if fast else 1e-3)
        zero_set = []
        for delta in deltas:
            y = (a - delta, a + delta)
            m_bar = interval_maxima(problem, y).m_bar
            if abs(m_bar) <= 1e-6:
                zero_set.append(float(delta))
        expected = forms["zero_deltas"]
        dev = max(
            min(abs(z - e) for z in zero_set) if zero_set else 1.0 for e in expected
        )
        spurious = [z for z in zero_set if min(abs(z - e) for e in expected) > 2e-3]
        rows.append(("zero set hits {0, 1/10} (max dev)", dev, 0.0))
        rows.append(("spurious zero-set points", float(len(spurious)), 0.0))

    elif key == "classical_chebyshev":
        report = solve_equioscillation(problem, tol=1e-10)
        for j, (got, want) in enumerate(zip(report.nodes.nodes, forms["nodes"]), start=1):
            rows.append((f"node {j}", got, want))
        rows.append(("value", report.value, forms["value"]))

    else:  # figure1_quartics
        worst = 0.0
        for nodes in (forms["grey"], forms["black"]):
            maxima = interval_maxima(problem, nodes)
            dense = _dense_interval_maxima(problem, nodes, 5001 if fast else 20001)
            for got, ref in zip(maxima.as_floats(), dense):
                worst = max(worst, abs(got - ref))
        rows.append(("interval maxima vs dense grid (max dev)", worst, 0.0))
        verdict = check_intertwining(problem, forms["grey"], forms["black"])
        rows.append(("two-sided witness found", 1.0 if verdict.is_witness else 0.0, 1.0))
        if verdict.is_witness:
            notes.append(
                f"witness indices: below={verdict.below}, above={verdict.above}"
            )

    deviation = max((abs(c - r) for _, c, r in rows), default=0.0)
    return ReferenceReport(
        example=key,
        rows=tuple(rows),
        max_deviation=deviation,
        elapsed=time.perf_counter() - start,
        notes=tuple(notes),
    )
