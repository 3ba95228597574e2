"""The four benchmark workloads: seeded inputs, library calls and answer checks.

Inputs are plain JSON values made from the seed alone: ``Problem`` documents,
interval-union tuples and targets. ``build`` turns them into tasks through the
public API (``problem_from_json``, ``IntervalUnion``); a task's ``call`` is the
one library call that is timed, and its ``check`` returns the deviation from
the known answer as a share of the tolerance the acceptance suite states; the
task passes when that share is at most 1.

Each workload is a list of rounds. A round holds one task of every kind the
workload mixes, so any whole number of rounds has the same mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import equiosc as eq

LOG = {"variant": "Log", "params": {}}


@dataclass
class Task:
    label: str
    n: int
    pieces: int  # field pieces of the problem the library solves
    call: Callable[[], object]
    check: Callable[[object], float]  # deviation / tolerance
    maxima_at: Callable[[object], tuple]  # (problem, nodes) for interval_maxima


def _field_doc(pieces) -> dict:
    return {
        "pieces": [{"lo": lo, "hi": hi, "formula": formula} for lo, hi, formula in pieces],
        "point_values": [],
    }


def _problem_doc(n, r, kernel, pieces) -> dict:
    return {"n": n, "r": list(r), "kernel": kernel, "field": _field_doc(pieces)}


def _chebyshev_nodes(n: int) -> list[float]:
    return sorted(0.5 * (1.0 + math.cos((2 * j - 1) * math.pi / (2 * n))) for j in range(1, n + 1))


def _chebyshev_value(n: int, c: float, rho: float) -> float:
    """Minimax value of c + rho·Σ log|t − y_j| over [0, 1]: c + rho·log(2·4⁻ⁿ)."""
    return c + rho * math.log(2.0 * 4.0 ** (-n))


# -- solve_heavy ------------------------------------------------------------------

LADDER = (4, 8, 12, 16)
SPLIT_N = 4
SPLIT_PIECES = 200


def _solve_heavy_round(rng: random.Random) -> list[dict]:
    c = rng.uniform(-2.0, 2.0)
    const = {"kind": "Constant", "c": c}
    one = [(0.0, 1.0, const)]
    split = [(i / SPLIT_PIECES, (i + 1) / SPLIT_PIECES, const) for i in range(SPLIT_PIECES)]
    docs = [_problem_doc(n, [1.0] * n, LOG, one) for n in LADDER]
    docs.append(_problem_doc(SPLIT_N, [1.0] * SPLIT_N, LOG, split))
    return [{"problem": d, "c": c} for d in docs]


def _build_solve_heavy(inp: dict) -> Task:
    problem = eq.problem_from_json(inp["problem"])
    n, c = problem.n, inp["c"]
    pieces = len(problem.field.pieces)
    want_nodes = _chebyshev_nodes(n)
    want_value = _chebyshev_value(n, c, 1.0)

    def check(report) -> float:
        dev = max(abs(a - b) for a, b in zip(report.nodes.nodes, want_nodes))
        dev = max(dev, abs(report.value - want_value))
        return dev / 1e-8  # criterion 1

    return Task(
        label=f"chebyshev n={n} pieces={pieces}",
        n=n,
        pieces=pieces,
        call=lambda: eq.solve_equioscillation(problem),
        check=check,
        maxima_at=lambda report: (problem, report.nodes),
    )


# -- roundtrip_small ----------------------------------------------------------------

# Irrational steps of a Kronecker sequence, one per uniform a roundtrip task draws
# (at most 2n + 3 = 11 at n = 4).
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
JITTER = 0.0125  # half of 1/40, as a share of each parameter's range


def _roundtrip_rounds(rng: random.Random, count: int) -> list[list[dict]]:
    """Rounds of one task per (n, kernel kind, field kind): 4 × 2 × 3 = 24 solve_difference calls.

    A task's cost varies 20-100x with its parameters (a small cap with a small
    eta and a far target is slowest), and a run covers some ten rounds, so
    independent draws would make the run's work follow the seed. Each of a
    task kind's uniforms therefore follows a fixed Kronecker sequence,
    u_i = frac(u_0 + i·step), which covers its range evenly in any run of
    consecutive rounds, and the seed moves each draw within ±JITTER of it.
    """
    kinds = [(n, kernel_kind, field_kind)
             for n in (1, 2, 3, 4)
             for kernel_kind in ("log", "regularized")
             for field_kind in ("constant", "sqrt_up", "sqrt_down")]
    fixed = random.Random("roundtrip_small starts")
    starts = {kind: [fixed.random() for _ in _STEPS] for kind in kinds}
    rounds = []
    for i in range(count):
        out = []
        for kind in kinds:
            n, kernel_kind, field_kind = kind
            draws = iter([(u0 + i * step + rng.uniform(-JITTER, JITTER)) % 1.0
                          for u0, step in zip(starts[kind], _STEPS)])

            def uniform(lo: float, hi: float) -> float:
                return lo + (hi - lo) * next(draws)

            r = [uniform(0.5, 2.0) for _ in range(n)]
            if kernel_kind == "log":
                kernel = LOG
            else:
                cap = {"variant": "CappedLog", "params": {"a": uniform(0.1, 0.5)}}
                kernel = {"variant": "Regularized", "params": {"base": cap, "eta": uniform(0.3, 1.5)}}
            if field_kind == "constant":
                formula = {"kind": "Constant", "c": uniform(-2.0, 2.0)}
            elif field_kind == "sqrt_up":
                formula = {"kind": "SqrtAffine", "c": uniform(0.5, 4.0), "s": 1.0, "t0": 0.0}
            else:
                formula = {"kind": "SqrtAffine", "c": uniform(0.5, 4.0), "s": -1.0, "t0": 1.0}
            target = [uniform(-3.0, 3.0) for _ in range(n)]
            out.append(
                {
                    "problem": _problem_doc(n, r, kernel, [(0.0, 1.0, formula)]),
                    "target": target,
                    "label": f"{kernel_kind}/{field_kind}",
                }
            )
        rounds.append(out)
    return rounds


def _build_roundtrip(inp: dict) -> Task:
    problem = eq.problem_from_json(inp["problem"])
    target = tuple(float(v) for v in inp["target"])

    def check(report) -> float:
        phi = eq.difference(problem, report.nodes).phi
        return max(abs(a - b) for a, b in zip(phi, target)) / 1e-6  # criterion 6

    return Task(
        label=f"roundtrip n={problem.n} {inp['label']}",
        n=problem.n,
        pieces=len(problem.field.pieces),
        call=lambda: eq.solve_difference(problem, target, tol=1e-9),
        check=check,
        maxima_at=lambda report: (problem, report.nodes),
    )


# -- oracle_grid -----------------------------------------------------------------------

def _oracle_round(rng: random.Random) -> list[dict]:
    """Log kernel with constant field at n = 2, 3, plus two catalog kernels the solver refuses."""
    c = rng.uniform(-2.0, 2.0)
    rho = rng.uniform(0.5, 2.0)
    const = [(0.0, 1.0, {"kind": "Constant", "c": c})]
    sqrt_shift = {"variant": "SqrtShift", "params": {}}
    capped_quad = {"variant": "CappedLogPlusQuadratic", "params": {"a": 0.1}}
    out = []
    for n, points in ((2, 21), (3, 11)):
        doc = _problem_doc(n, [rho] * n, LOG, const)
        for mode in ("minimax", "maximin"):
            out.append({"problem": doc, "mode": mode, "grid": [points, 2],
                        "expect": _chebyshev_value(n, c, rho), "label": f"log n={n}"})
    # catalog singularity_5_1: both extrema at (0, 0) with value 12
    doc = _problem_doc(2, [1.0, 1.0], sqrt_shift,
                       [(0.0, 1.0, {"kind": "SqrtAffine", "c": 8.0, "s": -1.0, "t0": 1.0})])
    for mode in ("minimax", "maximin"):
        out.append({"problem": doc, "mode": mode, "grid": [21, 2], "expect": 12.0,
                    "label": "singularity_5_1"})
    # catalog monotonicity_5_2: minimax at x = 0 with value 11/8
    doc = _problem_doc(1, [1.0], capped_quad,
                       [(0.0, 1.0, {"kind": "SqrtAffine", "c": 1.0, "s": 1.0, "t0": 0.0})])
    out.append({"problem": doc, "mode": "minimax", "grid": [101, 2], "expect": 11.0 / 8.0,
                "label": "monotonicity_5_2"})
    return out


def _build_oracle(inp: dict) -> Task:
    problem = eq.problem_from_json(inp["problem"])
    points, rounds = inp["grid"]
    grid = eq.GridSpec(points_per_dim=points, refine_rounds=rounds)
    pitch = (1.0 / 10.0**rounds) / (points - 1)
    expect = inp["expect"]
    name = "grid_" + inp["mode"]  # looked up at call time, where a tracer may have wrapped it

    def check(result) -> float:
        _, value = result
        return abs(value - expect) / (10.0 * pitch)  # criterion 11

    return Task(
        label=f"{inp['mode']} {inp['label']} grid={points}x{rounds}",
        n=problem.n,
        pieces=len(problem.field.pieces),
        call=lambda: getattr(eq, name)(problem, grid, threads=1),
        check=check,
        maxima_at=lambda result: (problem, result[0]),
    )


# -- union_compare -----------------------------------------------------------------------

SEED_UNION = ((0.0, 0.4), (0.6, 1.0))
MIN_GAP = 0.06


def _random_union(rng: random.Random, k: int) -> list[list[float]]:
    while True:
        cuts = sorted(rng.uniform(0.0, 1.0) for _ in range(2 * k))
        if min(b - a for a, b in zip(cuts, cuts[1:])) >= MIN_GAP:
            return [[cuts[2 * i], cuts[2 * i + 1]] for i in range(k)]


def _union_round(rng: random.Random) -> list[dict]:
    """The seed union at n = 1, then one random union per k = 2, 3 and n = 1, 2, 3."""
    out = [{"union": [list(c) for c in SEED_UNION], "n": 1, "seed_union": True}]
    for k in (2, 3):
        for n in (1, 2, 3):
            out.append({"union": _random_union(rng, k), "n": n, "seed_union": False})
    return out


def _union_problem(union, r) -> tuple:
    """The hull-normalized log problem the library solves for C: log 1 on E, −∞ in the gaps."""
    (A, _), (_, B) = union.components[0], union.components[-1]
    width = B - A
    cuts = [(a - A) / width for comp in union.components for a in comp]
    log_one = {"kind": "LogOfWeight", "weight": {"kind": "Constant", "c": 1.0}}
    pieces = []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        pieces.append((lo, hi, log_one if i % 2 == 0 else {"kind": "NegInfinity"}))
    return eq.problem_from_json(_problem_doc(len(r), r, LOG, pieces)), A, width


def _build_union(inp: dict) -> Task:
    union = eq.IntervalUnion(tuple(tuple(c) for c in inp["union"]))
    r = (1.0,) * inp["n"]
    bound = 2.0 ** (union.k - 1)
    seed_union = inp["seed_union"]

    def check(report) -> float:
        C, R, snap = report["C"], report["R"], report["snap_norm"]
        ratio = max(0.0, C - R - 1e-9, R - bound * C - 1e-9, snap - bound * C - 1e-9) / 1e-9
        if seed_union:  # criterion 10: C = 0.5 and R = 0.6 on [0, 0.4] ∪ [0.6, 1]
            ratio = max(ratio, abs(C - 0.5) / 1e-6, abs(R - 0.6) / 1e-6)
        return ratio

    def maxima_at(report):
        problem, A, width = _union_problem(union, r)
        return problem, tuple((x - A) / width for x in report["nodes_unrestricted"])

    return Task(
        label=f"union k={union.k} n={len(r)}" + (" (seed union)" if seed_union else ""),
        n=len(r),
        pieces=2 * union.k - 1,
        call=lambda: eq.compare_constants(union, r),
        check=check,
        maxima_at=maxima_at,
    )


# -- registry -----------------------------------------------------------------------------

def _independent(make_round: Callable[[random.Random], list[dict]]):
    """make_rounds for a workload whose rounds are drawn independently."""
    return lambda rng, count: [make_round(rng) for _ in range(count)]


@dataclass(frozen=True)
class Workload:
    name: str
    make_rounds: Callable[[random.Random, int], list[list[dict]]]
    build_task: Callable[[dict], Task]
    max_rounds: int  # rounds generated and built in set-up: enough for --seconds 60
    traced_rounds: int  # rounds the traced run executes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve_heavy", _independent(_solve_heavy_round), _build_solve_heavy, 8, 1),
        Workload("roundtrip_small", _roundtrip_rounds, _build_roundtrip, 40, 4),
        Workload("oracle_grid", _independent(_oracle_round), _build_oracle, 20, 1),
        Workload("union_compare", _independent(_union_round), _build_union, 16, 1),
    )
}


def generate(name: str, seed: int) -> list[list[dict]]:
    """The workload's input rounds for this seed: JSON values only."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return workload.make_rounds(rng, workload.max_rounds)


def build(name: str, rounds: list[list[dict]]) -> list[list[Task]]:
    build_task = WORKLOADS[name].build_task
    return [[build_task(inp) for inp in rnd] for rnd in rounds]
