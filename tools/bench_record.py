"""The committed work record `BENCH_1.json`: exact counters and wall times of two groups of cases.

* Oracle searches: `grid_minimax` and `grid_maximin` on log|t − y| with unit
  exponents and a zero field, at n = 2 (21 points per axis, 2 refine rounds)
  and n = 3 (11×2). Counters: batched evaluations (`translates._sums_batch`
  calls), sampled points (the sizes of their point arrays) and bracket steps
  (sampler calls of `translates._bracket_batch`).
* The Tₙ ladder, n = 4 … 64: `solve_equioscillation` on the catalog's
  ``classical_chebyshev`` problem. Counters: Newton iterations, maxima
  vectors (`solver._maxima_floats` calls) and slope sums, counted as
  `tools/chebyshev_ladder.py` counts them, by a `Log` subclass.

The counters do not depend on the machine: two runs on one commit give the
same ones. The wall times, the least of three uncounted calls per case, are
recorded and not gated. ``--check`` recounts every case and compares its counters with the
record: the exit status is 1 when a counter rises or a recorded case is
gone, else 0. A change that lowers a counter rewrites the record by running
the tool without ``--check``.

Run from the repository root (about 5 s on a shared 2-core x86-64 host):

    PYTHONPATH=src python tools/bench_record.py            # write BENCH_1.json
    PYTHONPATH=src python tools/bench_record.py --check    # recount and compare
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import equiosc as eq
from equiosc import solver, translates

sys.path.insert(0, str(Path(__file__).resolve().parent))

from chebyshev_ladder import _SlopeCount  # noqa: E402

RECORD = Path(__file__).resolve().parents[1] / "BENCH_1.json"
ORACLE_CASES = ((2, 21), (3, 11))  # (n, points per axis), 2 refine rounds each
LADDER = (4, 8, 16, 32, 64)


@contextmanager
def _patched(module, name: str, wrap):
    """``module.name`` replaced by ``wrap(original)`` for the block."""
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _best_time(call, repeats: int = 3) -> float:
    """The least wall time of ``repeats`` calls, without the counting wrappers."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        call()
        best = min(best, perf_counter() - t0)
    return best


def oracle_case(n: int, points: int, mode: str) -> dict:
    counters = {"sums_batch_calls": 0, "sampled_points": 0, "bracket_steps": 0}

    def sums_batch(original):
        def counted(formula_values, r, kernel, T, nodes):
            counters["sums_batch_calls"] += 1
            counters["sampled_points"] += T.size
            return original(formula_values, r, kernel, T, nodes)

        return counted

    def bracket_batch(original):
        def counted(g, *args, **kwargs):
            def sampler(T, lanes):
                counters["bracket_steps"] += 1
                return g(T, lanes)

            return original(sampler, *args, **kwargs)

        return counted

    problem = eq.Problem(n, (1.0,) * n, eq.Log(), eq.constant_field(0.0))
    search = eq.grid_minimax if mode == "minimax" else eq.grid_maximin
    grid = eq.GridSpec(points_per_dim=points, refine_rounds=2)
    with _patched(translates, "_sums_batch", sums_batch), _patched(translates, "_bracket_batch", bracket_batch):
        search(problem, grid)
    wall = _best_time(lambda: search(problem, grid))
    return {"name": f"oracle {mode} Log n={n} {points}x2", "counters": counters, "wall_s": wall}


def ladder_case(n: int) -> dict:
    count = _SlopeCount(eq.build_problem("classical_chebyshev", n=n))
    vectors = 0

    def maxima_floats(original):
        def counted(*args):
            nonlocal vectors
            vectors += 1
            return original(*args)

        return counted

    with _patched(solver, "_maxima_floats", maxima_floats):
        report = eq.solve_equioscillation(count.problem)
    wall = _best_time(lambda: eq.solve_equioscillation(eq.build_problem("classical_chebyshev", n=n)))
    counters = {"newton_iterations": report.iterations, "maxima_vectors": vectors, "slope_sums": count.evaluations}
    return {"name": f"chebyshev T{n}", "counters": counters, "wall_s": wall}


def cases() -> list[dict]:
    out = [oracle_case(n, points, mode) for n, points in ORACLE_CASES for mode in ("minimax", "maximin")]
    return out + [ladder_case(n) for n in LADDER]


def record(measured: list[dict]) -> dict:
    return {
        "record": 1,
        "about": "exact work counters (gated: none may rise) and wall times (not gated) of tools/bench_record.py",
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "cases": [{**case, "wall_s": round(case["wall_s"], 6)} for case in measured],
    }


def check(measured: list[dict], committed: dict) -> bool:
    """Print each counter against the record; False when one rose or a recorded case is gone."""
    now = {case["name"]: case for case in measured}
    ok = True
    for case in committed["cases"]:
        got = now.get(case["name"])
        if got is None:
            print(f"{case['name']}: missing")
            ok = False
            continue
        for key, want in case["counters"].items():
            value = got["counters"].get(key)
            risen = value is None or value > want
            ok = ok and not risen
            print(f"{case['name']:<32} {key:<18} {value!s:>8} (record {want:>8}){'  ROSE' if risen else ''}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="recount and compare with the record")
    parser.add_argument("--record", type=Path, default=RECORD, help="the record file (default: BENCH_1.json)")
    args = parser.parse_args(argv)
    measured = cases()
    if args.check:
        return 0 if check(measured, json.loads(args.record.read_text())) else 1
    args.record.write_text(json.dumps(record(measured), indent=2) + "\n")
    for case in measured:
        print(f"{case['name']:<32} {case['wall_s']:8.4f} s  {case['counters']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
