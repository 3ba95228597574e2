"""Chebyshev ladder of the solver: `solve_equioscillation` on log|t − y| at n = 4 … 256.

With unit exponents, the log kernel and a zero field on [0, 1], the
equioscillation nodes are the Chebyshev nodes and the minimax value is
log(2·4⁻ⁿ). Each rung solves that problem from the solver's own start and
prints n, the wall time of the solve, its Newton iterations and the value
error |value − log(2·4⁻ⁿ)|. The exit status is 1 if any error exceeds
2e-12, else 0. No test solves n > 64, so this is the check at large n.

Run from the repository root (about 5-10 s):

    PYTHONPATH=src python tools/chebyshev_ladder.py
"""

from __future__ import annotations

import math
from time import perf_counter

import equiosc as eq

LADDER = (4, 8, 16, 32, 64, 128, 256)
MAX_ERROR = 2e-12


def main() -> int:
    worst = 0.0
    print(f"{'n':>4} {'wall s':>8} {'iterations':>10} {'value error':>12}")
    for n in LADDER:
        problem = eq.Problem(n, (1.0,) * n, eq.Log(), eq.constant_field(0.0))
        t0 = perf_counter()
        report = eq.solve_equioscillation(problem)
        seconds = perf_counter() - t0
        error = abs(report.value - math.log(2.0 * 4.0**-n))
        worst = max(worst, error)
        print(f"{n:>4} {seconds:>8.3f} {report.iterations:>10} {error:>12.2e}")
    print(f"worst value error {worst:.2e} (bound {MAX_ERROR:.0e})")
    return 1 if worst > MAX_ERROR else 0


if __name__ == "__main__":
    raise SystemExit(main())
