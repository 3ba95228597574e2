"""Chebyshev ladder of the solver: `solve_equioscillation` on log|t − y| at n = 4 … 512.

The problem is the catalog's ``classical_chebyshev`` example: unit
exponents, the log kernel and a zero field on [0, 1]. Its closed forms give
the equioscillation nodes, the Chebyshev nodes (1 + cos((2k − 1)π/(2n)))/2,
and the minimax value log(2·4⁻ⁿ). Each rung solves that problem from the
solver's own start and prints n, the wall time of the solve, its Newton
iterations, the value error |value − log(2·4⁻ⁿ)| and the node error, the
largest distance of a node from its Chebyshev node. The exit
status is 1 if any node error exceeds 1e-14, or any value error exceeds 2e-12
up to n = 256 or 1e-13·|log(2·4⁻ⁿ)| above it (the value grows like n, and
its rounding with it), else 0. No test solves n > 64, so this is the check at
large n.

Run from the repository root (about 10 s):

    PYTHONPATH=src python tools/chebyshev_ladder.py
"""

from __future__ import annotations

from time import perf_counter

import equiosc as eq

LADDER = (4, 8, 16, 32, 64, 128, 256, 512)
MAX_ERROR = 2e-12
ABSOLUTE_UP_TO = 256  # above this n the value error is gated relative to the value
MAX_RELATIVE_ERROR = 1e-13
MAX_NODE_ERROR = 1e-14


def main() -> int:
    worst = worst_relative = worst_node = 0.0
    print(f"{'n':>4} {'wall s':>8} {'iterations':>10} {'value error':>12} {'relative':>9} {'node error':>11}")
    for n in LADDER:
        problem = eq.build_problem("classical_chebyshev", n=n)
        forms = eq.closed_forms("classical_chebyshev", n=n)
        t0 = perf_counter()
        report = eq.solve_equioscillation(problem)
        seconds = perf_counter() - t0
        value = forms["value"]
        error = abs(report.value - value)
        node_error = max(abs(y - z) for y, z in zip(report.nodes.nodes, forms["nodes"]))
        if n <= ABSOLUTE_UP_TO:
            worst = max(worst, error)
        else:
            worst_relative = max(worst_relative, error / abs(value))
        worst_node = max(worst_node, node_error)
        print(
            f"{n:>4} {seconds:>8.3f} {report.iterations:>10} {error:>12.2e} "
            f"{error / abs(value):>9.1e} {node_error:>11.2e}"
        )
    print(f"worst value error up to n = {ABSOLUTE_UP_TO} {worst:.2e} (bound {MAX_ERROR:.0e})")
    print(f"worst relative value error above n = {ABSOLUTE_UP_TO} {worst_relative:.2e} (bound {MAX_RELATIVE_ERROR:.0e})")
    print(f"worst node error {worst_node:.2e} (bound {MAX_NODE_ERROR:.0e})")
    failed = worst > MAX_ERROR or worst_relative > MAX_RELATIVE_ERROR or worst_node > MAX_NODE_ERROR
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
