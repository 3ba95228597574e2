"""Chebyshev ladders of the solver: `solve_equioscillation` on log|t − y| at n = 4 … 512.

Three families, each with unit exponents and the log kernel on [0, 1], and
each with closed-form nodes and value (Mason & Handscomb, *Chebyshev
Polynomials*, 2003, ch. 1):

* T: the catalog's ``classical_chebyshev`` example, a zero field, at
  n = 4 … 512. The nodes are the Chebyshev nodes (1 + cos((2k − 1)π/(2n)))/2
  and the minimax value is log(2·4⁻ⁿ).
* V: the field log √t, the third kind, at n = 4 … 256. The nodes are
  (1 + cos((k − ½)π/(n + ½)))/2 and the value is −n·log 4.
* W: the field log √(1 − t), the fourth kind, at n = 4 … 256. The nodes
  are (1 + cos(kπ/(n + ½)))/2 and the value is −n·log 4.

The V and W fields are −∞ at an end point, so their solves also run the
regularity rule on the solver's path. Each rung solves its problem from the
solver's own start and prints the family, n, the wall time of the solve,
its Newton iterations, the value error and the node error, the largest
distance of a node from its closed-form node. It also prints the mean
number of slope-sum evaluations of the search of one interior interval
[y_j, y_{j+1}] (1 ≤ j < n) at the solved nodes, a count that does not
depend on the machine. Beside it, it prints the slope-sum evaluations of
the whole solve (every maxima vector of every Newton step and trial, whose
searches start at the last iterate's argmaxima), divided by the same n − 1.
The exit status is 1 if any node error exceeds 1e-14, any value error
exceeds 2e-12 up to n = 256 or 1e-13·|value| above it (the value grows like
n, and its rounding with it), any mean slope count at the solved nodes
exceeds 6, any solve's count exceeds 32, or any solve takes more than 8
Newton iterations, else 0. With Newton's steps above tolerance taken in
log-gap coordinates, the solves take 5–7 iterations and their counts are
16.3–28.7 (24.2 at T16, 26.6 at T512); with every step in the nodes they
took 7–11 iterations and 22.7–50.1 (29.2 at T16, 50.1 at T512), and
31.3–61.0 with every search started at its piece's midpoint (36.1 at T16).
No test solves n > 64, so this is the check at large n.

Run from the repository root (5–7 s on a shared 2-core x86-64 host):

    PYTHONPATH=src python tools/chebyshev_ladder.py
"""

from __future__ import annotations

import math
from time import perf_counter

import equiosc as eq

MAX_ERROR = 2e-12
ABSOLUTE_UP_TO = 256  # above this n the value error is gated relative to the value
MAX_RELATIVE_ERROR = 1e-13
MAX_NODE_ERROR = 1e-14
MAX_SLOPES_PER_INTERVAL = 6.0
MAX_SOLVE_SLOPES_PER_INTERVAL = 32.0
MAX_ITERATIONS = 8


class _SlopeCount:
    """The ``Log`` kernel of a problem, counting the evaluations of its compiled slope sums."""

    def __init__(self, problem: eq.Problem):
        count = self

        class CountedLog(eq.Log):
            def _build_slope_sum(self, terms):
                slope_sum = super()._build_slope_sum(terms)

                def counted(t: float):
                    count.evaluations += 1
                    return slope_sum(t)

                return counted

        self.evaluations = 0
        self.problem = eq.Problem(problem.n, problem.r, CountedLog(), problem.field)


def slopes_per_interval(problem: eq.Problem, nodes) -> float:
    """Mean slope-sum evaluations of the search of each interior interval at the given nodes (a Log problem)."""
    count = _SlopeCount(problem)
    for j in range(1, problem.n):
        eq.maximize_on_interval(count.problem, nodes, j)
    return count.evaluations / (problem.n - 1)


def solve_slopes_per_interval(problem: eq.Problem) -> float:
    """Slope-sum evaluations of a whole solve of a Log problem over n − 1, the divisor of :func:`slopes_per_interval`."""
    count = _SlopeCount(problem)
    eq.solve_equioscillation(count.problem)
    return count.evaluations / (problem.n - 1)


def first_kind(n: int):
    """(problem, value, nodes) of Tₙ, from the catalog."""
    forms = eq.closed_forms("classical_chebyshev", n=n)
    return eq.build_problem("classical_chebyshev", n=n), forms["value"], forms["nodes"]


def weighted(weight: eq.PiecewiseField, angle):
    """n ↦ (problem, value, nodes) for the field log ∘ weight, nodes (1 + cos(angle(k, n)))/2."""

    def family(n: int):
        problem = eq.Problem(n, (1.0,) * n, eq.Log(), eq.log_of_weight_field(weight))
        nodes = sorted(0.5 * (1.0 + math.cos(angle(k, n))) for k in range(1, n + 1))
        return problem, -n * math.log(4.0), nodes

    return family


FAMILIES = (
    ("T", first_kind, (4, 8, 16, 32, 64, 128, 256, 512)),
    ("V", weighted(eq.sqrt_affine_field(1.0, 1.0, 0.0), lambda k, n: (k - 0.5) * math.pi / (n + 0.5)),
     (4, 8, 16, 32, 64, 128, 256)),
    ("W", weighted(eq.sqrt_affine_field(1.0, -1.0, 1.0), lambda k, n: k * math.pi / (n + 0.5)),
     (4, 8, 16, 32, 64, 128, 256)),
)


def main() -> int:
    worst = worst_relative = worst_node = worst_slopes = worst_solve_slopes = 0.0
    most_iterations = 0
    print(
        f"{'family':>6} {'n':>4} {'wall s':>8} {'iterations':>10} {'value error':>12} {'relative':>9} "
        f"{'node error':>11} {'slopes':>6} {'solve slopes':>12}"
    )
    for name, family, ladder in FAMILIES:
        for n in ladder:
            problem, value, nodes = family(n)
            t0 = perf_counter()
            report = eq.solve_equioscillation(problem)
            seconds = perf_counter() - t0
            error = abs(report.value - value)
            node_error = max(abs(y - z) for y, z in zip(report.nodes.nodes, nodes))
            if n <= ABSOLUTE_UP_TO:
                worst = max(worst, error)
            else:
                worst_relative = max(worst_relative, error / abs(value))
            worst_node = max(worst_node, node_error)
            most_iterations = max(most_iterations, report.iterations)
            slopes = slopes_per_interval(problem, report.nodes)
            worst_slopes = max(worst_slopes, slopes)
            solve_slopes = solve_slopes_per_interval(problem)
            worst_solve_slopes = max(worst_solve_slopes, solve_slopes)
            print(
                f"{name:>6} {n:>4} {seconds:>8.3f} {report.iterations:>10} {error:>12.2e} "
                f"{error / abs(value):>9.1e} {node_error:>11.2e} {slopes:>6.2f} {solve_slopes:>12.2f}"
            )
    print(f"worst value error up to n = {ABSOLUTE_UP_TO} {worst:.2e} (bound {MAX_ERROR:.0e})")
    print(f"worst relative value error above n = {ABSOLUTE_UP_TO} {worst_relative:.2e} (bound {MAX_RELATIVE_ERROR:.0e})")
    print(f"worst node error {worst_node:.2e} (bound {MAX_NODE_ERROR:.0e})")
    print(f"most slope evaluations per interior interval {worst_slopes:.2f} (bound {MAX_SLOPES_PER_INTERVAL:.0f})")
    print(
        f"most slope evaluations of a solve over n − 1 {worst_solve_slopes:.2f} "
        f"(bound {MAX_SOLVE_SLOPES_PER_INTERVAL:.0f})"
    )
    print(f"most Newton iterations of a solve {most_iterations} (bound {MAX_ITERATIONS})")
    failed = worst > MAX_ERROR or worst_relative > MAX_RELATIVE_ERROR or worst_node > MAX_NODE_ERROR
    failed = failed or worst_slopes > MAX_SLOPES_PER_INTERVAL or worst_solve_slopes > MAX_SOLVE_SLOPES_PER_INTERVAL
    failed = failed or most_iterations > MAX_ITERATIONS
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
