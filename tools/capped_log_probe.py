"""Random CappedLog probe of the solver: 3,000 seeded `solve_difference` calls.

CappedLog kernels are monotone but not strictly so, so Φ can be flat and the
solution need not be unique, and their kinks at ±a put argmaxima on translate
kinks. There Newton most often stalls, and the continuation in η inserts
levels. A change to the solver should leave this probe's output unchanged, or
explain each line that moves.

Draws: seeds 1, 3, 5, …, 29 (ten seeds), 300 draws each from
``numpy.random.default_rng(seed)``. Draw i takes, in this order,
n = integers(1, 7), a = uniform(0.01, 0.6), r = uniform(0.5, 2, n) and the
field ``random_concave_field`` of ``tests/conftest.py``; its target is 0 when
i is a multiple of 3 and uniform(−1, 1, n) otherwise, and when i is even the
solve starts from ``random_strict_nodes`` (``tests/conftest.py``) instead of
the solver's own start.

Each converged draw has Φ of its nodes recomputed with ``difference``; a draw
more than 1e−9 off its target counts as a failure, whatever its report says.

Output: the solve count, each failure as (seed, index) with its reason, the
total iterations of the converged solves and a SHA-256 over their nodes'
``float.hex``, so two checkouts compare by one line. Every draw converges in
18,963 iterations in all (18,994 with a step taken at a zero residual, 22,307
with every Newton step in the nodes), digest ``23df2956…``, so the exit
status is 1 if any draw fails or the iterations
exceed 20,400 (headroom for LAPACK rounding), else 0. The iteration count
does not depend on the machine's speed.

Run from the repository root (about 15 s):

    PYTHONPATH=src python tools/capped_log_probe.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import equiosc as eq  # noqa: E402
from conftest import random_concave_field, random_strict_nodes  # noqa: E402

SEEDS = (1, 3, 5, 7, 11, 13, 17, 19, 23, 29)
DRAWS = 300
PHI_TOL = 1e-9
MAX_ITERATIONS = 20_400


def draw(rng: np.random.Generator, i: int):
    """(problem, target, initial nodes or None) of draw i."""
    n = int(rng.integers(1, 7))
    a = float(rng.uniform(0.01, 0.6))
    r = tuple(float(v) for v in rng.uniform(0.5, 2.0, size=n))
    problem = eq.Problem(n, r, eq.CappedLog(a), random_concave_field(rng))
    target = (0.0,) * n if i % 3 == 0 else tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=n))
    initial = random_strict_nodes(rng, n) if i % 2 == 0 else None
    return problem, target, initial


def main() -> int:
    digest = hashlib.sha256()
    solves = iterations = 0
    failures = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for i in range(DRAWS):
            problem, target, initial = draw(rng, i)
            solves += 1
            try:
                report = eq.solve_difference(problem, target, initial=initial)
            except eq.EquioscError as exc:
                failures.append((seed, i, f"{type(exc).__name__}: {exc}"))
                continue
            off = max(abs(p - t) for p, t in zip(eq.difference(problem, report.nodes).phi, target))
            if not off <= PHI_TOL:
                failures.append((seed, i, f"Φ is {off:.3e} off the target"))
                continue
            iterations += report.iterations
            digest.update(" ".join(x.hex() for x in report.nodes.nodes).encode() + b"\n")
    print(f"solves {solves}")
    for seed, i, why in failures:
        print(f"failed seed {seed} #{i}: {why}")
    print(f"converged {solves - len(failures)}, iterations {iterations}")
    print(f"nodes sha256 {digest.hexdigest()}")
    if iterations > MAX_ITERATIONS:
        print(f"iterations {iterations} exceed {MAX_ITERATIONS}")
    return 1 if failures or iterations > MAX_ITERATIONS else 0


if __name__ == "__main__":
    raise SystemExit(main())
