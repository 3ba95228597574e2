"""Set-up probe: one fresh interpreter imports equiosc and builds a workload's tasks.

    python3 perfbench/probe.py <src dir> <workload> <seed>

Prints two numbers: the seconds spent in ``import equiosc`` plus building
every task from its generated inputs (``problem_from_json``, field
validation), and the mean seconds of one host-speed reference unit run right
after it in the same interpreter (see reference.py). Generating the inputs and
importing the benchmark's own modules are not counted.
"""

import sys
import time

REFERENCE_UNITS = 40


def main(argv: list[str]) -> None:
    src, workload, seed = argv[1], argv[2], int(argv[3])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import equiosc  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    import workloads

    rounds = workloads.generate(workload, seed)
    t2 = time.perf_counter()
    workloads.build(workload, rounds)
    t3 = time.perf_counter()
    import reference  # after the timed part: it imports numpy too

    meter = reference.Meter()
    meter.run(REFERENCE_UNITS)
    print(repr((t1 - t0) + (t3 - t2)), repr(meter.unit_s()))


if __name__ == "__main__":
    main(sys.argv)
