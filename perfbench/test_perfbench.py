"""Checks of the benchmark itself, run with ``python3 -m pytest perfbench -q``.

Two traced runs of one seed must count exactly the same work, and the traced
Chebyshev ladder must reproduce the baseline interval-max counts of the
roadmap (712 / 3,746 / 10,642 / 20,715 at n = 4 / 8 / 12 / 16).
"""

import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

eq = run.load_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1
BASELINE_INTERVAL_MAX = {4: 712, 8: 3746, 12: 10642, 16: 20715}


@functools.lru_cache(maxsize=None)
def traced(name: str, run_no: int):
    """(count metrics, interval-max calls per task, tasks, check ratios) of one traced run."""
    inputs = workloads.generate(name, SEED)[: workloads.WORKLOADS[name].traced_rounds]
    result = run.run_traced(eq, workloads, tracing, name, inputs)
    metrics = run.layer_metrics(result, tracing)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    per_task = result["tracer"].counts_by_task(tracing.INTERVAL_MAX_SPAN)
    return counts, per_task, result["tasks"], result["ratios"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_work_counts_repeat_exactly(name):
    first, second = traced(name, 0), traced(name, 1)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert all(ratio <= 1.0 for ratio in first[3] + second[3])


def test_chebyshev_ladder_reproduces_baseline_interval_max_counts():
    _, per_task, tasks, _ = traced("solve_heavy", 0)
    ladder = {task.n: per_task[i] for i, task in enumerate(tasks) if task.pieces == 1}
    assert ladder == BASELINE_INTERVAL_MAX
