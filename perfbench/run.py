"""Benchmark command: run one equiosc workload for one seed, timed or traced.

    python3 perfbench/run.py --workload solve_heavy --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the library is imported from ./src.
Each workload is a closed loop: one process, one caller, one thread, each
library call issued after the previous one returned.

--trace 0 (end-to-end): set-up is timed in fresh interpreters, then rounds
of distinct tasks run one after another until --seconds is used up (at least
one round). A host-speed reference (reference.py) runs every few milliseconds
throughout, inside the library calls too, and the gated times are rescaled
to a nominal host speed by it, so that the host's drift cancels. Every answer
is checked. The last stdout line is a JSON object with the gated end-to-end
metrics; the wall-clock rate, task_s_p50, task_s_tail and fail_frac are
printed above it.

--trace 1 (per layer): the workload's first rounds run once with spans
recorded at the public boundaries of each layer (see tracing.py). Each task
runs untraced and then traced, so the tracing overhead is measured on the same
work; --seconds does not apply. The last stdout line holds the per-layer
metrics, and the spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3  # before the timed rounds, and as many again after them
# One reference unit (about 1 ms) every 8 ms: some 10-20% of the timed stretch.
REFERENCE_INTERVAL_S = 0.008
WARMUP_UNITS = 100
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def load_library():
    """Import equiosc from this checkout's sources, never from anywhere else."""
    init = SRC / "equiosc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no equiosc sources at {init}")
    sys.path.insert(0, str(SRC))
    import equiosc

    if Path(equiosc.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported equiosc from {equiosc.__file__}, not {init}")
    return equiosc


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, reference unit seconds) of SETUP_PROBES fresh interpreters (see probe.py)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        setup_s, unit_s = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup_s), float(unit_s)))
    return samples


def attempt(task, meter=None):
    """(seconds, result, deviation / tolerance) of one task; a raise counts as inf.

    Reference seconds that ``meter`` ran inside the call are not counted.
    """
    ref0 = meter.seconds if meter else 0.0
    t0 = perf_counter()
    try:
        result = task.call()
    except Exception:
        seconds = perf_counter() - t0 - (meter.seconds - ref0 if meter else 0.0)
        print(f"task {task.label} raised:", file=sys.stderr)
        traceback.print_exc()
        return seconds, None, math.inf
    seconds = perf_counter() - t0 - (meter.seconds - ref0 if meter else 0.0)
    try:
        ratio = task.check(result)
    except Exception:
        print(f"checking task {task.label} raised:", file=sys.stderr)
        traceback.print_exc()
        return seconds, result, math.inf
    if not ratio <= 1.0:
        print(f"task {task.label}: deviation {ratio:.3g} x tolerance", file=sys.stderr)
    return seconds, result, ratio


def tail(times: list[float]):
    """(percentile, seconds) of the highest percentile with ten tasks beyond it, or None."""
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(len(ordered) * p / 100)
        if rank >= 1 and len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None


def multi_piece_shares(tasks, times) -> tuple[float, float]:
    """Share of tasks, and of task time, whose field has more than one piece."""
    multi = [task.pieces > 1 for task in tasks]
    task_share = sum(multi) / len(tasks)
    time_share = sum(t for t, m in zip(times, multi) if m) / sum(times)
    return task_share, time_share


def run_timed(rounds, seconds: float, meter) -> dict:
    """Rounds of tasks, each task once, until ``seconds`` are used up (at least one round).

    Every round has the same mix, task position by task position, so the run
    may end inside a round: it ends at the first task, after the first round,
    whose position's mean time so far no longer fits in ``seconds``. The
    reference ``meter`` runs a unit every REFERENCE_INTERVAL_S throughout,
    inside the calls too, and its seconds are taken out of the task times.
    Every task is checked.
    """
    reference.Meter().run(WARMUP_UNITS)
    times = [[] for _ in rounds[0]]  # wall seconds less reference seconds, by task position
    with meter.interleaved(REFERENCE_INTERVAL_S):
        ratios = [attempt(rounds[0][0])[2]]  # warm-up call: checked, not timed
        start = perf_counter()
        queue = ((index, position, task) for index, rnd in enumerate(rounds)
                 for position, task in enumerate(rnd))
        for index, position, task in queue:
            if index and perf_counter() - start + statistics.mean(times[position]) > seconds:
                break
            dt, _, ratio = attempt(task, meter)
            times[position].append(dt)
            ratios.append(ratio)
    return {"mix": rounds[0], "times": times, "ratios": ratios}


def run_traced(eq, workloads, tracing, name: str, inputs) -> dict:
    """One traced pass over ``inputs`` (rounds of task inputs)."""
    tracer = tracing.Tracer()
    with tracer:  # set-up under tracing, so problem_from_json and validation show
        tracer.enabled = True
        rounds = workloads.build(name, inputs)
        tracer.enabled = False
    tasks = [task for rnd in rounds for task in rnd]
    plain_s, traced_s, ratios, maxima_s = [], [], [], []
    for task_id, task in enumerate(tasks):
        dt, result, ratio = attempt(task)
        plain_s.append(dt)
        ratios.append(ratio)
        with tracer:
            tracer.task_id = task_id
            tracer.enabled = True
            t0 = perf_counter()
            try:
                task.call()
            except Exception:
                traceback.print_exc()  # counted through the untraced attempt and the span
            traced_s.append(perf_counter() - t0)
            tracer.enabled = False
        if result is not None:
            problem, nodes = task.maxima_at(result)
            t0 = perf_counter()
            eq.interval_maxima(problem, nodes)
            maxima_s.append(perf_counter() - t0)
    return {
        "tracer": tracer,
        "tasks": tasks,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "ratios": ratios,
        "maxima_s": maxima_s,
    }


def layer_metrics(traced: dict, tracing) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    tracer = traced["tracer"]
    tasks = traced["tasks"]
    out: dict[str, tuple[float, str]] = {}
    for layer, row in tracer.layer_summary().items():
        out[f"{layer}.calls"] = (row["calls"], "count")
        out[f"{layer}.busy_s"] = (row["busy_s"], "s")
        out[f"{layer}.self_s"] = (row["self_s"], "s")
        out[f"{layer}.failed"] = (row["failed"], "count")

    def count(prefix, inside=None):
        return sum(tracer.counts_by_task(prefix, inside).values())

    solves = count(tracing.SOLVE_SPANS)
    out["translates.interval_max_calls"] = (count(tracing.INTERVAL_MAX_SPAN), "count")
    out["fields.piece_over_calls"] = (count("fields.PiecewiseField.piece_over"), "count")
    out["solver.solves"] = (solves, "count")
    out["solver.iterations"] = (tracer.solve_iterations, "count")
    in_solves = count(tracing.INTERVAL_MAX_SPAN, inside="solver")
    out["solver.interval_max_per_solve"] = (in_solves / solves if solves else 0.0, "ratio")
    maxima_s = traced["maxima_s"]
    out["translates.maxima_vector_s"] = (statistics.median(maxima_s) if maxima_s else 0.0, "s")
    # a lattice cell is one maxima vector: n + 1 interval maximizations
    in_oracle = tracer.counts_by_task(tracing.INTERVAL_MAX_SPAN, inside="oracle")
    cells = sum(calls // (tasks[task_id].n + 1) for task_id, calls in in_oracle.items())
    oracle_busy = out["oracle.busy_s"][0]
    out["oracle.cells"] = (cells, "count")
    out["oracle.cells_per_s"] = (cells / oracle_busy if oracle_busy else 0.0, "1/s")
    out["applications.restricted_constant.busy_s"] = (
        tracer.busy("applications.restricted_constant@"), "s")
    out["applications.unrestricted_constant.busy_s"] = (
        tracer.busy("applications.unrestricted_constant@"), "s")
    out["trace_overhead_frac"] = (sum(traced["traced_s"]) / sum(traced["plain_s"]) - 1.0, "ratio")
    task_share, time_share = multi_piece_shares(tasks, traced["plain_s"])
    out["fields.multi_piece_task_frac"] = (task_share, "ratio")
    out["fields.multi_piece_time_frac"] = (time_share, "ratio")
    return out


def _result_line(ratios, metrics: dict[str, tuple[float, str]]) -> str:
    failed = sum(1 for r in ratios if not r <= 1.0)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(ratios),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    eq = load_library()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.generate(args.workload, args.seed)
    head = (f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
            "closed loop, 1 caller, 1 thread")

    if args.trace:
        traced = run_traced(eq, workloads, tracing, args.workload, inputs[: workload.traced_rounds])
        metrics = layer_metrics(traced, tracing)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        traced["tracer"].write(spans_path)
        print(f"{head}; {workload.traced_rounds} round(s), {len(traced['tasks'])} tasks traced")
        per_task = traced["tracer"].counts_by_task(tracing.INTERVAL_MAX_SPAN)
        for task_id, task in enumerate(traced["tasks"]):
            print(f"  task {task_id:3d} {task.label:44s} interval_max_calls {per_task.get(task_id, 0)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:45s} {value:.6g} {unit}")
        print(f"  worst deviation / tolerance {max(traced['ratios']):.3g}; spans in {spans_path}")
        print(_result_line(traced["ratios"], metrics))
        return 0

    setup = measure_setup(args.workload, args.seed)
    rounds = workloads.build(args.workload, inputs)
    meter = reference.Meter()
    timed = run_timed(rounds, args.seconds, meter)
    setup += measure_setup(args.workload, args.seed)  # the host's speed drifts over a run
    mix, times = timed["mix"], timed["times"]
    # One round's mix, task position by task position: the median over the
    # rounds, since a few inputs of roundtrip_small and union_compare take
    # 20-100x their position's typical time.
    typical_s = [statistics.median(t) for t in times]
    all_s = [t for position in times for t in position]
    setup_norm = [s * reference.NOMINAL_UNIT_S / unit_s for s, unit_s in setup]
    host_factor = meter.unit_s() / reference.NOMINAL_UNIT_S
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "tasks_per_s": (len(mix) / (sum(typical_s) / host_factor), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p50 = statistics.median(all_s)
    failed = sum(1 for r in timed["ratios"] if not r <= 1.0)
    task_share, time_share = multi_piece_shares(mix, typical_s)
    print(f"{head}; {len(all_s)} timed tasks, {len(times[-1])} to {len(times[0])} "
          f"of each of the {len(mix)} in a round")
    for name, (value, unit) in metrics.items():
        print(f"  {name:22s} {value:.6g} {unit}")
    print(f"  {'host speed factor':22s} {host_factor:.4f} "
          f"(reference unit {meter.unit_s() * 1e3:.4f} ms over {meter.units} units, "
          f"nominal {reference.NOMINAL_UNIT_S * 1e3:g} ms)")
    print(f"  {'wall tasks_per_s':22s} {len(mix) / sum(typical_s):.6g} 1/s (not normalized)")
    print(f"  {'setup samples':22s} " + " ".join(f"{s:.4f}" for s, _ in setup) + " s wall, "
          + " ".join(f"{s:.4f}" for s in setup_norm) + " s normalized")
    print(f"  {'task_s_p50':22s} {p50:.6g} s")
    found = tail(all_s)
    if found:
        print(f"  {'task_s_tail':22s} {found[1]:.6g} s (p{found[0]} of {len(all_s)} tasks)")
    else:
        print(f"  {'task_s_tail':22s} not reported: {len(all_s)} tasks, a tail needs at least 20")
    attempted = len(timed["ratios"])
    print(f"  {'fail_frac':22s} {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"  {'worst dev / tolerance':22s} {max(timed['ratios']):.3g}")
    print(f"  {'multi-piece share':22s} {task_share:.3f} of tasks, {time_share:.3f} of time")
    print(_result_line(timed["ratios"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
