"""Command-line front end.

Subcommands: solve, solve-diff, oracle, intertwine, bojanov, union-compare,
example, export. Problems are read from JSON files (schema documented in the
README); all floating output is printed with 9 significant digits. Exit
codes: 0 success, 1 reference-check deviation, 2 validation error,
3 convergence error, 4 budget error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys

import numpy as np

from .applications import GapProblem, IntervalUnion, compare_constants, solve_bojanov
from .catalog import EXAMPLE_IDS, run_reference_check
from .errors import BudgetError, ConvergenceError, EquioscError, PreconditionError, SchemaError
from .extreal import is_neg_infinity
from .fields import constant_field, field_from_json
from .oracle import GridSpec, grid_maximin, grid_minimax
from .perturbation import check_intertwining
from .problem import _read_json, load_problem
from .solver import solve_difference, solve_equioscillation
from .translates import eval_F_grid, interval_maxima


def _fmt(x) -> str:
    if x is None or is_neg_infinity(x):
        return "-inf"
    return f"{float(x):.9g}"


def _json_ext(x):
    """An extended real for a JSON document: −∞ becomes null, as JSON has no infinities."""
    return None if is_neg_infinity(x) else float(x)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise SchemaError(f"could not parse float list {text!r}") from exc


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError("--grid expects 'points_per_dim,refine_rounds'")
    try:
        points, rounds = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise SchemaError(f"--grid expects two integers, got {text!r}") from exc
    return GridSpec(points_per_dim=points, refine_rounds=rounds)


def _report_dict(report) -> dict:
    return {
        "nodes": list(report.nodes.nodes),
        "m": [_json_ext(v) for v in report.maxima.m],
        "argmax": list(report.maxima.argmax),
        "phi": list(report.phi()),
        "value": report.value,
        "residual": report.residual,
        "iterations": report.iterations,
        "converged": report.converged,
        "nonuniqueness_risk": report.nonuniqueness_risk,
    }


def _emit(doc: dict, json_out: str | None) -> None:
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def _print_solve(report) -> None:
    print("nodes:     " + " ".join(_fmt(v) for v in report.nodes.nodes))
    print("m:         " + " ".join(_fmt(v) for v in report.maxima.m))
    print("phi:       " + " ".join(_fmt(v) for v in report.phi()))
    print(f"value:     {_fmt(report.value)}")
    print(f"residual:  {_fmt(report.residual)}")
    print(f"iterations: {report.iterations}   converged: {report.converged}")
    if report.nonuniqueness_risk:
        print("note: kernel is not strictly monotone; equioscillation point may be non-unique")


def _cmd_solve(args) -> int:
    problem = load_problem(args.problem)
    report = solve_equioscillation(problem, args.tol, max_iterations=args.max_iterations)
    _print_solve(report)
    _emit(_report_dict(report), args.json_out)
    return 0


def _cmd_solve_diff(args) -> int:
    problem = load_problem(args.problem)
    target = _parse_floats(args.target)
    report = solve_difference(problem, target, args.tol, max_iterations=args.max_iterations)
    _print_solve(report)
    _emit(_report_dict(report), args.json_out)
    return 0


def _cmd_oracle(args) -> int:
    problem = load_problem(args.problem)
    grid = _parse_grid(args.grid)
    fn = grid_minimax if args.mode == "minimax" else grid_maximin
    nodes, value = fn(problem, grid)
    print(f"{args.mode} nodes: " + " ".join(_fmt(v) for v in nodes.nodes))
    print(f"{args.mode} value: {_fmt(value)}")
    doc = {"mode": args.mode, "nodes": list(nodes.nodes), "value": _json_ext(value)}
    _emit(doc, args.json_out)
    return 0


def _cmd_intertwine(args) -> int:
    problem = load_problem(args.problem)
    x = _parse_floats(args.x)
    y = _parse_floats(args.y)
    verdict = check_intertwining(problem, x, y)
    print(f"verdict: {verdict.kind}")
    if verdict.kind == "witness":
        print(f"below index: {verdict.below}   above index: {verdict.above}")
    if verdict.kind == "majorization_violation":
        print(f"direction: {verdict.direction}")
    _emit(
        {
            "verdict": verdict.kind,
            "below": verdict.below,
            "above": verdict.above,
            "direction": verdict.direction,
        },
        args.json_out,
    )
    return 0


def _cmd_bojanov(args) -> int:
    interval = _parse_floats(args.interval)
    if len(interval) != 2:
        raise SchemaError("--interval expects a,b")
    a, b = interval
    exponents = _parse_floats(args.exponents)
    if args.weight:
        weight = field_from_json(_read_json(args.weight), domain=(a, b))
    else:
        weight = constant_field(1.0, domain=(a, b))
    solution = solve_bojanov(GapProblem((a, b), exponents, weight), tol=args.tol)
    print("nodes:           " + " ".join(_fmt(v) for v in solution.nodes))
    print("extremal points: " + " ".join(_fmt(v) for v in solution.extremal_points))
    print(f"norm:            {_fmt(solution.norm)}")
    print(f"interlaces:      {solution.interlaces}")
    _emit(
        {
            "nodes": list(solution.nodes),
            "extremal_points": list(solution.extremal_points),
            "norm": solution.norm,
            "interlaces": solution.interlaces,
        },
        args.json_out,
    )
    return 0


def _cmd_union_compare(args) -> int:
    values = _parse_floats(args.components)
    if len(values) % 2:
        raise SchemaError("--components expects an even list a1,b1,a2,b2,...")
    union = IntervalUnion(tuple(zip(values[0::2], values[1::2])))
    exponents = _parse_floats(args.exponents)
    report = compare_constants(union, exponents, tol=args.tol)
    print(f"C (unrestricted): {_fmt(report['C'])}")
    print(f"R (restricted):   {_fmt(report['R'])}")
    print(f"factor bound:     {_fmt(report['bound'])}")
    print(f"snap norm:        {_fmt(report['snap_norm'])}")
    print(
        f"C <= R: {report['lower_ok']}   R <= bound*C: {report['upper_ok']}   "
        f"snap <= bound*C: {report['snap_ok']}"
    )
    _emit(report, args.json_out)  # node tuples become JSON arrays
    return 0


def _cmd_example(args) -> int:
    key, params = args.id, {}
    if key.startswith("classical_chebyshev("):
        match = re.fullmatch(r"classical_chebyshev\((\d+)\)", key)
        if match is None:
            raise SchemaError(f"expected classical_chebyshev(<n>), got {key!r}")
        key, params["n"] = "classical_chebyshev", int(match[1])
    if args.n is not None:
        if params:
            raise SchemaError(f"the degree is given twice: {args.id} and --n {args.n}")
        params["n"] = args.n  # the catalog refuses it for every other example
    report = run_reference_check(key, fast=args.fast, seed=args.seed, **params)
    width = max(len(label) for label, _, _ in report.rows)
    print(f"example {report.example} ({report.elapsed:.2f}s)")
    print(f"{'quantity'.ljust(width)}  {'computed':>15}  {'reference':>15}  {'|dev|':>12}")
    for label, computed, reference in report.rows:
        dev = abs(computed - reference)
        print(
            f"{label.ljust(width)}  {_fmt(computed):>15}  {_fmt(reference):>15}  {dev:>12.3e}"
        )
    for note in report.notes:
        print(f"note: {note}")
    print(f"max abs deviation: {report.max_deviation:.3e}")
    _emit(
        {
            "example": report.example,
            "rows": [list(r) for r in report.rows],
            "max_deviation": report.max_deviation,
            "notes": list(report.notes),
        },
        args.json_out,
    )
    return 0 if report.ok(1e-6) else 1


def _cmd_export(args) -> int:
    problem = load_problem(args.problem)
    nodes = problem.node_system(_parse_floats(args.nodes))
    if args.samples < 2:
        raise PreconditionError("--samples must be at least 2")
    ts = np.linspace(0.0, 1.0, args.samples)
    values = eval_F_grid(problem, nodes, ts)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "F"])
        for t, v in zip(ts, values):
            writer.writerow([f"{t:.9g}", "" if not math.isfinite(v) else f"{v:.9g}"])
    maxima = interval_maxima(problem, nodes)
    sidecar = {
        "nodes": list(nodes.nodes),
        "m": [_json_ext(v) for v in maxima.m],
        "argmax": list(maxima.argmax),
        "samples": int(args.samples),
        "csv": args.out,
    }
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} and {args.out}.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equiosc",
        description="Equioscillating node systems for weighted sum-of-translates minimax problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, problem=True, tol=False, json_out=True, solver=False):
        if problem:
            p.add_argument("problem", help="path to a problem JSON file")
        if tol or solver:
            p.add_argument("--tol", type=float, default=1e-9)
        if json_out:
            p.add_argument("--json-out", dest="json_out", default=None)
        if solver:
            p.add_argument("--max-iterations", dest="max_iterations", type=int, default=500)

    p = sub.add_parser("solve", help="solve for the equioscillation point")
    common(p, solver=True)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("solve-diff", help="solve the difference map for a target vector")
    common(p, solver=True)
    p.add_argument("--target", required=True, help="comma-separated target c_1,...,c_n")
    p.set_defaults(fn=_cmd_solve_diff)

    p = sub.add_parser("oracle", help="brute-force grid minimax/maximin")
    common(p)
    p.add_argument("--mode", choices=("minimax", "maximin"), default="minimax")
    p.add_argument("--grid", default="21,2", help="points_per_dim,refine_rounds")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("intertwine", help="compare interval maxima of two node systems")
    common(p)
    p.add_argument("--x", required=True, help="comma-separated node system")
    p.add_argument("--y", required=True, help="comma-separated node system")
    p.set_defaults(fn=_cmd_intertwine)

    p = sub.add_parser("bojanov", help="weighted extremal node product on an interval")
    common(p, problem=False, tol=True)
    p.add_argument("--interval", default="0,1", help="a,b")
    p.add_argument("--exponents", required=True, help="comma-separated r_1,...,r_n")
    p.add_argument("--weight", default=None, help="path to a field JSON for the weight")
    p.set_defaults(fn=_cmd_bojanov)

    p = sub.add_parser("union-compare", help="restricted vs unrestricted constants on a union")
    common(p, problem=False, tol=True)
    p.add_argument("--components", required=True, help="a1,b1,a2,b2,...")
    p.add_argument("--exponents", required=True, help="comma-separated r_1,...,r_n")
    p.set_defaults(fn=_cmd_union_compare)

    p = sub.add_parser("example", help="run a built-in reference check")
    common(p, problem=False)
    p.add_argument("id", help="one of: " + ", ".join(EXAMPLE_IDS))
    p.add_argument("--n", type=int, default=None, help="degree for classical_chebyshev")
    p.add_argument("--fast", action="store_true", help="smaller grids, looser sampling")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_example)

    p = sub.add_parser("export", help="export a curve CSV plus a maxima sidecar JSON")
    common(p, json_out=False)
    p.add_argument("--nodes", required=True, help="comma-separated node system")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 4
    except EquioscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
