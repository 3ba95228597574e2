"""Node systems and problem bundles.

A problem couples a kernel, a field, and n positive multipliers r_j; a node
system is a sorted vector in the closed simplex 0 ≤ y_1 ≤ … ≤ y_n ≤ 1 with
sentinels y_0 = 0 and y_{n+1} = 1.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, PreconditionError, SchemaError
from .extreal import _arguments, _count, _instance, _reals
from .fields import PiecewiseField, field_admissible, field_from_json, field_to_json
from .kernels import KernelSpec, kernel_from_json, kernel_to_json

__all__ = [
    "NodeSystem",
    "Problem",
    "problem_from_json",
    "problem_to_json",
    "load_problem",
    "dump_problem",
]


@dataclass(frozen=True)
class NodeSystem:
    """Sorted node vector in the closed simplex over [0, 1]."""

    nodes: tuple[float, ...]

    def __post_init__(self):
        nodes = _reals(self.nodes, "node", PreconditionError)
        prev = 0.0
        for v in nodes:
            if v < 0.0 or v > 1.0:
                raise PreconditionError(f"node {v!r} outside [0, 1]")
            if v < prev:
                raise PreconditionError("nodes must be sorted ascending")
            prev = v
        object.__setattr__(self, "nodes", nodes)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def strict(self) -> bool:
        """Membership in the open simplex: 0 < y_1 < … < y_n < 1."""
        ys = self.with_sentinels()
        return all(a < b for a, b in zip(ys, ys[1:]))

    def with_sentinels(self) -> tuple[float, ...]:
        return (0.0,) + self.nodes + (1.0,)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.nodes, dtype=float)

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self):
        return len(self.nodes)


def as_node_system(y) -> NodeSystem:
    if isinstance(y, NodeSystem):
        return y
    return NodeSystem((y,) if isinstance(y, numbers.Real) else y)


@dataclass(frozen=True)
class Problem:
    """n, multipliers r, kernel, and an admissible field on [0, 1]."""

    n: int
    r: tuple[float, ...]
    kernel: KernelSpec
    field: PiecewiseField

    def __post_init__(self):
        n = _count(self.n, "n", least=1)
        object.__setattr__(self, "n", n)
        r = _reals(self.r, "multiplier r_j", positive=True)
        if len(r) != n:
            raise SchemaError(f"expected {n} multipliers, got {len(r)}")
        object.__setattr__(self, "r", r)
        _instance(self.kernel, KernelSpec, "kernel")
        if _instance(self.field, PiecewiseField, "field").domain != (0.0, 1.0):
            raise SchemaError("problem fields live on [0, 1]")
        if not field_admissible(self.field, self.n):
            raise AdmissibilityError(
                f"field is finite at too few points for n={self.n} (weighted count)"
            )

    def node_system(self, y) -> NodeSystem:
        ns = as_node_system(y)
        if ns.n != self.n:
            raise PreconditionError(f"expected {self.n} nodes, got {ns.n}")
        return ns


def _checked(problem) -> Problem:
    """problem if it is a :class:`Problem`, else PreconditionError: every entry point that takes one checks it so."""
    return _instance(problem, Problem, "problem", PreconditionError)


def problem_to_json(problem: Problem) -> dict:
    _instance(problem, Problem, "problem")
    return {
        "n": problem.n,
        "r": list(problem.r),
        "kernel": kernel_to_json(problem.kernel),
        "field": field_to_json(problem.field),
    }


def problem_from_json(doc: dict) -> Problem:
    """The problem whose constructor's arguments a document holds, kernel and field as their own documents."""
    doc = _arguments(doc, Problem)
    return Problem(doc["n"], doc["r"], kernel_from_json(doc["kernel"]), field_from_json(doc["field"]))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def load_problem(path) -> Problem:
    return problem_from_json(_read_json(path))


def dump_problem(problem: Problem, path) -> None:
    doc = problem_to_json(problem)  # checked before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
