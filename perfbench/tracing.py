"""Spans at the public boundaries of the equiosc layers.

A :class:`Tracer` replaces every public function and public method of the
layer modules with a wrapper that records one span per call: name, start,
end, parent span and task id, plus whether the call raised. Each wrapper
sits at the name the caller resolves: a function imported by name into
another module (``from .kernels import scalar_fn``) gets its own wrapper in
that module, and the wrapper's span name carries the binding site after an
``@``, as in ``kernels.scalar_fn@translates``. Methods are wrapped on the
class that defines them, as in ``fields.PiecewiseField.piece_over``.

Private names (leading underscore) are not wrapped, so the per-point kernel
and field closures of the hot path record nothing; spans inside them need
counters in the library itself.

Spans are kept in flat arrays while the tracer runs and summarized or written
out afterwards.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("kernels", "fields", "problem", "translates", "solver", "oracle", "applications")

# the scalar_fn binding in translates is fetched once per per-interval maximization
INTERVAL_MAX_SPAN = "kernels.scalar_fn@translates"
SOLVE_SPANS = "solver.solve_difference@"  # prefix: every binding of solve_difference


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans of wrapped calls while ``enabled`` and a task id is set."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.failed = array("b")
        self.solve_iterations = 0  # Σ SolveReport.iterations
        self.enabled = False
        self.task_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        is_solve = name.startswith(SOLVE_SPANS)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.task.append(tracer.task_id)
            tracer.failed.append(0)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[idx] = 1
                raise
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if is_solve:
                tracer.solve_iterations += result.iterations
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public callables of every layer at each of their bindings."""
        consumers = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "equiosc" or name.startswith("equiosc.")
        }
        for layer in LAYERS:
            mod = importlib.import_module(f"equiosc.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for meth_name, meth in list(vars(obj).items()):
                        if meth_name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        self._patch(obj, meth_name, f"{layer}.{obj.__name__}.{meth_name}")
                elif callable(obj):
                    for site_name, site in consumers.items():
                        if vars(site).get(attr) is obj:
                            site_short = site_name.rpartition(".")[2]
                            self._patch(site, attr, f"{layer}.{attr}@{site_short}")

    def _patch(self, owner, attr: str, span_name: str) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries --------------------------------------------------------------
    def _matching(self, prefix: str) -> list[bool]:
        return [n.startswith(prefix) for n in self.names]

    def counts_by_task(self, prefix: str, inside: str | None = None) -> dict[int, int]:
        """Spans per task whose name starts with ``prefix``; with ``inside``, only
        those that have an ancestor span of that layer."""
        matching = self._matching(prefix)
        in_layer = [_layer_of(n) == inside for n in self.names]
        out: dict[int, int] = {}
        for idx, v in enumerate(self.name_id):
            if not matching[v]:
                continue
            if inside is not None:
                p = self.parent[idx]
                while p >= 0 and not in_layer[self.name_id[p]]:
                    p = self.parent[p]
                if p < 0:
                    continue
            t = self.task[idx]
            out[t] = out.get(t, 0) + 1
        return out

    def busy(self, name_prefix: str) -> float:
        """Wall time inside spans whose name starts with ``name_prefix``, counting
        spans nested in another such span once."""
        total = 0.0
        matching = self._matching(name_prefix)
        open_until = -1.0
        for idx, v in enumerate(self.name_id):
            if not matching[v]:
                continue
            s, e = self.start[idx], self.end[idx]
            if s >= open_until:  # spans are stored in start order
                total += e - s
                open_until = e
        return total

    def layer_summary(self) -> dict[str, dict[str, float]]:
        """calls, busy_s, self_s and failed for every layer."""
        n_spans = len(self.start)
        child_time = [0.0] * n_spans
        for idx in range(n_spans):
            p = self.parent[idx]
            if p >= 0:
                child_time[p] += self.end[idx] - self.start[idx]
        out = {
            layer: {"calls": 0, "busy_s": self.busy(f"{layer}."), "self_s": 0.0, "failed": 0}
            for layer in LAYERS
        }
        layer_of = [_layer_of(n) for n in self.names]
        for idx in range(n_spans):
            row = out[layer_of[self.name_id[idx]]]
            row["calls"] += 1
            row["self_s"] += self.end[idx] - self.start[idx] - child_time[idx]
            row["failed"] += self.failed[idx]
        return out

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated lines: name, start, end, parent, task, failed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\ttask\tfailed\n")
            names = self.names
            for idx in range(len(self.start)):
                fh.write(
                    f"{names[self.name_id[idx]]}\t{self.start[idx]:.9f}\t{self.end[idx]:.9f}\t"
                    f"{self.parent[idx]}\t{self.task[idx]}\t{self.failed[idx]}\n"
                )
