"""Spans around the calls into each fpbounds layer, installed from outside.

`Tracer.install` replaces each traced public function by a wrapper at
every import site: the defining module (so calls inside the layer are
seen too) and every other fpbounds module that imported the name.
`uninstall` puts the originals back.  Spans live in flat in-memory arrays
(name, start, end, parent span, operation id) until they are summarized
and written out.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = {
    "numtheory": ("factorize", "is_prime", "two_squares_criterion",
                  "two_triangulars_criterion", "min_squares", "min_triangulars",
                  "min_squares_bruteforce", "min_triangulars_bruteforce"),
    "bounds": ("closed_form_bound", "min_fixed_points", "divisibility_refined"),
    "minimizer": ("minimize_even", "minimize_odd", "enumerate_feasible"),
    "chern": ("expand", "chern_c1cn1"),
}
COMMANDS = ("table", "bound", "divisibility", "witness", "verify")
_MIN_CALLS = frozenset(f"numtheory.{f}" for f in LAYERS["numtheory"] if f.startswith("min_"))
_SOLVES = frozenset({"minimizer.minimize_even", "minimizer.minimize_odd"})


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer, functions in LAYERS.items():
        for f in functions:
            units[f"{layer}.{f}.calls"] = "count"
            units[f"{layer}.{f}.self_ms"] = "ms"
    units["minimizer.enumerate_feasible.profiles"] = "count"
    units["minimizer.minimize.tries"] = "tries/solve"
    units["chern.expand.entries"] = "count"
    for command in COMMANDS:
        units[f"cli.{command}.self_ms"] = "ms"
        units[f"cli.{command}.output_bytes"] = "bytes"
    for layer in ("cli", *LAYERS):
        units[f"{layer}.self_ms"] = "ms"
    units["trace.spans"] = "count"
    units["trace.overhead_ms"] = "ms"
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        """Drop the recorded spans and counts."""
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts.clear()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self.name_id(name)
        if name == "minimizer.enumerate_feasible":
            def count(result):
                self.counts["minimizer.enumerate_feasible.profiles"] += len(result)
        elif name == "chern.expand":
            def count(result):
                self.counts["chern.expand.entries"] += len(result.counts)
        else:
            count = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if count is not None:
                count(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "fpbounds" or name.startswith("fpbounds.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"fpbounds.{layer}"]
            for f in functions:
                original = getattr(home, f)
                traced = self._wrap(f"{layer}.{f}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summarize(self) -> dict[str, float]:
        """Calls, self time and counts of the recorded spans.

        A span's self time is its duration minus that of its direct child
        spans, so self times add up to the traced time without double
        counting; summed over a layer they give the layer's time minus its
        calls into other layers.
        """
        n = len(self.start)
        children = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += self.end[i] - self.start[i]
        calls: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        tries = solves = 0
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - children[i]
            if name in _SOLVES:
                solves += 1
            elif name in _MIN_CALLS and self.parent[i] >= 0 \
                    and self.names[self.span_name[self.parent[i]]] in _SOLVES:
                tries += 1
        out: dict[str, float] = dict(self.counts)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
            layer = name.split(".")[0]
            out[f"{layer}.self_ms"] = out.get(f"{layer}.self_ms", 0.0) + self_ns[name] / 1e6
        out["minimizer.minimize.tries"] = tries / solves if solves else 0.0
        out["trace.spans"] = n
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON: a name table and one
        [name, start_ns, end_ns, parent, op] row per span."""
        rows = [[self.span_name[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
                for i in range(len(self.start))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))
