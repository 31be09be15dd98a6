"""Spans around calls into barterclear's modules, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules,
wherever a barterclear module holds a reference to it, with a wrapper that
records a span: name, start, end and the span that was open when it was
called.  Work inside a function (the branch and bound's recursion, the
pullback that ``cli`` does itself) shows only as that function's self time;
spans inside the program are a later change.  Spans stay in memory until
``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

MODULES = ("formats", "graph", "assignment", "exact", "approx", "reductions", "sat", "cli")

# per-layer metric -> the functions whose outermost calls it times
FAMILIES = {
    "formats.parse_s": ("formats.parse_",),
    "formats.serialize_s": ("formats.serialize_",),
    "graph.validate_s": ("graph.validate_cycle_set",),
    "assignment.solve_s": ("assignment.solve_max_size",),
    "reductions.build_s": ("reductions.build_sat_graph", "reductions.add_balance_vertices",
                           "reductions.build_2pc_graph"),
    "reductions.pullback_s": ("reductions.extract_assignment",),
    "cli.pullback_s": ("cli.cmd_pullback",),
}
# per-layer metric -> the module whose self time it is
SELF_TIMES = {
    "formats.self_s": "formats",
    "graph.self_s": "graph",
    "exact.solve_s": "exact",
    "sat.self_s": "sat",
    "cli.self_s": "cli",
}
COUNTS = ("formats.bytes_in", "exact.nodes", "exact.budget_outs")
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, count or error name]
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> list:
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record: list) -> None:
        self._open.pop()
        record[2] = perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                self.end(record)
            if name.startswith("formats.parse_") and args and isinstance(args[0], str):
                record[4] = len(args[0].encode())
            elif name == "exact.solve_with_stats":
                record[4] = result[1].nodes
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of ``MODULES`` in every loaded
        barterclear module, so calls between modules are traced too."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"barterclear.{short}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name == "barterclear" or name.startswith("barterclear."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and inspect.isfunction(value):
                        setattr(module, attr, wrappers[id(value)])

    def summary(self, rounds: int) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics per round, and each module's share of the
        traced operation time, as self time."""
        spans = self.spans
        children_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children_time[parent] += end - start
        totals: dict[str, float] = {metric: 0.0 for metric in (*FAMILIES, *SELF_TIMES, *COUNTS)}
        module_self = {short: 0.0 for short in MODULES}
        op_time = 0.0
        for i, (name, start, end, parent, extra) in enumerate(spans):
            if name == OP_SPAN:
                op_time += end - start
                continue
            module = name.split(".", 1)[0]
            module_self[module] += end - start - children_time[i]
            outer = parent < 0 or _family(spans[parent][0]) != _family(name)
            if outer and _family(name):
                totals[_family(name)] += end - start
            if name.startswith("formats.parse_") and isinstance(extra, int):
                totals["formats.bytes_in"] += extra
            if name == "exact.solve_with_stats":
                if extra == "BudgetExceeded":
                    totals["exact.budget_outs"] += 1
                elif isinstance(extra, int):
                    totals["exact.nodes"] += extra
        for metric, module in SELF_TIMES.items():
            totals[metric] = module_self[module]
        totals["trace.op_s"] = op_time
        per_round = {metric: value / rounds for metric, value in totals.items()}
        shares = {m: module_self[m] / op_time if op_time else 0.0 for m in MODULES}
        return per_round, shares

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump(summary, out)
            out.write("\n")
            for name, start, end, parent, extra in self.spans:
                out.write(json.dumps([name, start, end, parent, extra]) + "\n")


def _family(name: str) -> str | None:
    for metric, prefixes in FAMILIES.items():
        if name.startswith(prefixes):
            return metric
    return None
