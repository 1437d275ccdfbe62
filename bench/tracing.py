"""Spans and counts at the library's layer boundaries, recorded from outside.

`Tracer.install` replaces each function in `TARGETS` by a wrapper in every
`pctlfg` module namespace that binds it (`scc_decompose` is bound in both
`pctlfg.markov` and `pctlfg.progress`, for instance), and on the class for
methods.  A wrapper records a span only while an instance is open; outside,
it calls straight through, so the oracle's calls are never counted.

A span holds its name, start, end, parent span and instance id.  Spans stay
in flat arrays in memory and are written out by `dump` when the run ends.
Self time is a span's duration minus the time its children cover; spans
nest strictly because the benchmark is single-threaded.

A target a later version of the library no longer has is listed in
`absent` and its metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute path).  The span name is the metric prefix.
TARGETS = (
    ("linalg.solve", "pctlfg.linalg", "solve"),
    ("linalg.null_vector", "pctlfg.linalg", "null_vector"),
    ("markov.from_json", "pctlfg.markov", "MarkovChain.from_json"),
    ("markov.scc_decompose", "pctlfg.markov", "scc_decompose"),
    ("markov.states_with_path_to", "pctlfg.markov", "states_with_path_to"),
    ("markov.first_passage", "pctlfg.markov", "first_passage"),
    ("formula.parse_formula", "pctlfg.formula", "parse_formula"),
    ("formula.fragment_classify", "pctlfg.formula", "fragment_classify"),
    ("modelcheck.checker_init", "pctlfg.modelcheck", "ModelChecker.__init__"),
    ("modelcheck.reach_probabilities", "pctlfg.modelcheck",
     "ModelChecker.reach_probabilities"),
    ("modelcheck.sat_set", "pctlfg.modelcheck", "ModelChecker.sat_set"),
    ("closure.closure_update", "pctlfg.closure", "closure_update"),
    ("closure.achieved_bounds", "pctlfg.closure", "achieved_bounds"),
    ("measure.progress_measure", "pctlfg.measure", "progress_measure"),
    ("progress.compress_model", "pctlfg.progress", "compress_model"),
    ("progress.search_loop_l2", "pctlfg.progress", "search_loop_l2"),
    ("progress.search_loop_generic", "pctlfg.progress", "search_loop_generic"),
    ("progress.verify_loop", "pctlfg.progress", "verify_loop"),
    ("progress.successor_selection", "pctlfg.progress", "successor_selection"),
    ("progress.caratheodory_reduce", "pctlfg.progress", "caratheodory_reduce"),
    ("progress.bscc_reduce", "pctlfg.progress", "bscc_reduce"),
    ("progress.build_loop_model", "pctlfg.progress", "build_loop_model"),
    ("etr.f_normal_form", "pctlfg.etr", "f_normal_form"),
    ("etr.solve_bounded_sat", "pctlfg.etr", "solve_bounded_sat"),
    ("etr.encode", "pctlfg.etr", "encode"),
    ("etr.interval_refuted", "pctlfg.etr", "interval_refuted"),
)

LAYERS = ("linalg", "markov", "formula", "modelcheck", "closure", "measure",
          "progress", "etr")

ROOT = "instance"

# Metrics named after something other than the span they are read from.
DERIVED = {
    "modelcheck.checker_init": ("modelcheck.checkers",),
    "etr.interval_refuted": ("etr.survivor_share",),
    "etr.solve_bounded_sat": ("etr.candidates", "etr.refuted", "etr.solver_calls"),
}


def _count_solve(counts, args, result):
    a, rhs = args
    counts["linalg.solve.unknowns"] += len(a)
    counts["linalg.solve.rhs_columns"] += len(rhs[0]) if a and rhs else 0
    for row in result:
        for value in row:
            counts["linalg.solve.entries"] += 1
            if value == 0 or value == 1:
                counts["linalg.solve.trivial"] += 1
            bits = value.denominator.bit_length()
            if bits > counts["linalg.solve.max_den_bits"]:
                counts["linalg.solve.max_den_bits"] = bits


def _count_refuted(counts, args, result):
    if not result:
        counts["etr.survivors"] += 1


def _count_sat(counts, args, result):
    counts["etr.candidates"] += result.candidates
    counts["etr.refuted"] += result.refuted
    counts["etr.solver_calls"] += result.solver_calls


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


# Counts read off a call's arguments and result after its span closed.
HOOKS = {
    "linalg.solve": _count_solve,
    "etr.interval_refuted": _count_refuted,
    "etr.solve_bounded_sat": _count_sat,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) of a target, or None when it is gone."""
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.instance_of = array("l")
        self.stack: list[int] = []
        self.instance = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.instance_of.append(self.instance)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def begin(self, instance_id: int) -> None:
        self.instance = instance_id
        self._open(0)

    def finish(self) -> None:
        self._close(self.stack[-1])
        self.instance = -1

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.instance < 0:
                return fn(*args, **kwargs)
            calls[name] += 1
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pctlfg" or n.startswith("pctlfg.")]
        for name, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, fn)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._undo.append((module, key, raw))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            out[self.names[self.span_name[i]]] += (
                self.end[i] - self.start[i] - covered[i])
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-span count and self time, the counts read by the hooks,
        and each layer's share of the traced instance time."""
        selfs = self.self_times()
        total = sum(self.end[i] - self.start[i]
                    for i in range(len(self.start)) if self.parent[i] < 0)
        counts = self.counts
        out: dict[str, float] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
        out["modelcheck.checkers"] = out["modelcheck.checker_init.calls"]
        for key in ("linalg.solve.unknowns", "linalg.solve.rhs_columns",
                    "linalg.solve.max_den_bits", "etr.candidates",
                    "etr.refuted", "etr.solver_calls"):
            out[key] = counts.get(key, 0)
        out["linalg.solve.trivial_share"] = _share(
            counts.get("linalg.solve.trivial", 0), counts.get("linalg.solve.entries", 0))
        out["etr.survivor_share"] = _share(
            counts.get("etr.survivors", 0), out["etr.encode.calls"])
        for layer in LAYERS:
            layer_self = sum(v for k, v in selfs.items()
                             if k.split(".")[0] == layer)
            out[f"{layer}.self_share"] = _share(layer_self, total)
        out["trace.other_self_share"] = _share(selfs.get(ROOT, 0.0), total)
        return out

    def is_absent(self, metric: str) -> bool:
        """Whether `metric` reads 0 only because its function is gone."""
        return any(metric.startswith(name + ".") or metric in DERIVED.get(name, ())
                   for name in self.absent)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({
                "names": self.names,
                "columns": ["name", "start", "end", "parent", "instance"],
                "spans": [[self.span_name[i], self.start[i], self.end[i],
                           self.parent[i], self.instance_of[i]]
                          for i in range(len(self.start))],
            }, handle, separators=(",", ":"))
