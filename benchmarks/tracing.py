"""Span tracing of the package's public functions, installed from outside.

`install` wraps each traced function and rebinds every module attribute of
the package that holds it, because `from x import f` copies the binding
(`harness.canonical_form`, `reduction.fvs_exact`, `solvers.face_walks`, ...).
Each call records a span: a name, a start, an end and its parent span.
Spans live in flat arrays in memory and are written out once, when the
traced pass ends.  Tracing is single-threaded and in-process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# layer (module of the package) -> public functions traced in that layer
TRACED = {
    "canonical": ("canonical_form",),
    "structure": (
        "is_planar",
        "small_cut_flags",
        "find_first_cut",
        "vertex_connectivity",
        "planar_embedding",
        "faces",
    ),
    "multigraph": ("delete_edges", "delete_vertices"),
    "solvers": ("fvs_exact", "cp_exact", "enumerate_cycles", "fp_fixed_embedding"),
    "reduction": (
        "split_bridge",
        "split_2cut",
        "decompose_3cut",
        "check_bridge_certificate",
        "check_cut2_certificate",
        "check_cut3_certificate",
        "delete_degree_le1",
        "suppress_degree2",
    ),
    "harness": ("generate_corpus", "run_checks", "reduce_pipeline", "graph_digest"),
    "io": ("parse", "serialize"),
}

_ARRAYS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    """In-memory span store plus call and event counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = {key: array(code) for key, code in _ARRAYS}
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        s = self.spans
        i = len(s["start"])
        s["name"].append(nid)
        s["parent"].append(self._stack[-1] if self._stack else -1)
        s["end"].append(0.0)
        self._stack.append(i)
        s["start"].append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.spans["end"][i] = time.perf_counter()
        self._stack.pop()

    def parent_name(self, i: int) -> str | None:
        p = self.spans["parent"][i]
        return None if p < 0 else self.names[self.spans["name"][p]]

    def dump(self, path) -> None:
        with open(path, "wb") as f:
            header = {"names": self.names, "spans": len(self.spans["start"])}
            f.write(json.dumps(header).encode() + b"\n")
            for key, _ in _ARRAYS:
                self.spans[key].tofile(f)


def load_spans(path) -> tuple[list[str], dict[str, array]]:
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        spans = {}
        for key, code in _ARRAYS:
            arr = array(code)
            arr.fromfile(f, header["spans"])
            spans[key] = arr
    return header["names"], spans


def self_times(names: list[str], spans: dict[str, array]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children (children of one parent never overlap,
    since tracing is single-threaded)."""
    start, end, parent, nid = spans["start"], spans["end"], spans["parent"], spans["name"]
    child = [0.0] * len(start)
    for i in range(len(start)):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    out = dict.fromkeys(names, 0.0)
    for i in range(len(start)):
        out[names[nid[i]]] += end[i] - start[i] - child[i]
    return out


def _wrap(tracer: Tracer, name: str, fn, on_result=None, on_error=None):
    nid = tracer.name_id(name)

    if inspect.isgeneratorfunction(fn):
        # one span per resumption, so that the consumer's own time between
        # items is not charged to the generator
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                i = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                if on_result is not None:
                    on_result(tracer, i, item)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        i = tracer.open(nid)
        try:
            res = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(tracer, i, exc)
            raise
        finally:
            tracer.close(i)
        if on_result is not None:
            on_result(tracer, i, res)
        return res

    return wrapper


def _hooks(solver_limit):
    """Result and error hooks that count events at the layer boundaries."""

    def cycles(t, i, res):
        t.counters["solvers.cycles_enumerated"] += len(res)
        if t.parent_name(i) == "solvers.cp_exact":
            t.counters["cp.cycles_enumerated"] += len(res)

    def cycles_error(t, i, exc):
        if isinstance(exc, solver_limit) and t.parent_name(i) == "solvers.cp_exact":
            t.counters["solvers.cp_fallbacks"] += 1

    def packed(t, i, res):
        t.counters["cp.cycles_packed"] += res.size

    def limit(t, i, exc):
        if isinstance(exc, solver_limit):
            t.counters["solvers.limit_hits"] += 1

    def cut_hit(t, i, res):
        if res is not None:
            t.counters["structure.find_first_cut.hits"] += 1

    def emitted(t, i, res):
        t.counters["harness.graphs_generated"] += 1

    return {
        "solvers.enumerate_cycles": (cycles, cycles_error),
        "solvers.cp_exact": (packed, limit),
        "solvers.fvs_exact": (None, limit),
        "solvers.fp_fixed_embedding": (None, limit),
        "structure.find_first_cut": (cut_hit, None),
        "harness.generate_corpus": (emitted, None),
    }


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function wherever the package binds it.

    Returns (module, attribute, original) triples for `uninstall`.  A traced
    name missing from its module is skipped; its metrics then read zero and
    the benchmark's non-zero checks report it.
    """
    solvers = importlib.import_module("jonescheck.solvers")
    hooks = _hooks(solvers.SolverLimit)
    modules = [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "jonescheck" or key.startswith("jonescheck."))
    ]
    restore = []
    for layer, funcs in TRACED.items():
        mod = importlib.import_module(f"jonescheck.{layer}")
        for func in funcs:
            original = getattr(mod, func, None)
            if original is None:
                continue
            name = f"{layer}.{func}"
            wrapped = _wrap(tracer, name, original, *hooks.get(name, (None, None)))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        restore.append((m, attr, original))
    return restore


def uninstall(restore) -> None:
    for m, attr, original in restore:
        setattr(m, attr, original)
