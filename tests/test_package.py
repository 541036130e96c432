"""The package namespace and the names the benchmark's tracer wraps."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import jonescheck
from jonescheck import harness, solvers
from jonescheck.multigraph import Multigraph

SUBMODULES = (
    "canonical", "graphs", "harness", "io", "multigraph", "reduction", "solvers", "structure"
)
ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_the_submodules_only():
    # a fresh interpreter sees every import the package makes
    script = (
        "import json, sys\n"
        "import jonescheck\n"
        "print(json.dumps({\n"
        "    'version': jonescheck.__version__,\n"
        f"    'attrs': [hasattr(jonescheck, m) for m in {SUBMODULES!r}],\n"
        "    'loaded': sorted(k for k in sys.modules if k.startswith('jonescheck')),\n"
        "    'networkx': 'networkx' in sys.modules,\n"
        "}))\n"
    )
    src = str(Path(jonescheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["version"] == jonescheck.__version__
    assert all(out["attrs"])
    assert out["loaded"] == ["jonescheck"] + [f"jonescheck.{m}" for m in SUBMODULES]
    assert not out["networkx"]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    # benchmarks/tracing.py skips a traced name its module lacks, and the
    # benchmark's trace metrics for it then read zero
    tracing = _load("tracing")
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"jonescheck.{layer}"), name, None))
    ]
    assert tracing.TRACED and missing == []


def test_trace_gates_read_nonzero(monkeypatch, tmp_path):
    # the benchmark's traced reduce and solve-large runs fail when one of
    # their REQUIRED_NONZERO metrics reads zero, for example when work is
    # routed around `suppress_degree2` or `delete_vertices`; replay both
    # workloads' calls on a slice of the bench corpus under the tracer and
    # derive the metrics as `benchmarks/run.py` does
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    run = _load("run")
    corpus = run.corpus.load()[::60]
    graphs = [Multigraph(n, tuple(map(tuple, edges))) for _, n, edges, _ in corpus]
    for workload in ("reduce", "solve-large"):
        tracer = run.tracing.Tracer()
        restore = run.tracing.install(tracer)
        try:
            for g in graphs:
                if workload == "reduce":
                    harness.reduce_pipeline(g, with_certificates=True)
                else:  # the calls of one solve-large graph
                    harness.graph_digest(g)
                    solvers.fvs_exact(g)
                    solvers.cp_exact(g)
        finally:
            run.tracing.uninstall(restore)
        spans = tmp_path / f"{workload}.spans"
        tracer.dump(spans)
        worker = {"spans": spans, "calls": tracer.calls, "counters": tracer.counters}
        values = run.per_layer(
            {"work_s": 1.0}, {"work_s": 1.0, "worker": worker}, run.tracing.Tracer(), 1.0
        )
        zero = [k for k in run.REQUIRED_NONZERO[workload] if not values[k]]
        assert zero == [], workload
