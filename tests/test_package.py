"""The package namespace and the names the benchmark's tracer wraps."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import jonescheck

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


def test_traced_functions_exist():
    # benchmarks/tracing.py skips a traced name its module lacks, and the
    # benchmark's trace metrics for it then read zero
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"jonescheck.{layer}"), name, None))
    ]
    assert tracing.TRACED and missing == []
