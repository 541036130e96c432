import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    demos = sorted((ROOT / "demos").glob("0*.py"))
    assert demos
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, f"{demo.name} failed:\n{proc.stderr}"
