"""The benchmark's tracer wraps package functions by name, so a removed or
renamed one must fail here rather than break `bench/run.py --trace 1`."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT / "bench", env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
