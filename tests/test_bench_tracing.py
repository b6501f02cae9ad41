"""The benchmark's tracer wraps package functions by name, so a removed or
renamed one must fail here rather than break `bench/run.py --trace 1`."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# one traced quadratic run per quantizer family; prints the span counts
# the benchmark's per-layer quantize and optimize metrics are built from
TRACED_RUNS = """
import collections
import tracing
from aqgd import harness
tracer = tracing.Tracer()
tracing.install(tracer)
for quantizer in ("scalar", "net"):
    first = len(tracer.spans)
    harness.run_experiment(harness.ExperimentConfig(
        problem="quadratic", d=3, kappa=10.0, T=20, quantizer=quantizer))
    n = collections.Counter(s[0] for s in tracer.spans[first:])
    print(quantizer, n["quantize.encode"], n["quantize.decode"], n["optimize.run"])
"""

# one traced quadratic run: the benchmark's h_bytes_per_iter counts one
# d x d product per problems.grad or problems.gap span
TRACED_QUADRATIC_ORACLE = """
import collections
import tracing
from aqgd import harness
tracer = tracing.Tracer()
tracing.install(tracer)
harness.run_experiment(harness.ExperimentConfig(problem="quadratic", d=3, kappa=10.0,
                                                T=20))
n = collections.Counter(s[0] for s in tracer.spans)
print(n["problems.grad"], n["problems.gap"])
"""

# one traced small model-free run: the benchmark's rollout-rate metric
# counts ell * N steps per lqr.estimate_gradient span
TRACED_MODELFREE_RUN = """
import tracing
from aqgd import harness
tracer = tracing.Tracer()
tracing.install(tracer)
harness.run_experiment(harness.ExperimentConfig(
    problem="lqr-modelfree", algorithm="naqgd", n=3, m=2, ell=8, N=30, T=5,
    alpha=1e-5, b=8))
print(sorted(s[5] for s in tracer.spans if s[0] == "lqr.estimate_gradient"))
"""


def run_in_bench(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "bench", env=env, capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_on_the_package():
    proc = run_in_bench("import tracing; tracing.install(tracing.Tracer())")
    assert proc.returncode == 0, proc.stderr


def test_traced_run_records_every_encode_and_decode():
    proc = run_in_bench(TRACED_RUNS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["scalar 20 20 1", "net 20 20 1"]


def test_traced_modelfree_run_records_every_estimate():
    proc = run_in_bench(TRACED_MODELFREE_RUN)
    assert proc.returncode == 0, proc.stderr
    # 5 calibration calls and one per step of T = 5, each of 8 x 30 steps
    assert proc.stdout.strip() == str([8 * 30] * 10)


def test_traced_quadratic_run_reads_h_once_per_record():
    proc = run_in_bench(TRACED_QUADRATIC_ORACLE)
    assert proc.returncode == 0, proc.stderr
    # T + 1 records and the set-up's R0 evaluation; the gap comes with the gradient
    assert proc.stdout.split() == ["22", "0"]
