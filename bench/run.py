"""End-to-end benchmark of the `aqgd run` path.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated
from the seed into bench/out/NAME/, then, each in a fresh process:

  --trace 0  one cold set-up (the same config at T = 0, timed from the
             process's start), then whole `aqgd run` calls for S seconds
             (at least one), each timed around the call.  Reports the
             end-to-end metrics.
  --trace 1  the same calls with every module's public functions
             wrapped in spans.  Reports the per-layer metrics.

Every call's trace CSVs are checked against references computed apart
from the program.  The last line of standard output is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CALL_TIMEOUT_S = 170.0

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("iters_to_tol", "iterations"),
              ("bits_to_tol", "bits"), ("peak_rss_mb", "MiB"))


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(src: Path) -> dict:
    """One BLAS thread and nproc pool threads in the process that runs the
    workload.  Two BLAS threads on a shared two-core machine made two
    cold set-ups in eight about three times slower; one thread did not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["AQGD_THREADS"] = str(_nproc())
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run argv to completion; returns (exit code, wall seconds from the
    process's start, peak RSS in MiB of that process)."""
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=fh)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, workload, seed: int, root: Path):
        self.w = workload
        self.out = HERE / "out" / workload.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.ctx = workload.prepare(self.out, seed)
        self.env = child_env(root / "src")
        self.log = self.out / "program.log"
        self.errors: list[str] = []  # outputs that failed a check
        self.failures: list[str] = []  # processes that exited non-zero

    def argv(self, cfg: Path, stem: Path, spans: str, result: Path) -> list[str]:
        a = [sys.executable, str(HERE / "child.py"), str(result), spans, "--",
             "run", str(cfg), "--out", str(stem)]
        if self.w.repeats > 1:
            a += ["--repeats", str(self.w.repeats)]
        return a

    def setup(self) -> tuple[bool, float]:
        stem = self.out / "setup.csv"
        rc, wall, _ = spawn(self.argv(self.ctx["cfg0"], stem, "-", self.out / "setup.json"),
                            self.env, self.log)
        if rc != 0:
            self.failures.append(f"set-up run exited with {rc}; see {self.log}")
        return rc == 0, wall

    def call(self, i: int, traced: bool) -> dict | None:
        """One measured call; returns its figures, or None if it failed."""
        stem = self.out / f"call{i}.csv"
        result = self.out / f"call{i}.json"
        spans = self.out / f"call{i}.spans.json"
        rc, _, rss = spawn(self.argv(self.ctx["cfg"], stem, str(spans) if traced else "-",
                                     result), self.env, self.log)
        if rc != 0 or not result.exists():
            self.failures.append(f"call {i} exited with {rc}; see {self.log}")
            return None
        solve_s = json.loads(result.read_text())["solve_s"]
        import checks  # after main() has pinned the BLAS threads
        paths = self.w.trace_paths(stem, self.ctx["kv"]["seed"])
        try:
            iters, bits = self.w.check(self.ctx["ref"], [checks.read_trace(p) for p in paths])
        except (checks.CheckFailed, OSError, ValueError) as exc:
            self.errors.append(f"call {i}: {exc}")
            iters = bits = None
        fig = {"solve_s": solve_s, "iters_to_tol": iters, "bits_to_tol": bits,
               "peak_rss_mb": rss}
        if traced:
            import tracing
            layer = tracing.layer_metrics(
                json.loads(spans.read_text()), self.w.T * self.w.repeats,
                self.ctx["ref"].get("d", self.ctx["kv"].get("d", 0)),
                min(self.w.repeats, int(self.env["AQGD_THREADS"])), solve_s)
            fig["layer"] = layer
        return fig


def run(args, workload, root: Path) -> dict:
    bench = Bench(workload, args.seed, root)
    setup_s = None
    if not args.trace:
        ok, wall = bench.setup()
        setup_s = wall if ok else None
    figs = []
    calls = 0
    t_end = time.perf_counter() + args.seconds
    while calls == 0 or time.perf_counter() < t_end:
        calls += 1
        fig = bench.call(calls, bool(args.trace))
        if fig is not None:
            figs.append(fig)
    attempted = calls + (0 if args.trace else 1)
    # correct speaks of the operations that did not fail
    correct = not bench.errors
    for e in bench.failures + bench.errors:
        print(f"bench: {e}", file=sys.stderr)
    metrics = {}
    if figs and args.trace:
        for name, (_, unit) in figs[0]["layer"].items():
            metrics[name] = {"value": statistics.median(f["layer"][name][0] for f in figs),
                             "unit": unit}
    elif figs:
        for name, unit in END_TO_END:
            values = [setup_s] if name == "setup_s" else [f[name] for f in figs]
            values = [v for v in values if v is not None]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    return {"correct": correct and bool(figs), "attempted": attempted,
            "failed": len(bench.failures), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "aqgd" / "__init__.py").is_file():
        print("bench: no aqgd sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: the references run single-threaded
    sys.path[:0] = [str(HERE), str(root / "src")]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(json.dumps(run(args, WORKLOADS[args.workload], root)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
