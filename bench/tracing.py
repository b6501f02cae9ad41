"""In-memory span tracing of the calls into each aqgd module.

Each public function is wrapped at the module (or class) attribute
through which its callers look it up, so the program itself is not
edited.  A span records its name, start, end, the span that was open
when it started, its thread, and an optional count taken from the
call (bits in a frame, doublings of a Lyapunov solve, ...).  Spans sit
on a per-thread stack so that pool threads nest correctly; the first
span on a pool thread is parented to the span the main thread has open,
which is the call that started the pool.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, thread, count, cpu_s]
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, fn, name, count=None, cpu=False):
        """Return fn wrapped in a span; ``count(args, kwargs, result)``
        gives the span's count, evaluated after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = -1
            rec = [name, 0.0, 0.0, parent, threading.get_ident(), 0, 0.0]
            self.spans.append(rec)  # list.append is atomic under the GIL
            stack.append(len(self.spans) - 1)
            c0 = time.thread_time() if cpu else 0.0
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                if cpu:
                    rec[6] = time.thread_time() - c0
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def install(tracer: Tracer) -> None:
    """Wrap every public function the workloads reach, at the attribute
    through which the program looks it up."""
    from aqgd import cli, harness, linalg, lqr, optimize, problems

    def patch(owner, attr, name, count=None, cpu=False):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count, cpu))

    # linalg: reached from lqr's module globals and from inside linalg
    patch(lqr, "solve_discrete_lyapunov", "linalg.lyapunov",
          count=lambda a, k, r: r.iterations)
    patch(lqr, "spectral_radius", "linalg.spectral_radius")
    patch(linalg, "spectral_radius", "linalg.spectral_radius")
    patch(lqr, "solve_dare", "linalg.dare")
    # lqr: the oracle and the harness look these up on the lqr module
    patch(lqr, "lqr_cost", "lqr.cost")
    patch(lqr, "lqr_grad", "lqr.grad")
    patch(lqr, "estimate_gradient", "lqr.estimate_gradient",
          count=lambda a, k, r: a[2].ell * a[2].N)
    patch(lqr, "calibrate_noise", "lqr.calibrate_noise")
    patch(lqr, "estimate_local_smoothness", "lqr.local_smoothness")
    # problems: the quadratic oracle's two d x d products
    patch(problems.QuadraticProblem, "eval_grad", "problems.grad")
    patch(problems.QuadraticProblem, "f_gap", "problems.gap")
    patch(harness, "make_quadratic", "problems.make_quadratic")
    # the LQR oracle's evaluations, so oracle calls per step count on every problem
    for attr in ("eval_f", "eval_grad", "eval_noisy_grad"):
        patch(lqr.LqrOracle, attr, "lqr.oracle")
    # quantize: the optimizer loop's encode/decode, the harness's net build
    patch(optimize, "encode", "quantize.encode",
          count=lambda a, k, r: r[0].bit_len)
    patch(optimize, "decode", "quantize.decode")
    patch(harness, "build_net", "quantize.build_net",
          count=lambda a, k, r: len(r.codebook))
    # optimize: the descent loop as the harness calls it
    patch(harness, "run", "optimize.run")
    # harness: experiment, batch, audit and trace output
    patch(cli, "run_experiment", "harness.run_experiment", cpu=True)
    patch(harness, "run_experiment", "harness.run_experiment", cpu=True)
    patch(cli, "run_repeats", "harness.run_repeats")
    patch(harness, "check_trace_invariants", "harness.audit")
    patch(harness, "fit_rate", "harness.audit")
    patch(optimize.RunTrace, "to_csv", "harness.trace_io",
          count=lambda a, k, r: _file_bytes(a[1]))
    patch(cli, "emit_plot_data", "harness.trace_io",
          count=lambda a, k, r: _file_bytes(a[1] + ".dat", a[1] + ".gnuplot"))
    patch(cli, "write_quantiles", "harness.trace_io",
          count=lambda a, k, r: _file_bytes(a[0]))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover
    (the union of their intervals, since pool children overlap)."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            kids.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        covered, hi = 0.0, float("-inf")
        for a, b in sorted(kids.get(i, ())):
            a, b = max(a, hi, s[1]), min(b, s[2])
            if b > a:
                covered += b - a
            hi = max(hi, b)
        out.append((s[2] - s[1]) - covered)
    return out


# (metric name, unit) in the order they are reported
LAYER_METRICS = (
    ("linalg.lyapunov.calls", "count"),
    ("linalg.lyapunov.self_s", "s"),
    ("linalg.lyapunov.doublings", "count"),
    ("linalg.spectral_radius.calls", "count"),
    ("linalg.spectral_radius.self_s", "s"),
    ("linalg.dare.self_s", "s"),
    ("lqr.lyapunov_per_iter", "calls/iter"),
    ("lqr.cost.calls", "count"),
    ("lqr.grad.calls", "count"),
    ("lqr.grad.self_s", "s"),
    ("lqr.estimate_gradient.calls", "count"),
    ("lqr.estimate_gradient.self_s", "s"),
    ("lqr.rollout_steps_per_s", "1/s"),
    ("lqr.calibrate_noise.self_s", "s"),
    ("lqr.local_smoothness.self_s", "s"),
    ("problems.grad.calls", "count"),
    ("problems.grad.self_s", "s"),
    ("problems.gap.calls", "count"),
    ("problems.gap.self_s", "s"),
    ("problems.h_bytes_per_iter", "B/iter"),
    ("problems.make_quadratic.self_s", "s"),
    ("quantize.encode.calls", "count"),
    ("quantize.encode.self_s", "s"),
    ("quantize.decode.self_s", "s"),
    ("quantize.encode_bits_per_s", "bits/s"),
    ("quantize.build_net.self_s", "s"),
    ("quantize.codebook_size", "count"),
    ("optimize.run.self_s", "s"),
    ("optimize.oracle_calls_per_iter", "calls/iter"),
    ("harness.repeats.parallel_efficiency", "ratio"),
    ("harness.repeats.busy_s", "s"),
    ("harness.repeats.wall_s", "s"),
    ("harness.repeats.workers", "count"),
    ("harness.audit.self_s", "s"),
    ("harness.trace_io.self_s", "s"),
    ("harness.trace_io.bytes", "B"),
    ("bench.traced_solve_s", "s"),
)


def layer_metrics(spans, iterations: int, d: int, workers: int,
                  traced_solve_s: float) -> dict:
    """Per-layer figures of one traced call.  `iterations` is the number of
    descent steps the call took (T times the batch size) and `d` the
    problem dimension; h_bytes_per_iter is computed as 8 d^2 bytes per
    d x d product, not measured."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + st
        counts[s[0]] = counts.get(s[0], 0) + s[5]

    def ratio(num, den):
        return num / den if den else 0.0

    per_iter = max(iterations, 1)
    h_products = calls.get("problems.grad", 0) + calls.get("problems.gap", 0)
    oracle = h_products + calls.get("lqr.oracle", 0)
    # seeds of a batch run on pool threads, children of run_repeats
    batch = [i for i, s in enumerate(spans) if s[0] == "harness.run_repeats"]
    wall = sum(spans[i][2] - spans[i][1] for i in batch)
    busy = sum(s[6] for s in spans if s[0] == "harness.run_experiment" and s[3] in batch)
    m = {
        "linalg.lyapunov.calls": calls.get("linalg.lyapunov", 0),
        "linalg.lyapunov.self_s": self_s.get("linalg.lyapunov", 0.0),
        "linalg.lyapunov.doublings": counts.get("linalg.lyapunov", 0),
        "linalg.spectral_radius.calls": calls.get("linalg.spectral_radius", 0),
        "linalg.spectral_radius.self_s": self_s.get("linalg.spectral_radius", 0.0),
        "linalg.dare.self_s": self_s.get("linalg.dare", 0.0),
        "lqr.lyapunov_per_iter": calls.get("linalg.lyapunov", 0) / per_iter,
        "lqr.cost.calls": calls.get("lqr.cost", 0),
        "lqr.grad.calls": calls.get("lqr.grad", 0),
        "lqr.grad.self_s": self_s.get("lqr.grad", 0.0),
        "lqr.estimate_gradient.calls": calls.get("lqr.estimate_gradient", 0),
        "lqr.estimate_gradient.self_s": self_s.get("lqr.estimate_gradient", 0.0),
        "lqr.rollout_steps_per_s": ratio(counts.get("lqr.estimate_gradient", 0),
                                         self_s.get("lqr.estimate_gradient", 0.0)),
        "lqr.calibrate_noise.self_s": self_s.get("lqr.calibrate_noise", 0.0),
        "lqr.local_smoothness.self_s": self_s.get("lqr.local_smoothness", 0.0),
        "problems.grad.calls": calls.get("problems.grad", 0),
        "problems.grad.self_s": self_s.get("problems.grad", 0.0),
        "problems.gap.calls": calls.get("problems.gap", 0),
        "problems.gap.self_s": self_s.get("problems.gap", 0.0),
        "problems.h_bytes_per_iter": 8.0 * d * d * h_products / per_iter,
        "problems.make_quadratic.self_s": self_s.get("problems.make_quadratic", 0.0),
        "quantize.encode.calls": calls.get("quantize.encode", 0),
        "quantize.encode.self_s": self_s.get("quantize.encode", 0.0),
        "quantize.decode.self_s": self_s.get("quantize.decode", 0.0),
        "quantize.encode_bits_per_s": ratio(counts.get("quantize.encode", 0),
                                            self_s.get("quantize.encode", 0.0)),
        "quantize.build_net.self_s": self_s.get("quantize.build_net", 0.0),
        "quantize.codebook_size": counts.get("quantize.build_net", 0)
        / max(calls.get("quantize.build_net", 0), 1),
        "optimize.run.self_s": self_s.get("optimize.run", 0.0),
        "optimize.oracle_calls_per_iter": oracle / per_iter,
        "harness.repeats.parallel_efficiency": ratio(busy, wall * workers),
        "harness.repeats.busy_s": busy,
        "harness.repeats.wall_s": wall,
        "harness.repeats.workers": workers if batch else 0,
        "harness.audit.self_s": self_s.get("harness.audit", 0.0),
        "harness.trace_io.self_s": self_s.get("harness.trace_io", 0.0),
        "harness.trace_io.bytes": counts.get("harness.trace_io", 0),
        "bench.traced_solve_s": traced_solve_s,
    }
    return {name: (float(m[name]), unit) for name, unit in LAYER_METRICS}
