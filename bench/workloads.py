"""The benchmark's workloads: the inputs each one generates from its seed,
the references its outputs are checked against, and the checks.

A workload writes its config (once at the measured T and once at T = 0
for the set-up measurement) and any instance file into its output
directory; the program receives only those files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from aqgd.lqr import LtiSystem, random_stable_instance
from aqgd.problems import make_quadratic  # the program's own input generator

import checks


def _write_config(path: Path, **kv) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return path


class Workload:
    name = ""
    T = 0
    tol = 0.0
    repeats = 1  # > 1: one `aqgd run --repeats k` batch on the worker pool

    def prepare(self, out: Path, seed: int) -> dict:
        """Write the inputs for `seed` and compute the references; returns
        the config values, the two config paths and the references."""
        kv = self.inputs(out, seed)
        return {
            "kv": kv,
            "cfg": _write_config(out / f"{self.name}.cfg", **kv, T=self.T),
            "cfg0": _write_config(out / f"{self.name}-setup.cfg", **kv, T=0),
            "ref": self.reference(kv),
        }

    def inputs(self, out: Path, seed: int) -> dict:
        raise NotImplementedError

    def reference(self, kv: dict) -> dict:
        raise NotImplementedError

    def trace_paths(self, stem: Path, kv_seed: int) -> list[Path]:
        if self.repeats == 1:
            return [stem]
        return [Path(f"{stem}.seed{kv_seed + i}.csv") for i in range(self.repeats)]

    def check(self, ref: dict, traces: list[dict]) -> tuple[float, float]:
        """Check every trace of one call; returns (iters_to_tol, bits_to_tol),
        medians over the batch's seeds."""
        iters, bits = [], []
        for tr in traces:
            self.check_one(ref, tr)
            t = checks.first_at_tol(tr["f_gap"], self.tol)
            iters.append(t)
            bits.append(int(tr["bits_cum"][t]))
        self.check_batch(ref, traces)
        return float(np.median(iters)), float(np.median(bits))

    def check_one(self, ref: dict, tr: dict) -> None:
        raise NotImplementedError

    def check_batch(self, ref: dict, traces: list[dict]) -> None:
        pass


class _Quadratic(Workload):
    d = 0
    kappa = 0.0
    quantizer = ""

    def inputs(self, out, seed):
        return dict(problem="quadratic", algorithm="aqgd", quantizer=self.quantizer,
                    d=self.d, kappa=self.kappa, seed=seed)

    def reference(self, kv):
        prob = make_quadratic(kv["d"], kv["kappa"], seed=kv["seed"])
        return checks.quadratic_reference(prob.H, prob.c)

    def check_one(self, ref, tr):
        gap = tr["f_gap"]
        checks.check_initial_gap(gap[0], ref["gap0"], rtol=1e-9)
        checks.check_nonnegative(gap)
        checks.check_aqgd_bound(gap, ref["kappa"], ref["alpha"], tr["R_t"][0])


class QuadraticLarge(_Quadratic):
    """d = 1024 scalar AQGD: the d x d oracle products, frame packing and
    trace output dominate; linalg and lqr stay idle."""

    name = "quadratic-large"
    d, kappa, quantizer = 1024, 100.0, "scalar"
    T = 3000
    tol = 1e-4
    rate_window = (100, 3000)
    rate_rtol = 0.02

    def reference(self, kv):
        ref = super().reference(kv)
        ref["b"] = checks.rate_threshold_bits(self.d, ref["kappa"])
        return ref

    def check_one(self, ref, tr):
        super().check_one(ref, tr)
        checks.check_bits_linear(tr["bits_cum"], self.d * ref["b"])
        checks.check_rate_preserved(tr["f_gap"], ref["lam"], ref["xstar_hat"],
                                    ref["alpha"], self.rate_window, self.rate_rtol)


class NetquantLowdim(_Quadratic):
    """d = 3 AQGD with the epsilon-net quantizer: codebook build and
    nearest-codeword encoding; set-up time and memory dominate."""

    name = "netquant-lowdim"
    d, kappa, quantizer = 3, 10.0, "net"
    T = 1500
    # deep, so the count is set by the rate rather than by the
    # seed-dependent transient; the gradient stays far above the
    # round-off floor at which the range recursion overflows
    tol = 1e-18

    def check_one(self, ref, tr):
        super().check_one(ref, tr)
        gamma = (1.0 - 1.0 / ref["kappa"]) / 3.0
        checks.check_net_bits(tr["bits_cum"], self.d, gamma)


class _Lqr(Workload):
    def reference(self, kv):
        s = LtiSystem.load(kv["system_file"])
        return {"gap0": checks.lqr_gap0(s.A, s.B, s.Q, s.R, s.Sigma_w),
                "d": s.n * s.m, "b": kv["b"]}

    def check_one(self, ref, tr):
        checks.check_initial_gap(tr["f_gap"][0], ref["gap0"], rtol=1e-8)
        checks.check_bits_linear(tr["bits_cum"], ref["d"] * ref["b"])


class LqrExact(_Lqr):
    """Exact policy gradients on an n = 30, m = 15 system (d = 450): the
    Lyapunov doubling solver and eigenvalue checks dominate."""

    name = "lqr-exact"
    T = 1000
    tol = 0.05
    n, m, instance_seed = 30, 15, 2

    def inputs(self, out, seed):
        sys_file = out / "lqr-exact-system.txt"
        random_stable_instance(self.n, self.m, self.instance_seed).save(sys_file)
        # a fixed step keeps the iteration count independent of the
        # seeded local-smoothness probe, which moves 1/(6L) by +-13%
        return dict(problem="lqr-exact", algorithm="aqgd", system_file=sys_file,
                    alpha=7e-6, b=6, seed=seed)

    def check_one(self, ref, tr):
        super().check_one(ref, tr)
        checks.check_potential_monotone(tr["V_t"])


class LqrModelfreeBatch(_Lqr):
    """NAQGD with zeroth-order gradient estimates on the n = 5, m = 3
    instance, as one batch over estimator seeds on the worker pool."""

    name = "lqr-modelfree-batch"
    T = 30
    tol = 0.6
    repeats = 4
    stretch = 8

    def inputs(self, out, seed):
        sys_file = out / "lqr-modelfree-system.txt"
        random_stable_instance(5, 3, 3, rho_target=0.8).save(sys_file)
        # estimator seeds 0..repeats-1 whatever the benchmark seed: the
        # NAQGD iteration count at a tolerance varies by 10-30% between
        # batches of seeds even as a median of 16, wider than any bound
        return dict(problem="lqr-modelfree", algorithm="naqgd", system_file=sys_file,
                    alpha=5e-5, r=0.1, ell=200, N=400, noise_mode="empirical",
                    b=8, seed=0)

    def check_one(self, ref, tr):
        super().check_one(ref, tr)
        checks.check_finite(tr)

    def check_batch(self, ref, traces):
        checks.check_batch_progress([tr["f_gap"] for tr in traces], ref["gap0"],
                                    self.stretch, ratio=0.8)


WORKLOADS = {w.name: w for w in (QuadraticLarge(), LqrExact(),
                                 LqrModelfreeBatch(), NetquantLowdim())}
