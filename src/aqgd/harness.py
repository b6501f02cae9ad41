"""Experiment orchestration: configuration parsing, running the
optimizers and their baselines on the bundled problem families, rate
fitting, invariant auditing, and CSV/plot-data emission."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import lqr as lqr_mod
from .errors import AqgdError, ConfigError, reading
from .optimize import (LOOP_KINDS, RunTrace, default_alpha, rate_threshold_b,
                       run)
from .problems import PerturbedOracle, SineBowl, make_quadratic
from .quantize import build_net, scalar_spec

PROBLEM_KINDS = ("quadratic", "lqr-exact", "lqr-modelfree", "pl-nonconvex")
ALGORITHMS = LOOP_KINDS  # optimize.run runs each algorithm, baselines included
NOISE_MODES = ("empirical", "manual")


@dataclass
class ExperimentConfig:
    problem: str = "quadratic"
    algorithm: str = "aqgd"
    d: int = 20
    kappa: float = 100.0
    system_file: str = ""
    n: int = 5
    m: int = 3
    quantizer: str = "scalar"
    b: int = 0  # 0 means: pick the rate-preserving threshold
    alpha: float = 0.0  # 0 means: default for the problem kind
    R0: float = 0.0  # 0 means: default for the problem kind
    T: int = 1000
    seed: int = 0
    # model-free estimator settings
    ell: int = 200
    N: int = 400
    r: float = 0.1
    noise_mode: str = "empirical"
    eps_manual: float = 0.0
    out: str = ""

    def validate(self) -> None:
        if self.problem not in PROBLEM_KINDS:
            raise ConfigError(f"unknown problem kind {self.problem!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.quantizer not in ("scalar", "net"):
            raise ConfigError(f"unknown quantizer family {self.quantizer!r}")
        if self.noise_mode not in NOISE_MODES:
            raise ConfigError(f"unknown noise mode {self.noise_mode!r}")
        if self.T < 0:
            raise ConfigError("T must be non-negative")
        for name in ("d", "n", "m", "ell", "N"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not self.kappa >= 1.0:
            raise ConfigError("kappa must be at least 1")
        if not self.r > 0.0:
            raise ConfigError("perturbation radius r must be positive")
        if self.problem == "lqr-modelfree" and self.algorithm != "naqgd":
            # aqgd assumes exact gradients, and the baselines would descend
            # along them: only naqgd reads the model-free estimates
            raise ConfigError("model-free gradients require the naqgd algorithm")
        if self.algorithm == "naqgd" and self.problem != "lqr-modelfree" \
                and self.noise_mode != "manual":
            raise ConfigError("naqgd on exact-gradient problems needs noise_mode=manual")
        if self.algorithm == "naqgd" and self.noise_mode == "manual" \
                and self.eps_manual <= 0.0:
            raise ConfigError("manual noise mode needs eps_manual > 0")


_FIELD_TYPES = {f.name: f.type for f in ExperimentConfig.__dataclass_fields__.values()}


def config_value(key: str, text: str):
    """The typed value of config key ``key`` written as ``text``; raises
    ConfigError for an unknown key or a value of the wrong type."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def parse_config(path) -> ExperimentConfig:
    """Flat `key = value` lines, `#` comments, blank lines ignored."""
    values = {}
    with reading(path), open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            try:
                values[key] = config_value(key, val)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def _build_problem(cfg: ExperimentConfig):
    """Returns (oracle, quantizer_spec, alpha, R0, eps_schedule, extras)."""
    seed = cfg.seed
    eps_schedule = None
    extras = {}
    if cfg.problem == "quadratic":
        oracle = make_quadratic(cfg.d, cfg.kappa, seed=seed)
    elif cfg.problem == "pl-nonconvex":
        oracle = SineBowl(cfg.d)
    else:
        if cfg.system_file:
            sys = lqr_mod.LtiSystem.load(cfg.system_file)
        else:
            sys = lqr_mod.random_stable_instance(cfg.n, cfg.m, seed)
        est = (lqr_mod.EstimatorConfig(ell=cfg.ell, N=cfg.N, r=cfg.r, seed=seed)
               if cfg.problem == "lqr-modelfree" else None)
        oracle = lqr_mod.LqrOracle(sys, est, seed=seed)
        if est is not None:
            if cfg.noise_mode == "empirical":
                eps = lqr_mod.calibrate_noise(sys, np.zeros((sys.m, sys.n)), est)
            else:
                eps = cfg.eps_manual
            eps_schedule = np.full(cfg.T + 2, eps)
            extras["eps"] = eps
    extras["kappa"] = oracle.L / oracle.mu
    if cfg.algorithm == "naqgd" and cfg.problem != "lqr-modelfree":
        eps_schedule = np.full(cfg.T + 2, cfg.eps_manual)
        oracle = PerturbedOracle(oracle, eps_schedule, seed=seed)
        extras["eps"] = cfg.eps_manual

    kappa = extras["kappa"]
    b = cfg.b if cfg.b > 0 else rate_threshold_b(oracle.d, max(kappa, 1.0 + 1e-9))
    if cfg.quantizer == "scalar":
        quant = scalar_spec(oracle.d, b)
    else:
        gamma = (1.0 / 3.0) * (1.0 - 1.0 / max(kappa, 1.0 + 1e-9))
        quant = build_net(oracle.d, gamma)
    alpha = cfg.alpha if cfg.alpha > 0 else default_alpha(oracle)
    if cfg.R0 > 0:
        R0 = cfg.R0
    else:
        # large enough to dominate both the initial gradient and the
        # steady level alpha L ||g|| / (1 - gamma) of the range recursion
        g0 = float(np.linalg.norm(oracle.eval_grad(oracle.x0())))
        R0 = max(1.25, alpha * oracle.L / max(1.0 - quant.gamma, 1e-9)) * g0
        R0 = max(R0, 1e-12)
        if eps_schedule is not None:
            R0 += eps_schedule[0]
    return oracle, quant, alpha, R0, eps_schedule, extras


@dataclass
class Summary:
    final_gap: float
    slope: float
    r2: float
    bits: int
    violations: int
    extras: dict = field(default_factory=dict)


def check_trace_invariants(trace: RunTrace, kappa: float | None = None) -> int:
    """Count violations of the per-step run invariants in a trace:
    non-negative gaps, innovation within range, monotone bit counter,
    and (exact adaptive mode, with kappa) per-step potential contraction."""
    bad = 0
    bad += int(np.sum(trace.f_gap < -1e-9))
    adaptive = trace.mode in ("aqgd", "naqgd")
    for t in range(len(trace) - 1):
        iv = trace.innov_norm[t]
        if adaptive and not np.isnan(iv) and iv > trace.R[t] * (1 + 1e-12):
            bad += 1
    bad += int(np.sum(np.diff(trace.bits) < 0))
    if kappa is not None and trace.mode == "aqgd":
        rho = 1.0 - 1.0 / (12.0 * kappa)
        V = trace.V
        # additive headroom: once V reaches the double-precision floor
        # relative to its initial value the exact contraction no longer
        # binds, only round-off does
        floor = 1e-12 * V[0] if len(V) else 0.0
        for t in range(len(V) - 1):
            if V[t + 1] > rho * V[t] * (1 + 1e-12) + floor:
                bad += 1
    return bad


def run_experiment(cfg: ExperimentConfig):
    """Execute one configured run; returns (trace, summary) and writes
    the CSV trace when cfg.out is set."""
    cfg.validate()
    oracle, quant, alpha, R0, eps, extras = _build_problem(cfg)
    trace = run(cfg.algorithm, oracle, quant, alpha, R0, cfg.T, eps_schedule=eps)
    # the geometric potential contraction is certified only at the
    # reference step size 1/(6L), which is what a defaulted alpha uses
    kappa = extras.get("kappa") if trace.mode == "aqgd" and cfg.alpha == 0 else None
    violations = check_trace_invariants(trace, kappa=kappa)
    try:
        fit = fit_rate(trace, (min(100, cfg.T // 2), cfg.T))
        slope, r2 = fit.slope, fit.r2
    except ValueError:
        slope, r2 = float("nan"), float("nan")
    summary = Summary(final_gap=float(trace.f_gap[-1]), slope=slope, r2=r2,
                      bits=int(trace.bits[-1]), violations=violations,
                      extras=extras)
    if cfg.out:
        trace.to_csv(cfg.out)
    return trace, summary


def _max_workers() -> int:
    env = os.environ.get("AQGD_THREADS", "")
    if env.strip():
        return max(1, int(env))
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(8, cpus)


def _run_seed(cfg: ExperimentConfig):
    """run_experiment, with the seed named in any package error."""
    try:
        return run_experiment(cfg)
    except AqgdError as exc:
        raise type(exc)(f"seed {cfg.seed}: {exc}") from exc


def run_repeats(cfg: ExperimentConfig, repeats: int):
    """Run the config under seeds seed..seed+repeats-1 concurrently;
    returns (traces, summaries, quantile table over f_gap).  A package
    error of one seed is raised again with "seed <s>: " before its
    message (the first failing seed in seed order)."""
    cfgs = [replace(cfg, seed=cfg.seed + i,
                    out=f"{cfg.out}.seed{cfg.seed + i}.csv" if cfg.out else "")
            for i in range(repeats)]
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        results = list(pool.map(_run_seed, cfgs))
    traces = [tr for tr, _ in results]
    gaps = np.stack([tr.f_gap for tr in traces])
    q = np.quantile(gaps, [0.0, 0.25, 0.5, 0.75, 1.0], axis=0)
    return traces, [s for _, s in results], q.T  # rows: t -> (min,25,50,75,max)


def write_quantiles(path, q: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("t,min,q25,median,q75,max\n")
        for t, row in enumerate(q):
            fh.write(f"{t}," + ",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay exponent of log f-gap over an iteration window."""

    slope: float
    r2: float
    window: tuple


def fit_rate(trace: RunTrace, window) -> RateFit:
    lo, hi = window
    ts = np.arange(lo, min(hi + 1, len(trace)))
    gaps = trace.f_gap[ts[0]: ts[-1] + 1] if len(ts) else np.array([])
    mask = gaps > 0
    if int(mask.sum()) < 10:
        raise ValueError("need at least 10 positive-gap points in the window")
    x = ts[mask].astype(float)
    y = np.log(gaps[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope=float(slope), r2=r2, window=(int(x[0]), int(x[-1])))


GNUPLOT_TEMPLATE = """set logscale y
set xlabel "iteration t"
set ylabel "f(x_t) - f*"
set grid
plot "{data}" using 1:2 with lines title "optimality gap"
"""


def emit_plot_data(trace: RunTrace, stem: str) -> None:
    """Two-column gap-vs-iteration data plus a gnuplot script."""
    data = stem + ".dat"
    with open(data, "w") as fh:
        for t in range(len(trace)):
            fh.write(f"{t} {trace.f_gap[t]:.17g}\n")
    with open(stem + ".gnuplot", "w") as fh:
        fh.write(GNUPLOT_TEMPLATE.format(data=os.path.basename(data)))
