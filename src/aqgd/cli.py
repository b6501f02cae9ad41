"""Command-line front end.

Subcommands: gen-instance, run, sweep, fit, verify.  Exit codes:
0 success, 2 invariant violation, 3 divergence, 4 configuration error,
5 numerical failure (quantizer overflow, unstabilizing gain, a solver
that does not converge or a matrix that is not Schur-stable).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import replace

import numpy as np

from .errors import AqgdError, ConfigError, Divergence
from .harness import (ExperimentConfig, check_trace_invariants, config_value,
                      emit_plot_data, fit_rate, parse_config, run_experiment,
                      run_repeats, write_quantiles)
from .lqr import random_stable_instance
from .optimize import RunTrace

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_DIVERGENCE = 3
EXIT_CONFIG = 4
EXIT_NUMERICAL = 5


def _cmd_gen_instance(args) -> int:
    sys_ = random_stable_instance(args.n, args.m, args.seed,
                                  rho_target=args.rho)
    sys_.save(args.out)
    print(f"wrote {args.n}x{args.m} instance (rho={args.rho}) to {args.out}")
    return EXIT_OK


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def _print_summary(tag, s) -> None:
    print(f"{tag}: final_gap={s.final_gap:.6g} slope={s.slope:.6g} "
          f"r2={s.r2:.4g} bits={s.bits} violations={s.violations}")


def _cmd_run(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    if args.repeats > 1:
        traces, summaries, q = run_repeats(cfg, args.repeats)
        for i, s in enumerate(summaries):
            _print_summary(f"seed {cfg.seed + i}", s)
        if cfg.out:
            write_quantiles(cfg.out + ".quantiles.csv", q)
        bad = sum(s.violations for s in summaries)
    else:
        trace, summary = run_experiment(cfg)
        _print_summary("run", summary)
        if cfg.out:
            emit_plot_data(trace, cfg.out + ".plot")
        bad = summary.violations
    return EXIT_INVARIANT if bad else EXIT_OK


def _cmd_sweep(args) -> int:
    base = _apply_overrides(parse_config(args.config), args)
    grid = {}
    for spec in args.set:
        key, _, vals = spec.partition("=")
        if not vals:
            raise ConfigError(f"sweep spec {spec!r} needs key=v1,v2,...")
        grid[key] = [config_value(key, v) for v in vals.split(",")]
    bad = 0
    for combo in itertools.product(*grid.values()):
        cfg = replace(base, **dict(zip(grid.keys(), combo)))
        if cfg.out:
            tag = "_".join(f"{k}{v}" for k, v in zip(grid.keys(), combo))
            cfg = replace(cfg, out=f"{cfg.out}.{tag}.csv")
        _, summary = run_experiment(cfg)
        _print_summary(" ".join(f"{k}={v}" for k, v in zip(grid.keys(), combo)),
                       summary)
        bad += summary.violations
    return EXIT_INVARIANT if bad else EXIT_OK


def _cmd_fit(args) -> int:
    trace = RunTrace.from_csv(args.trace)
    hi = args.hi if args.hi is not None else len(trace) - 1
    fit = fit_rate(trace, (args.lo, hi))
    print(f"slope={fit.slope:.8g} per-iteration ({np.exp(fit.slope):.8g}x), "
          f"r2={fit.r2:.6g}, window={fit.window}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfgs = [
        ExperimentConfig(problem="quadratic", algorithm="aqgd", d=10,
                         kappa=50.0, T=500, seed=args.seed or 0),
        ExperimentConfig(problem="quadratic", algorithm="naqgd", d=8,
                         kappa=20.0, T=400, noise_mode="manual",
                         eps_manual=1e-4, seed=args.seed or 0),
        ExperimentConfig(problem="pl-nonconvex", algorithm="aqgd", d=4,
                         T=300, seed=args.seed or 0),
        ExperimentConfig(problem="lqr-exact", algorithm="aqgd", n=3, m=2,
                         T=300, alpha=1e-3, seed=args.seed or 0),
    ]
    bad = 0
    for cfg in cfgs:
        trace, summary = run_experiment(cfg)
        extra = check_trace_invariants(trace, kappa=summary.extras.get("kappa")
                                       if cfg.algorithm == "aqgd" else None)
        _print_summary(f"{cfg.problem}/{cfg.algorithm}", summary)
        bad += summary.violations + extra
    print("verify:", "OK" if bad == 0 else f"{bad} violations")
    return EXIT_OK if bad == 0 else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="aqgd",
                                description="quantized-gradient descent experiments")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-instance", help="generate a random stable LQR instance")
    g.add_argument("--n", type=int, default=5)
    g.add_argument("--m", type=int, default=3)
    g.add_argument("--rho", type=float, default=0.8)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_instance)

    r = sub.add_parser("run", help="run one configured experiment")
    r.add_argument("config")
    r.add_argument("--seed", type=int)
    r.add_argument("--out")
    r.add_argument("--repeats", type=int, default=1)
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("sweep", help="grid sweep over config keys")
    s.add_argument("config")
    s.add_argument("--set", action="append", default=[],
                   metavar="KEY=V1,V2,...", required=True)
    s.add_argument("--seed", type=int)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_sweep)

    f = sub.add_parser("fit", help="fit a decay rate to an emitted CSV trace")
    f.add_argument("trace")
    f.add_argument("--lo", type=int, default=0)
    f.add_argument("--hi", type=int)
    f.set_defaults(func=_cmd_fit)

    v = sub.add_parser("verify", help="run the built-in invariant suite")
    v.add_argument("--seed", type=int)
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Divergence as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except AqgdError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
