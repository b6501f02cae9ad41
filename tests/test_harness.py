import math
from dataclasses import replace

import numpy as np
import pytest

from aqgd import cli, harness
from aqgd.cli import main
from aqgd.errors import ConfigError
from aqgd.harness import (ExperimentConfig, RateFit, compare_rates,
                          emit_plot_data, fit_rate, parse_config,
                          run_experiment, run_repeats, write_quantiles)
from aqgd.optimize import RunTrace


def write_config(path, text):
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_comments_blanks_and_types(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.cfg", """
            # a comment
            problem = quadratic
            d = 12          # trailing comment
            kappa = 30.5

            T = 250
        """))
        assert cfg.problem == "quadratic"
        assert cfg.d == 12 and isinstance(cfg.d, int)
        assert cfg.kappa == 30.5
        assert cfg.T == 250

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path / "c.cfg", "dimension = 5\n"))

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path / "c.cfg", "d = five\n"))

    def test_missing_equals_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path / "c.cfg", "problem quadratic\n"))

    def test_semantic_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path / "c.cfg", "algorithm = newton\n"))
        with pytest.raises(ConfigError):
            parse_config(write_config(
                tmp_path / "c.cfg",
                "problem = lqr-modelfree\nalgorithm = aqgd\n"))


class TestRunExperiment:
    def test_zero_iterations(self):
        cfg = ExperimentConfig(problem="quadratic", d=5, kappa=10.0, T=0)
        trace, summary = run_experiment(cfg)
        assert len(trace) == 1
        assert summary.bits == 0
        assert summary.violations == 0

    def test_deterministic_csv_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            cfg = ExperimentConfig(problem="quadratic", d=8, kappa=25.0,
                                   T=100, seed=7, out=str(out))
            run_experiment(cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_contraction_holds_on_reference_problem(self):
        cfg = ExperimentConfig(problem="quadratic", d=20, kappa=10.0, T=2000,
                               seed=1)
        trace, summary = run_experiment(cfg)
        assert summary.violations == 0
        assert trace.f_gap[-1] < trace.f_gap[0] * 1e-6

    def test_nonconvex_problem_converges(self):
        cfg = ExperimentConfig(problem="pl-nonconvex", d=6, T=800, seed=0)
        trace, summary = run_experiment(cfg)
        assert summary.violations == 0
        assert trace.f_gap[-1] < 1e-8

    def test_static_range_plateaus_above_adaptive(self):
        base = dict(problem="quadratic", d=10, kappa=20.0, T=2000, seed=3, b=4)
        _, s_adapt = run_experiment(ExperimentConfig(algorithm="aqgd", **base))
        _, s_stat = run_experiment(
            ExperimentConfig(algorithm="gd-static-quantized", **base))
        assert s_stat.final_gap > 100 * max(s_adapt.final_gap, 1e-300)

    def test_unquantized_gd_sends_no_bits(self):
        cfg = ExperimentConfig(problem="quadratic", algorithm="gd-unquantized",
                               d=6, kappa=10.0, T=50)
        _, summary = run_experiment(cfg)
        assert summary.bits == 0


class TestFitRate:
    def geometric_trace(self, rho, T=200):
        f = rho ** np.arange(T + 1)
        nan = np.full(T + 1, np.nan)
        return RunTrace(f_gap=f, grad_norm=nan, R=nan, innov_norm=nan,
                        e_norm=nan, V=f.copy(),
                        bits=np.zeros(T + 1, dtype=np.int64), mode="aqgd")

    def test_exact_geometric_sequence(self):
        fit = fit_rate(self.geometric_trace(0.9), (0, 200))
        assert fit.slope == pytest.approx(math.log(0.9), abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert isinstance(fit, RateFit)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_rate(self.geometric_trace(0.9, T=5), (0, 5))

    def test_gd_rate_matches_condition_number(self):
        # at the default step size 1/(6L) the slowest mode contracts the
        # gap by (1 - 1/(6 kappa))^2 per iteration; the fit can only be
        # faster than that
        cfg = ExperimentConfig(problem="quadratic",
                               algorithm="gd-unquantized", d=10, kappa=20.0,
                               T=600, seed=2)
        trace, _ = run_experiment(cfg)
        fit = fit_rate(trace, (300, 600))
        assert fit.slope <= 2 * math.log(1 - 1 / 120.0) + 1e-6

    def test_compare_rates_self_ratio(self):
        cfg = ExperimentConfig(problem="quadratic", d=10, kappa=40.0, T=500,
                               seed=4)
        ratio, sA, sB = compare_rates(cfg, cfg, window=(100, 500))
        assert ratio == pytest.approx(1.0, abs=1e-12)
        assert sA.slope == sB.slope


class TestRepeatsAndOutput:
    def test_worker_count_from_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("AQGD_THREADS", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert harness._max_workers() == 3
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        assert harness._max_workers() == 8
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._max_workers() == 1
        monkeypatch.setenv("AQGD_THREADS", "2")
        assert harness._max_workers() == 2

    def test_run_repeats_quantiles(self, tmp_path):
        cfg = ExperimentConfig(problem="quadratic", d=6, kappa=15.0, T=60)
        traces, summaries, q = run_repeats(cfg, repeats=4)
        assert len(traces) == 4 and len(summaries) == 4
        assert q.shape == (61, 5)
        assert np.all(np.diff(q, axis=1) >= 0)  # rows sorted min..max
        gaps = np.stack([tr.f_gap for tr in traces])
        assert np.array_equal(q[:, 0], gaps.min(axis=0))
        out = tmp_path / "q.csv"
        write_quantiles(out, q)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,min,q25,median,q75,max"
        assert len(lines) == 62

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(problem="quadratic", d=6, kappa=15.0, T=60),
        # a small fixed step: at ell = 8 the estimates are too noisy for 1/(6L)
        ExperimentConfig(problem="lqr-modelfree", algorithm="naqgd", n=3, m=2,
                         ell=8, N=30, T=5, alpha=1e-5, b=8),
    ], ids=["quadratic", "lqr-modelfree"])
    def test_run_repeats_independent_of_thread_count(self, tmp_path, monkeypatch,
                                                     cfg):
        files = []
        for threads in ("1", "2"):
            monkeypatch.setenv("AQGD_THREADS", threads)
            out = tmp_path / threads / "run"
            out.parent.mkdir()
            _, _, q = run_repeats(replace(cfg, out=str(out)), repeats=3)
            write_quantiles(f"{out}.quantiles.csv", q)
            files.append({p.name: p.read_bytes() for p in out.parent.iterdir()})
        assert len(files[0]) == 4  # three per-seed traces and the quantiles
        assert files[0] == files[1]

    def test_trace_csv_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(problem="quadratic", d=5, kappa=12.0, T=40,
                               out=str(tmp_path / "tr.csv"))
        trace, _ = run_experiment(cfg)
        back = RunTrace.from_csv(tmp_path / "tr.csv")
        assert np.array_equal(back.f_gap, trace.f_gap)
        assert np.array_equal(back.bits, trace.bits)

    def test_emit_plot_data(self, tmp_path):
        cfg = ExperimentConfig(problem="quadratic", d=5, kappa=12.0, T=20)
        trace, _ = run_experiment(cfg)
        stem = str(tmp_path / "plot")
        emit_plot_data(trace, stem)
        dat = (tmp_path / "plot.dat").read_text().splitlines()
        assert len(dat) == 21
        t0, v0 = dat[0].split()
        assert t0 == "0" and float(v0) == trace.f_gap[0]
        assert "plot.dat" in (tmp_path / "plot.gnuplot").read_text()


class TestCli:
    def test_gen_instance_and_lqr_run(self, tmp_path, capsys):
        inst = tmp_path / "sys.txt"
        assert main(["gen-instance", "--n", "3", "--m", "2",
                     "--out", str(inst)]) == 0
        cfg = tmp_path / "lqr.cfg"
        cfg.write_text("problem = lqr-exact\nalgorithm = aqgd\n"
                       f"system_file = {inst}\nalpha = 1e-3\nT = 200\n")
        assert main(["run", str(cfg)]) == 0
        assert "final_gap=" in capsys.readouterr().out

    def test_run_fit_pipeline(self, tmp_path, capsys):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("problem = quadratic\nd = 10\nkappa = 30\nT = 300\n")
        out = tmp_path / "trace.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        assert main(["fit", str(out), "--lo", "100"]) == 0
        assert "slope=" in capsys.readouterr().out

    def test_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("problem = quadratic\nd = 6\nkappa = 20\nT = 150\n")
        assert main(["sweep", str(cfg), "--set", "b=4,6"]) == 0
        assert capsys.readouterr().out.count("final_gap=") == 2

    def test_repeats_with_quantiles(self, tmp_path):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("problem = quadratic\nd = 6\nkappa = 20\nT = 100\n")
        out = tmp_path / "rep"
        assert main(["run", str(cfg), "--repeats", "3",
                     "--out", str(out)]) == 0
        assert (tmp_path / "rep.quantiles.csv").exists()

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        assert "verify: OK" in capsys.readouterr().out

    def test_verify_counts_each_violation_once(self, monkeypatch, capsys):
        # one violation per audit: four configs give 4, not 4 + 4
        one = lambda trace, kappa=None: 1
        monkeypatch.setattr(harness, "check_trace_invariants", one)
        monkeypatch.setattr(cli, "check_trace_invariants", one)
        assert main(["verify"]) == 2
        assert "verify: 4 violations" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = cubic\n")
        assert main(["run", str(cfg)]) == 4

    @pytest.mark.parametrize("spec", ["foo=1,2", "b=3.5"])
    def test_sweep_config_error_exit_code(self, tmp_path, capsys, spec):
        cfg = write_config(tmp_path / "q.cfg", "problem = quadratic\nd = 6\n")
        assert main(["sweep", cfg, "--set", spec]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_divergence_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "div.cfg"
        cfg.write_text("problem = quadratic\nd = 6\nkappa = 20\n"
                       "alpha = 10.0\nT = 200\n")
        assert main(["run", str(cfg)]) == 3

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # the quantizer range shrinks to the floating-point floor and the
        # run ends in Overflow; the CLI reports it in one line
        cfg = write_config(tmp_path / "pl.cfg",
                           "problem = pl-nonconvex\nalgorithm = aqgd\n"
                           "d = 4\nT = 3000\n")
        assert main(["run", cfg]) == 5
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Overflow:")
        assert err.count("\n") == 1
