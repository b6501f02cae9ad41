import math

import numpy as np
import pytest

from aqgd import optimize
from aqgd.errors import ConfigError, Divergence
from aqgd.harness import ExperimentConfig, run_experiment
from aqgd.optimize import (GradOracle, RunTrace, default_alpha, potential,
                           rate_threshold_b, run)
from aqgd.problems import PerturbedOracle, QuadraticProblem, make_quadratic
from aqgd.quantize import encode, scalar_spec
from reference import bar_epsilon_sq


class TestAqgdStep:
    def test_fixed_point_at_optimum(self):
        p = QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2))  # argmin at x0 = 0
        trace = run("aqgd", p, scalar_spec(2, 4), 1 / (6 * p.L), 0.0, 5)
        assert np.all(trace.f_gap == 0.0)
        assert np.all(trace.R == 0.0)
        # e_norm = ||grad - g|| with grad = 0, so the estimate stays 0
        assert np.all(trace.e_norm[:5] == 0.0)
        assert np.all(trace.innov_norm[:5] == 0.0)

    def test_single_step_matches_scripted_oracle(self):
        class FromOnes(QuadraticProblem):
            # f(x) = 0.5 (x1^2 + 2 x2^2) from x0 = [1, 1]; records iterates
            def __init__(self):
                super().__init__(np.diag([1.0, 2.0]), np.zeros(2))
                self.seen = []

            def x0(self):
                return np.array([1.0, 1.0])

            def eval_grad(self, x):
                self.seen.append(x)
                return super().eval_grad(x)

        p = FromOnes()
        alpha, b = 1.0 / 12.0, 8
        x0 = np.array([1.0, 1.0])
        R0 = math.sqrt(5.0)
        trace = run("aqgd", p, scalar_spec(2, b), alpha, R0, 1)

        # scripted reference: innovation = grad - 0, quantize over [-R0, R0]
        grad = np.array([1.0, 2.0])
        width = 2 * R0 / 2**b
        idx = np.floor((grad + R0) / width)
        ihat = -R0 + (idx + 0.5) * width
        g = ihat
        x1 = x0 - alpha * g
        R1 = (math.sqrt(2) / 2**b) * R0 + alpha * p.L * np.linalg.norm(g)
        assert np.linalg.norm(p.seen[1] - x1) < 1e-15
        assert abs(trace.R[1] - R1) < 1e-15
        assert trace.bits[1] == 2 * b

    def test_high_rate_limit_matches_unquantized_gd(self):
        p = make_quadratic(3, 8.0, seed=5)
        alpha = 1 / (6 * p.L)
        quant = scalar_spec(3, 52)
        g0 = np.linalg.norm(p.eval_grad(p.x0()))
        trace = run("aqgd", p, quant, alpha, g0 + 1e-9, 100)
        x = p.x0()
        for t in range(100):
            x = x - alpha * p.eval_grad(x)
        gd_gap = p.f_gap(x)
        assert abs(trace.f_gap[-1] - gd_gap) < 1e-9


class TestNaqgdStep:
    def test_zero_noise_reduces_to_aqgd(self):
        p = make_quadratic(5, 30.0, seed=2)
        zero = PerturbedOracle(p, np.zeros(60), seed=0)
        quant = scalar_spec(5, 5)
        alpha = 1 / (6 * p.L)
        R0 = np.linalg.norm(p.eval_grad(p.x0())) * 1.1
        ta = run("aqgd", p, quant, alpha, R0, 50)
        tn = run("naqgd", zero, quant, alpha, R0, 50, eps_schedule=np.zeros(51))
        for name in ("f_gap", "R", "bits"):
            assert np.array_equal(getattr(ta, name), getattr(tn, name))

    def test_range_update_arithmetic(self):
        # gamma = 1/4, R0 = 4, alpha*L = 1/6, g_1 = 3 exactly, eps 0.1/0.2
        # -> R_1 = 1 + 0.5 + 0.3 = 1.8
        class ConstOracle(GradOracle):
            d, L, mu, G, f_star = 1, 1.0, None, None, 0.0

            def eval_f(self, x):
                return 0.0

            def eval_noisy_grad(self, x, t, grad):
                return np.array([3.0])

            def eval_grad(self, x):
                return np.array([3.0])

        quant = scalar_spec(1, 2)  # cells of width 2 on [-4, 4]; 3 is a centre
        assert quant.gamma == 0.25
        trace = run("naqgd", ConstOracle(), quant, 1.0 / 6.0, 4.0, 1,
                    eps_schedule=[0.1, 0.2])
        assert trace.e_norm[0] == 0.0
        assert trace.R[1] == pytest.approx(1.8, abs=1e-15)

    def test_estimate_error_bound_under_injected_noise(self):
        # ||grad_true(x_t) - g_t|| <= gamma R_t + eps_t at every step
        for seed in range(50):
            p = make_quadratic(4, 15.0, seed=seed)
            eps = np.full(82, 0.02)
            orc = PerturbedOracle(p, eps, seed=seed)
            quant = scalar_spec(4, 4)
            alpha = 1 / (6 * p.L)
            R0 = np.linalg.norm(p.eval_grad(p.x0())) * 1.2 + eps[0]
            trace = run("naqgd", orc, quant, alpha, R0, 80, eps_schedule=eps)
            bound = quant.gamma * trace.R[:80] + eps[:80] + 1e-12
            assert np.all(trace.e_norm[:80] <= bound)


class TestRun:
    def test_t_zero_trace(self):
        p = make_quadratic(3, 5.0, seed=1)
        trace = run("aqgd", p, scalar_spec(3, 4), 1 / (6 * p.L), 10.0, 0)
        assert len(trace) == 1
        assert trace.bits[0] == 0

    def test_geometric_bound_on_conditioned_quadratic(self):
        p = make_quadratic(20, 100.0, seed=9)
        b = rate_threshold_b(20, p.kappa)
        quant = scalar_spec(20, b)
        alpha = 1 / (6 * p.L)
        R0 = np.linalg.norm(p.eval_grad(p.x0()))
        trace = run("aqgd", p, quant, alpha, R0, 1500)
        rho = 1 - 1 / (12 * p.kappa)
        bound = (trace.f_gap[0] + alpha * R0**2) * rho ** np.arange(len(trace))
        assert np.all(trace.f_gap <= bound * (1 + 1e-9))

    def test_below_threshold_recorded_not_asserted(self):
        p = make_quadratic(20, 100.0, seed=9)
        quant = scalar_spec(20, 3)  # below the rate-preserving threshold
        alpha = 1 / (6 * p.L)
        R0 = np.linalg.norm(p.eval_grad(p.x0()))
        trace = run("aqgd", p, quant, alpha, R0, 200)
        assert len(trace) == 201  # completes; the contraction bound is
        # not asserted in this regime (and with b=1 the range recursion
        # has gamma > 1 and trips the divergence guard instead)
        with pytest.raises(Divergence):
            run("aqgd", p, scalar_spec(20, 1), alpha, R0, 4000)

    def test_r0_below_initial_gradient_rejected(self):
        p = make_quadratic(3, 5.0, seed=1)
        with pytest.raises(ConfigError, match=r"R0 = 1e-06 below \|\|grad\(x0\)\|\| = "):
            run("aqgd", p, scalar_spec(3, 4), 1 / (6 * p.L), 1e-6, 10)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("R0", [0.01, 0.5])
    def test_static_range_saturates_below_initial_gradient(self, R0, seed):
        # the first innovation is the whole gradient, far outside the
        # ball, so the run clips from its first step and must not overflow
        p = make_quadratic(20, 100.0, seed=seed)
        assert np.linalg.norm(p.eval_grad(p.x0())) > R0
        T = 200
        trace = run("gd-static-quantized", p, scalar_spec(20, 4),
                    1 / (6 * p.L), R0, T)
        assert len(trace) == T + 1
        assert np.all(trace.R == R0)
        assert np.array_equal(trace.bits, 20 * 4 * np.arange(T + 1))
        assert trace.innov_norm[0] > R0

    def test_clip_lands_inside_the_ball(self):
        # scaling by R / ||v|| rounds above R for about a fifth of the
        # draws; the clip must pass the very test encode applies
        rng = np.random.default_rng(0)
        for _ in range(2000):
            v = rng.standard_normal(20) * rng.uniform(1.0, 10.0)
            R = float(rng.uniform(0.01, 1.0))
            nrm = math.sqrt(v.dot(v))
            out = optimize._onto_ball(v, nrm, R)
            assert math.sqrt(out.dot(out)) <= R
            assert np.all(np.abs(out - v * (R / nrm)) <= 1e-15 * R)
            encode(scalar_spec(20, 4), out, R)

    @pytest.mark.parametrize("loop_kind", ["aqgd", "naqgd"])
    def test_one_gradient_product_per_record(self, monkeypatch, loop_kind):
        calls = {"grad": 0}
        real_grad = QuadraticProblem.eval_grad

        def counted(self, x):
            calls["grad"] += 1
            return real_grad(self, x)

        def no_gap(self, x):
            raise AssertionError("the loop takes its gap from gap_and_grad")

        p = make_quadratic(5, 30.0, seed=2)
        R0 = np.linalg.norm(p.eval_grad(p.x0())) * 1.1 + 0.01
        eps = np.full(42, 0.01)
        oracle = PerturbedOracle(p, eps, seed=1) if loop_kind == "naqgd" else p
        monkeypatch.setattr(QuadraticProblem, "eval_grad", counted)
        monkeypatch.setattr(GradOracle, "f_gap", no_gap)
        trace = run(loop_kind, oracle, scalar_spec(5, 5), 1 / (6 * p.L), R0, 40,
                    eps_schedule=eps)
        assert len(trace) == 41
        assert calls["grad"] == 41

    def test_quadratic_gap_from_gradient_on_net_run(self, monkeypatch):
        # the gap 0.5 (x-x*)'g agrees with 0.5 r'Hr down to round-off
        seen = []
        real_grad = QuadraticProblem.eval_grad

        def recording(self, x):
            seen.append((self, np.array(x)))
            return real_grad(self, x)

        monkeypatch.setattr(QuadraticProblem, "eval_grad", recording)
        cfg = ExperimentConfig(problem="quadratic", d=3, kappa=10.0, quantizer="net",
                               T=1500, seed=4)
        trace, _ = run_experiment(cfg)
        # the set-up's R0 evaluation, then one per record
        assert len(seen) == cfg.T + 2
        p = seen[0][0]
        gaps = trace.f_gap
        assert np.all(gaps >= 0.0)
        ref = np.array([0.5 * (x - p.xstar).dot(p.H).dot(x - p.xstar)
                        for _, x in seen[1:]])
        deep = gaps > 1e-12 * gaps[0]
        assert deep.sum() > 100
        assert np.all(np.abs(gaps[deep] - ref[deep]) <= 1e-9 * ref[deep])

    def test_divergence_guard(self):
        p = make_quadratic(4, 10.0, seed=3)
        quant = scalar_spec(4, 8)
        R0 = np.linalg.norm(p.eval_grad(p.x0())) * 2
        with pytest.raises(Divergence):
            run("aqgd", p, quant, 50.0 / p.L, R0 * 1e6, 4000)

    def test_run_matches_manual_stepping(self):
        p = make_quadratic(6, 40.0, seed=4)
        quant = scalar_spec(6, 5)
        alpha = 1 / (6 * p.L)
        R0 = np.linalg.norm(p.eval_grad(p.x0()))
        trace = run("aqgd", p, quant, alpha, R0, 30)
        # reference loop: one side, no symmetry check
        x, g, R, sent = p.x0(), np.zeros(6), R0, 0
        for t in range(30):
            frame, ihat = encode(quant, p.eval_grad(x) - g, R)
            g = g + ihat
            x = x - alpha * g
            R = quant.gamma * R + alpha * p.L * math.sqrt(float(g @ g))
            sent += frame.bit_len
            assert trace.R[t + 1] == R
            assert trace.bits[t + 1] == sent
        assert p.f_gap(x) == trace.f_gap[-1]

    def test_worker_server_divergence_detected(self, monkeypatch):
        real = optimize.decode

        def skewed(spec, frame, R):
            out = real(spec, frame, R).copy()
            out[0] += 1.0
            return out

        monkeypatch.setattr(optimize, "decode", skewed)
        p = make_quadratic(3, 5.0, seed=1)
        R0 = np.linalg.norm(p.eval_grad(p.x0()))
        with pytest.raises(AssertionError, match="worker/server state diverged"):
            run("aqgd", p, scalar_spec(3, 6), 1 / (6 * p.L), R0, 3)

    def test_per_step_invariants_on_trace(self):
        p = make_quadratic(8, 60.0, seed=6)
        b = rate_threshold_b(8, p.kappa)
        quant = scalar_spec(8, b)
        alpha = 1 / (6 * p.L)
        R0 = np.linalg.norm(p.eval_grad(p.x0()))
        trace = run("aqgd", p, quant, alpha, R0, 400)
        gamma = quant.gamma
        for t in range(400):
            # innovation containment and quantization-error bound
            assert trace.innov_norm[t] <= trace.R[t]
            assert trace.e_norm[t] <= gamma * trace.R[t] + 1e-12
            # range-growth bound, using the recorded gradient norm
            lhs = trace.R[t + 1] ** 2
            rhs = 8 * gamma**2 * trace.R[t] ** 2 \
                + 2 * alpha**2 * p.L**2 * trace.grad_norm[t] ** 2
            assert lhs <= rhs + 1e-12
            # bit accounting
            assert trace.bits[t + 1] == (t + 1) * quant.frame_bits

    def test_csv_roundtrip_exact(self, tmp_path):
        p = make_quadratic(5, 25.0, seed=8)
        quant = scalar_spec(5, 4)
        trace = run("aqgd", p, quant, 1 / (6 * p.L),
                    np.linalg.norm(p.eval_grad(p.x0())), 50)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = RunTrace.from_csv(path)
        for name in ("f_gap", "grad_norm", "R", "V", "bits"):
            assert np.array_equal(getattr(trace, name), getattr(back, name))
        assert np.array_equal(trace.innov_norm, back.innov_norm,
                              equal_nan=True)
        assert np.array_equal(trace.e_norm, back.e_norm, equal_nan=True)


class TestRateThreshold:
    def test_one_dimensional_limit(self):
        assert rate_threshold_b(1, 1e15) == 2

    def test_examples(self):
        assert rate_threshold_b(4, 100.0) == 3
        assert rate_threshold_b(20, 100.0) == 4
        assert rate_threshold_b(50, 1000.0) == 5

    def test_monotonicity(self):
        for kappa in (2.0, 10.0, 100.0):
            bs = [rate_threshold_b(d, kappa) for d in range(1, 40)]
            assert bs == sorted(bs)
        for d in (1, 5, 30):
            bs = [rate_threshold_b(d, k) for k in (1.5, 3.0, 10.0, 1e6)]
            assert bs == sorted(bs, reverse=True)

    def test_kappa_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            rate_threshold_b(3, 1.0)


class TestPotential:
    def test_zero(self):
        assert potential(0.5, 0.0, 0.0) == 0.0

    def test_arithmetic(self):
        assert potential(1 / 6, 1.0, 3.0) == pytest.approx(2.5, abs=0)

    def test_noisy_initial_record(self):
        # lagged terms are zero at t=0, so V0 = z0
        assert potential(0.1, 7.0, 5.0, mode="naqgd",
                         prev_f_gap=0.0, prev_R=0.0) == 7.0


class TestBarEpsilonSq:
    def test_constant_schedule(self):
        eps = np.full(10, 0.3)
        for t in range(1, 10):
            assert bar_epsilon_sq(eps, t, 0.1, 1.0) \
                == pytest.approx(14 * 0.3**2, rel=1e-14)

    def test_initial_term(self):
        eps = np.array([0.5, 0.0])
        assert bar_epsilon_sq(eps, 0, 0.1, 1.0) == pytest.approx(6 * 0.25,
                                                                 rel=1e-14)

    def test_two_term_enumeration(self):
        # decay 0.9: max{0.9 * 6, 8} = 8
        eps = np.array([1.0, 0.0])
        assert bar_epsilon_sq(eps, 1, 0.3, 1.0) == pytest.approx(8.0, abs=0)

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            bar_epsilon_sq(np.ones(3), 1, 4.0, 1.0)


class TestDefaultAlpha:
    def test_exact_mode(self):
        p = make_quadratic(3, 5.0, seed=0)
        assert default_alpha(p) == pytest.approx(1 / (6 * p.L), rel=1e-15)
