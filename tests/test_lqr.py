import re
import warnings

import numpy as np
import pytest

import aqgd.linalg
import aqgd.lqr
from aqgd.errors import Unstabilizing
from aqgd.linalg import spectral_radius
from aqgd.lqr import (EstimatorConfig, LqrConstants, LqrOracle, LtiSystem,
                      calibrate_noise, constants_for, dare_optimum,
                      estimate_gradient, estimate_local_smoothness, lqr_cost,
                      lqr_grad, random_stable_instance)
from aqgd.optimize import run
from aqgd.quantize import scalar_spec
from reference import rollout


def vec(K):
    """The column-major vec(K) through which LqrOracle reads a gain."""
    return np.asarray(K, dtype=float).reshape(-1, order="F")


def scalar_system():
    return LtiSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])


def zero_noise_scalar():
    return LtiSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]], [[0.0]])


class TestLtiSystem:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LtiSystem(np.eye(2), np.ones((2, 1)), np.eye(3), np.eye(1), np.eye(2))

    def test_indefinite_cost_rejected(self):
        with pytest.raises(ValueError):
            LtiSystem(np.eye(2), np.ones((2, 1)), -np.eye(2), np.eye(1),
                      np.eye(2))

    def test_asymmetric_rejected(self):
        Q = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            LtiSystem(np.eye(2), np.ones((2, 1)), Q, np.eye(1), np.eye(2))

    def test_zero_noise_covariance_allowed(self):
        zero_noise_scalar()

    def test_file_roundtrip(self, tmp_path):
        sys = random_stable_instance(4, 2, seed=5)
        path = tmp_path / "sys.txt"
        sys.save(path)
        back = LtiSystem.load(path)
        for name in ("A", "B", "Q", "R", "Sigma_w"):
            assert np.array_equal(getattr(sys, name), getattr(back, name))
        header = path.read_text().splitlines()[0]
        assert header == "4 2"


class TestCost:
    def test_scalar_closed_form(self):
        assert lqr_cost(scalar_system(), [[0.0]]) \
            == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_memoryless_system(self):
        sys = LtiSystem(np.zeros((2, 2)), np.ones((2, 1)), np.eye(2),
                        np.eye(1), np.eye(2))
        assert lqr_cost(sys, np.zeros((1, 2))) == pytest.approx(2.0, rel=1e-12)

    def test_unstabilizing_gain_rejected(self):
        sys = LtiSystem([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(Unstabilizing):
            lqr_cost(sys, [[1.01]])

    def test_duality_on_random_instances(self):
        # cross-check inside lqr_cost raises if the two closed forms differ
        rng = np.random.default_rng(0)
        for seed in range(10):
            sys = random_stable_instance(4, 2, seed=seed)
            K = 0.01 * rng.standard_normal((2, 4))
            lqr_cost(sys, K)


class TestGradient:
    def test_scalar_closed_form(self):
        g = lqr_grad(scalar_system(), [[0.0]])
        assert g[0, 0] == pytest.approx(16.0 / 9.0, abs=1e-10)

    def test_zero_dynamics_zero_gradient(self):
        sys = LtiSystem(np.zeros((2, 2)), np.ones((2, 1)), np.eye(2),
                        np.eye(1), np.eye(2))
        assert np.allclose(lqr_grad(sys, np.zeros((1, 2))), 0, atol=1e-14)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for seed in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 4))
            sys = random_stable_instance(n, m, seed=seed)
            K = 0.02 * rng.standard_normal((m, n))
            g = lqr_grad(sys, K)
            fd = np.empty_like(g)
            for i in range(m):
                for j in range(n):
                    E = np.zeros((m, n))
                    E[i, j] = h
                    fd[i, j] = (lqr_cost(sys, K + E) - lqr_cost(sys, K - E)) \
                        / (2 * h)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-5


class TestConstants:
    def test_worked_example(self):
        c = LqrConstants(1.0, 1.0, 1.0, 1.0, 4.0, 4)
        assert c.zeta == pytest.approx(2.0, abs=0)
        assert c.eta == pytest.approx(0.875, abs=0)
        assert c.mu == pytest.approx(0.5, abs=0)
        assert c.D == pytest.approx(0.125, abs=0)
        assert c.G == pytest.approx(8 * np.sqrt(20), rel=1e-12)
        assert c.L == pytest.approx(229376.0, abs=0)

    def test_zeta_at_least_one(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            sys = random_stable_instance(3, 2, seed=seed)
            c = constants_for(sys)
            assert c.zeta >= 1.0

    def test_beta1_above_one_warns(self):
        with pytest.warns(UserWarning):
            LqrConstants(1.0, 5.0, 1.0, 1.0, 4.0, 4)

    def test_non_positive_argument_rejected(self):
        names = ("beta0", "beta1", "sigma_w_sq", "psi", "Jbar")
        for i, name in enumerate(names):
            for bad in (0.0, -1.0):
                args = [1.0, 1.0, 1.0, 1.0, 4.0]
                args[i] = bad
                with pytest.raises(ValueError, match=f"{name} must be positive"):
                    LqrConstants(*args, 4)

    def test_value_matrix_norm_bound(self):
        # ||P_K|| <= 2 beta1 zeta^4 / (1 - eta) over the sublevel set
        sys = random_stable_instance(3, 2, seed=7)
        c = constants_for(sys)
        from aqgd.linalg import solve_discrete_lyapunov
        rng = np.random.default_rng(8)
        bound = 2 * c.beta1 * c.zeta**4 / (1 - c.eta)
        for _ in range(20):
            K = 0.05 * rng.standard_normal((2, 3))
            if lqr_cost(sys, K) > c.Jbar:
                continue
            M = sys.A + sys.B @ K
            P = solve_discrete_lyapunov(M, sys.Q + K.T @ sys.R @ K).P
            assert np.linalg.norm(P, 2) <= bound

    def test_closed_loop_decay_envelope(self):
        # ||(A+BK)^k|| <= zeta eta^k for K in the sublevel set
        sys = random_stable_instance(4, 2, seed=9)
        c = constants_for(sys)
        rng = np.random.default_rng(10)
        tried = 0
        for _ in range(40):
            K = 0.02 * rng.standard_normal((2, 4))
            if lqr_cost(sys, K) > c.Jbar:
                continue
            tried += 1
            M = np.eye(4)
            Acl = sys.A + sys.B @ K
            for k in range(51):
                assert np.linalg.norm(M, 2) <= c.zeta * c.eta**k + 1e-12
                M = Acl @ M
        assert tried >= 5


class TestRollout:
    def test_zero_noise_stays_at_origin(self):
        states, inputs, cost = rollout(zero_noise_scalar(), [[0.3]], 50,
                                       np.random.default_rng(0))
        assert np.all(states == 0)
        assert np.all(inputs == 0)
        assert cost == 0.0

    def test_single_step_structure(self):
        rng = np.random.default_rng(1)
        states, inputs, cost = rollout(scalar_system(), [[0.0]], 1, rng)
        assert cost == 0.0
        assert states.shape == (2, 1)
        assert states[1, 0] != 0.0  # x1 = w0

    def test_blowup_guard(self):
        sys = LtiSystem([[2.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(Unstabilizing):
            rollout(sys, [[0.0]], 200, np.random.default_rng(2))

    def test_average_cost_consistent_with_lyapunov(self):
        # finite-horizon average cost vs. the steady-state cost; the
        # O(1/N) start-up transient is kept far below the CI width by
        # using long horizons relative to the rollout count
        sys = scalar_system()
        K = np.array([[-0.2]])
        J = lqr_cost(sys, K)
        M, N = 400, 3000
        vals = np.empty(M)
        for i in range(M):
            _, _, cost = rollout(sys, K, N, np.random.default_rng(1000 + i))
            vals[i] = cost / N
        se = vals.std(ddof=1) / np.sqrt(M)
        assert abs(vals.mean() - J) <= 3 * se

    def test_state_bound_from_decay_envelope(self):
        # ||x_k|| <= zeta/(1-eta) * max_s ||w_s|| on every rollout
        sys = random_stable_instance(3, 2, seed=12)
        c = constants_for(sys)
        K = np.zeros((2, 3))
        for i in range(10):
            states, inputs, _ = rollout(sys, K, 100, np.random.default_rng(i))
            w = states[1:] - states[:-1] @ (sys.A + sys.B @ K).T
            wmax = np.linalg.norm(w, axis=1).max()
            xmax = np.linalg.norm(states, axis=1).max()
            assert xmax <= c.zeta / (1 - c.eta) * wmax


class TestEstimator:
    def test_zero_noise_gives_exact_zero(self):
        cfg = EstimatorConfig(ell=16, N=20, r=0.05, seed=0)
        out = estimate_gradient(zero_noise_scalar(), np.array([[0.0]]), cfg)
        assert np.array_equal(out, np.zeros((1, 1)))

    def test_output_shape_and_unit_perturbations(self):
        sys = random_stable_instance(3, 2, seed=13)
        cfg = EstimatorConfig(ell=8, N=30, r=0.1, seed=14)
        out = estimate_gradient(sys, np.zeros((2, 3)), cfg, t=5)
        assert out.shape == (2, 3)
        # reconstruct the perturbation streams: unit Frobenius norm each
        for i in range(cfg.ell):
            g = np.random.default_rng(np.random.SeedSequence([cfg.seed, 5, i]))
            U = g.standard_normal((2, 3))
            assert np.linalg.norm(U / np.linalg.norm(U)) \
                == pytest.approx(1.0, rel=1e-12)

    def test_deterministic(self):
        sys = random_stable_instance(2, 1, seed=15)
        cfg = EstimatorConfig(ell=32, N=40, r=0.1, seed=16)
        a = estimate_gradient(sys, np.zeros((1, 2)), cfg, t=3)
        b = estimate_gradient(sys, np.zeros((1, 2)), cfg, t=3)
        assert np.array_equal(a, b)
        c = estimate_gradient(sys, np.zeros((1, 2)), cfg, t=4)
        assert not np.array_equal(a, c)

    def test_matches_smoothed_gradient(self):
        # scalar perturbations are +/-1, so the smoothed gradient is the
        # central difference of the exact cost at radius r
        sys = scalar_system()
        K = np.array([[0.0]])
        r = 0.05
        smoothed = (lqr_cost(sys, K + r) - lqr_cost(sys, K - r)) / (2 * r)
        ests = np.array([
            estimate_gradient(sys, K, EstimatorConfig(ell=2000, N=150, r=r,
                                                      seed=17), t=j)[0, 0]
            for j in range(12)
        ])
        se = ests.std(ddof=1) / np.sqrt(len(ests))
        assert abs(ests.mean() - smoothed) <= 3 * se


def reference_estimate(sys, K, cfg, t=0):
    """The estimator as a per-step loop over the ell trajectories, checking
    the state norm after every step; returns (estimate, U, W) with W[i]
    the noise of trajectory i."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n, m = sys.n, sys.m
    ell, N, r = cfg.ell, cfg.N, cfg.r
    C = aqgd.lqr._noise_chol(sys)
    U = np.empty((ell, m, n))
    W = np.zeros((ell, N, n)) if C is not None else None
    for i in range(ell):
        g = np.random.default_rng(np.random.SeedSequence([cfg.seed, t, i]))
        Ui = g.standard_normal((m, n))
        U[i] = Ui / np.linalg.norm(Ui)
        if C is not None:
            W[i] = g.standard_normal((N, n)) @ C.T
    Kp = K[None, :, :] + r * U
    M = sys.A[None, :, :] + np.einsum("ij,tjk->tik", sys.B, Kp)
    Qeff = sys.Q[None, :, :] + np.einsum("tji,jk,tkl->til", Kp, sys.R, Kp)
    x = np.zeros((ell, n))
    costs = np.zeros(ell)
    for k in range(N):
        costs += np.einsum("ti,tij,tj->t", x, Qeff, x)
        x = np.einsum("tij,tj->ti", M, x)
        if W is not None:
            x = x + W[:, k, :]
        if np.max(np.einsum("ti,ti->t", x, x)) > 1e24:
            raise Unstabilizing("state norm exceeded 1e+12 during estimation")
    scale = m * n / (r * N * ell)
    return scale * np.einsum("t,tij->ij", costs, U), U, W


def correlated_noise_instance():
    # the seed-3 instance with a Sigma_w that is not diagonal
    base = random_stable_instance(5, 3, seed=3)
    L = np.random.default_rng(4).standard_normal((5, 5))
    return LtiSystem(base.A, base.B, base.Q, base.R, L @ L.T + 0.1 * np.eye(5))


BLOWUP_MESSAGE = re.escape("state norm exceeded 1e+12 during estimation")


class TestEstimatorKernel:
    @pytest.mark.parametrize("gain", ["zero", "half-optimal"])
    @pytest.mark.parametrize("system", ["seed-3", "correlated-noise"])
    def test_matches_reference_loop(self, system, gain):
        sys = (random_stable_instance(5, 3, seed=3) if system == "seed-3"
               else correlated_noise_instance())
        K = np.zeros((3, 5)) if gain == "zero" else 0.5 * dare_optimum(sys)[1]
        cfg = EstimatorConfig(ell=12, N=40, r=0.1, seed=2)
        want, U_ref, W_ref = reference_estimate(sys, K, cfg, t=7)
        assert np.any(want != 0)
        got = estimate_gradient(sys, K, cfg, t=7)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        U, W = aqgd.lqr._perturbations(sys, cfg, 7)
        np.testing.assert_allclose(U, U_ref, rtol=1e-15, atol=0)
        assert np.array_equal(W.transpose(1, 0, 2), W_ref)

    def test_noise_free_gain_shape_still_checked(self):
        sys = LtiSystem(0.5 * np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(1),
                        np.zeros((2, 2)))
        cfg = EstimatorConfig(ell=4, N=10, r=0.1)
        with pytest.raises(ValueError):
            estimate_gradient(sys, np.zeros((1, 3)), cfg)

    def test_unstable_gain_raises_without_warning(self):
        cfg = EstimatorConfig(ell=4, N=200, r=0.05, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Unstabilizing, match=BLOWUP_MESSAGE):
                estimate_gradient(scalar_system(), [[1.0]], cfg)

    def test_overflowing_states_raise(self):
        # x_2 ~ 1e200, x_3 overflows to inf and later states are NaN
        sys = random_stable_instance(5, 3, seed=3)
        cfg = EstimatorConfig(ell=4, N=20, r=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Unstabilizing, match=BLOWUP_MESSAGE):
                estimate_gradient(sys, np.full((3, 5), 1e200), cfg)
            with pytest.raises(Unstabilizing, match=BLOWUP_MESSAGE):
                reference_estimate(sys, np.full((3, 5), 1e200), cfg)

    @pytest.mark.parametrize("scale", [1e200, 0.1])
    def test_one_step_estimate_is_zero(self, scale):
        # N = 1 sums only the stage cost at x_0 = 0, even where Q + K'RK
        # overflows at the 1e200 gain
        sys = random_stable_instance(3, 2, seed=3)
        cfg = EstimatorConfig(ell=4, N=1, r=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimate_gradient(sys, np.full((2, 3), scale), cfg)
        assert np.array_equal(got, np.zeros((2, 3)))

    def test_last_state_is_checked(self):
        # the shortest horizon on which the reference loop raises: there
        # only x_N, which enters no cost, is past the bound
        sys, K = scalar_system(), [[1.0]]
        cfgs = [EstimatorConfig(ell=4, N=N, r=0.05, seed=1) for N in range(1, 200)]
        for N, cfg in enumerate(cfgs, start=1):
            try:
                reference_estimate(sys, K, cfg)
            except Unstabilizing:
                break
        else:
            pytest.fail("the reference loop never raised")
        assert N > 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(estimate_gradient(sys, K, cfgs[N - 2]),
                                       reference_estimate(sys, K, cfgs[N - 2])[0],
                                       rtol=1e-12, atol=0)
            with pytest.raises(Unstabilizing, match=BLOWUP_MESSAGE):
                estimate_gradient(sys, K, cfgs[N - 1])


class TestRandomInstance:
    def test_spectral_radius_hits_target(self):
        for seed in range(10):
            sys = random_stable_instance(5, 3, seed=seed, rho_target=0.8)
            assert spectral_radius(sys.A) == pytest.approx(0.8, abs=1e-9)

    def test_zero_gain_stabilizes(self):
        for seed in range(10):
            sys = random_stable_instance(5, 3, seed=seed)
            lqr_cost(sys, np.zeros((3, 5)))  # must not raise

    def test_seed_determinism(self):
        a = random_stable_instance(4, 2, seed=3)
        b = random_stable_instance(4, 2, seed=3)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)

    def test_default_cost_matrices(self):
        sys = random_stable_instance(5, 3, seed=0)
        assert np.array_equal(sys.Q, 5 * np.eye(5))
        assert np.array_equal(sys.R, 5 * np.eye(3))
        assert np.array_equal(sys.Sigma_w, np.eye(5))


class TestOracle:
    def test_exact_mode_matches_analytic_gradient(self):
        sys = random_stable_instance(3, 2, seed=20)
        orc = LqrOracle(sys)
        rng = np.random.default_rng(20)
        for scale in (0.0, 0.01, 0.05, 0.1):
            x = orc.x0() + scale * rng.standard_normal(orc.d)
            K = x.reshape((2, 3), order="F").copy()
            assert np.array_equal(orc.eval_grad(x), vec(lqr_grad(sys, K)))
            assert orc.eval_f(x) == lqr_cost(sys, K)
        # without an EstimatorConfig there is no noisy gradient
        with pytest.raises(NotImplementedError):
            orc.eval_noisy_grad(orc.x0(), 0, orc.eval_grad(orc.x0()))

    def test_vec_roundtrip_and_isometry(self):
        # the oracle reads x as the gain K with vec(K) = x, and its
        # gradient folds back into lqr_grad's matrix with the same norm
        sys = random_stable_instance(5, 3, seed=11)
        orc = LqrOracle(sys)
        K = 0.01 * np.random.default_rng(11).standard_normal((3, 5))
        grad = orc.eval_grad(vec(K))
        G = lqr_grad(sys, K)
        assert orc.eval_f(vec(K)) == lqr_cost(sys, K)
        assert np.array_equal(grad.reshape((3, 5), order="F"), G)
        assert np.linalg.norm(grad) == np.linalg.norm(G)

    def test_column_major_layout(self):
        sys = random_stable_instance(2, 2, seed=12)
        orc = LqrOracle(sys)
        K = 0.01 * np.array([[1.0, 3.0], [2.0, 4.0]])
        x = 0.01 * np.array([1.0, 2.0, 3.0, 4.0])
        assert orc.eval_f(x) == lqr_cost(sys, K)
        G = lqr_grad(sys, K)
        assert np.array_equal(orc.eval_grad(x),
                              [G[0, 0], G[1, 0], G[0, 1], G[1, 1]])

    def test_one_closed_loop_solve_per_iterate(self, monkeypatch):
        sys = random_stable_instance(4, 2, seed=23)
        orc = LqrOracle(sys)
        calls = {"lyapunov": 0, "eig": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(aqgd.lqr, "solve_discrete_lyapunov",
                            counted("lyapunov", aqgd.lqr.solve_discrete_lyapunov))
        monkeypatch.setattr(aqgd.linalg, "spectral_radius",
                            counted("eig", aqgd.linalg.spectral_radius))
        monkeypatch.setattr(aqgd.lqr, "spectral_radius",
                            counted("eig", aqgd.lqr.spectral_radius))
        x = orc.x0() + 0.01
        gap, grad = orc.gap_and_grad(x)
        assert calls == {"lyapunov": 2, "eig": 0}
        K = x.reshape((2, 4), order="F").copy()
        assert gap == lqr_cost(sys, K) - orc.f_star
        assert np.array_equal(grad, vec(lqr_grad(sys, K)))
        # nothing is kept between calls: a repeat solves again
        calls.update(lyapunov=0)
        orc.gap_and_grad(x)
        assert calls == {"lyapunov": 2, "eig": 0}

    def test_run_solves_once_per_record(self, monkeypatch):
        sys = random_stable_instance(4, 2, seed=23)
        orc = LqrOracle(sys)
        # the local smoothness, as the harness sets it
        orc.L = estimate_local_smoothness(sys, np.zeros((2, 4)), 0.5 * min(orc.D, 1.0))
        R0 = 1.5 * float(np.linalg.norm(orc.eval_grad(orc.x0())))
        calls = {"lyapunov": 0}
        real = aqgd.lqr.solve_discrete_lyapunov

        def counted(*args, **kwargs):
            calls["lyapunov"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(aqgd.lqr, "solve_discrete_lyapunov", counted)
        T = 12
        trace = run("aqgd", orc, scalar_spec(orc.d, 8), 1 / (6 * orc.L), R0, T)
        assert len(trace) == T + 1
        assert calls["lyapunov"] == 2 * (T + 1)

    def test_f_star_from_riccati(self):
        sys = random_stable_instance(3, 2, seed=21)
        orc = LqrOracle(sys)
        _, Kstar, Jstar = dare_optimum(sys)
        assert orc.f_star == Jstar
        assert orc.f_gap(vec(Kstar)) == pytest.approx(0.0, abs=1e-8)

    def test_unstabilizing_surfaces(self):
        sys = LtiSystem([[0.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
        orc = LqrOracle(sys)
        with pytest.raises(Unstabilizing, match="spectral radius 1.5 >= 1"):
            orc.eval_f(np.array([1.5]))
        with pytest.raises(Unstabilizing, match="spectral radius 1 >= 1"):
            orc.eval_grad(np.array([1.0]))
        # Q + K'RK overflows before the closed loop is found unstable
        with np.errstate(over="ignore"), \
                pytest.raises(Unstabilizing, match="spectral radius 1e\\+200 >= 1"):
            orc.eval_f(np.array([1e200]))

    def test_modelfree_noisy_gradient_shape(self):
        sys = random_stable_instance(3, 2, seed=22)
        cfg = EstimatorConfig(ell=8, N=30, r=0.1, seed=1)
        orc = LqrOracle(sys, cfg)
        g = orc.eval_noisy_grad(orc.x0(), 0, orc.eval_grad(orc.x0()))
        assert g.shape == (6,)

    def test_truncation_bias_within_decay_bound(self):
        sys = random_stable_instance(3, 2, seed=23)
        c = constants_for(sys)
        K = np.zeros((2, 3))
        J = lqr_cost(sys, K)
        N = 500
        states, _, cost = rollout(sys, K, N, np.random.default_rng(30))
        w = states[1:] - states[:-1] @ (sys.A + sys.B @ K).T
        wmax2 = (np.linalg.norm(w, axis=1) ** 2).max()
        bound = 2 * c.beta1 * c.zeta**6 / (1 - c.eta) ** 3 * wmax2
        assert abs(cost / N - J) <= bound


class TestCalibration:
    def test_local_smoothness_upper_bounds_observed_ratios(self):
        sys = random_stable_instance(3, 2, seed=24)
        K0 = np.zeros((2, 3))
        L_hat = estimate_local_smoothness(sys, K0, radius=0.05, seed=0)
        rng = np.random.default_rng(1)
        g0 = lqr_grad(sys, K0)
        for _ in range(10):
            d = rng.standard_normal((2, 3))
            d *= 0.01 / np.linalg.norm(d)
            ratio = np.linalg.norm(lqr_grad(sys, K0 + d) - g0) / 0.01
            assert ratio <= L_hat

    def test_noise_calibration_bounds_future_calls(self):
        sys = random_stable_instance(2, 1, seed=25)
        K0 = np.zeros((1, 2))
        cfg = EstimatorConfig(ell=64, N=60, r=0.1, seed=2)
        eps = calibrate_noise(sys, K0, cfg, calls=8)
        g = lqr_grad(sys, K0)
        hits = sum(
            np.linalg.norm(estimate_gradient(sys, K0, cfg, t=t) - g) <= eps
            for t in range(10)
        )
        assert hits >= 8  # the safety factor makes exceedances rare
