import numpy as np
import pytest

from aqgd.problems import (PerturbedOracle, QuadraticProblem, SineBowl,
                           make_quadratic)
from reference import check_gradient_domination


class TestMakeQuadratic:
    def test_identity_when_kappa_one(self):
        p = make_quadratic(5, 1.0, seed=0)
        assert np.array_equal(p.H, np.eye(5))

    @pytest.mark.parametrize("d", [3, 5, 20])
    def test_matrix_and_vector_bit_identical_to_diagonal_product(self, d):
        # H = sym((Q * lam) Q') equals sym(Q diag(lam) Q') bit for bit,
        # and so does c = H x*
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            lam = np.exp(rng.uniform(0.0, np.log(100.0), size=d))
            lam.sort()
            lam[0], lam[-1] = 1.0, 100.0
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            H = Q @ np.diag(lam) @ Q.T
            H = 0.5 * (H + H.T)
            xstar = rng.standard_normal(d)
            xstar /= np.linalg.norm(xstar)
            p = make_quadratic(d, 100.0, seed=seed)
            assert np.array_equal(p.H, H)
            assert np.array_equal(p.c, H @ xstar)

    def test_exact_spectrum_endpoints(self):
        p = make_quadratic(2, 4.0, seed=1)
        eigs = np.linalg.eigvalsh(p.H)
        assert eigs == pytest.approx([1.0, 4.0], rel=1e-12)
        assert p.kappa == pytest.approx(4.0, rel=1e-12)

    def test_kappa_exact_high_dim(self):
        p = make_quadratic(30, 250.0, seed=2)
        assert p.kappa == pytest.approx(250.0, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        p = make_quadratic(6, 20.0, seed=3)
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(10):
            x = rng.standard_normal(6)
            g = p.eval_grad(x)
            fd = np.empty(6)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd[i] = (p.eval_f(x + e) - p.eval_f(x - e)) / (2 * h)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) <= 1e-7

    def test_stationary_at_minimizer(self):
        p = make_quadratic(7, 33.0, seed=5)
        assert np.linalg.norm(p.eval_grad(p.xstar)) <= 1e-10

    def test_gap_identity(self):
        p = make_quadratic(4, 9.0, seed=6)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(4)
            r = x - p.xstar
            assert p.f_gap(x) == pytest.approx(0.5 * r @ p.H @ r, rel=1e-12)
            assert p.eval_f(x) - p.f_star == pytest.approx(p.f_gap(x), rel=1e-9)

    def test_smoothness_witness(self):
        p = make_quadratic(5, 50.0, seed=8)
        rng = np.random.default_rng(9)
        for _ in range(10_000):
            x, y = rng.standard_normal((2, 5))
            lhs = np.linalg.norm(p.eval_grad(x) - p.eval_grad(y))
            assert lhs <= p.L * np.linalg.norm(x - y) * (1 + 1e-12)


class TestGradientDomination:
    def test_quadratic_all_pass(self):
        p = make_quadratic(4, 12.0, seed=0)
        assert check_gradient_domination(p, p.mu, samples=10_000) == 1.0

    def test_inflated_mu_fails(self):
        p = make_quadratic(4, 12.0, seed=0)
        assert check_gradient_domination(p, 2 * p.mu, samples=2000) < 1.0

    def test_trivial_at_minimizer(self):
        p = make_quadratic(3, 6.0, seed=1)
        frac = check_gradient_domination(p, p.mu, samples=5,
                                         sampler=lambda: p.xstar.copy())
        assert frac == 1.0


class TestSineBowl:
    def test_value_and_gradient(self):
        p = SineBowl(d=2)
        x = np.array([0.7, -1.1])
        expected = np.sum(x**2 + 3 * np.sin(x) ** 2)
        assert p.eval_f(x) == pytest.approx(expected, rel=1e-14)
        g = 2 * x + 3 * np.sin(2 * x)
        assert np.allclose(p.eval_grad(x), g, rtol=1e-14)

    def test_nonconvex(self):
        # f'' = 2 + 6 cos(2x) is negative near x = pi/2
        p = SineBowl(d=1)
        h = 1e-4
        x = np.array([np.pi / 2])
        curv = (p.eval_f(x + h) - 2 * p.eval_f(x) + p.eval_f(x - h)) / h**2
        assert curv < 0

    def test_smoothness_constant_certified_on_grid(self):
        # |f''| = |2 + 6 cos(2x)| <= 8 everywhere
        xs = np.linspace(-10, 10, 100_001)
        curv = np.abs(2 + 6 * np.cos(2 * xs))
        assert curv.max() <= 8.0 + 1e-12

    def test_domination_constant_certified_on_grid(self):
        # separable, so a dense 1-d scan certifies mu for all dimensions
        p = SineBowl(d=1)
        xs = np.linspace(-12, 12, 200_001)
        g2 = (2 * xs + 3 * np.sin(2 * xs)) ** 2
        gap = xs**2 + 3 * np.sin(xs) ** 2
        assert np.all(g2 >= 2 * p.mu * gap - 1e-12)

    def test_domination_sampled(self):
        p = SineBowl(d=3)
        assert check_gradient_domination(p, p.mu, samples=5000) == 1.0


class TestPerturbedOracle:
    def test_noise_magnitude_exact(self):
        p = make_quadratic(5, 10.0, seed=0)
        eps = np.array([0.5, 0.25, 0.125])
        orc = PerturbedOracle(p, eps, seed=3)
        x = np.ones(5)
        for t in range(3):
            diff = orc.eval_noisy_grad(x, t, p.eval_grad(x)) - p.eval_grad(x)
            assert np.linalg.norm(diff) == pytest.approx(eps[t], rel=1e-12)

    def test_exact_passthrough(self):
        p = make_quadratic(4, 7.0, seed=1)
        orc = PerturbedOracle(p, np.ones(4), seed=0)
        x = np.full(4, 0.3)
        assert orc.eval_f(x) == p.eval_f(x)
        assert np.array_equal(orc.eval_grad(x), p.eval_grad(x))
