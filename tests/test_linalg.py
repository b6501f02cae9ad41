import warnings

import numpy as np
import pytest

import aqgd.linalg
from aqgd.errors import NoConvergence, NotSchurStable
from aqgd.linalg import (STABILITY_MARGIN, solve_dare, solve_discrete_lyapunov,
                         spectral_radius)


def _with_radius(rho, kind):
    """A matrix of spectral radius rho: scalar, scaled rotation (complex
    pair) or upper-triangular with an off-diagonal of 10 (non-normal)."""
    if kind == "scalar":
        return np.array([[rho]])
    if kind == "rotation":
        th = 0.7
        return rho * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return np.array([[rho, 10.0], [0.0, 0.5 * rho]])


def _kron_solution(M, W, transpose):
    """vec(X) = (I - M'(x)M')^{-1} vec(W), column-major vec; the twin
    equation X = W + M X M' uses M (x) M."""
    F = np.kron(M, M) if transpose else np.kron(M.T, M.T)
    n = M.shape[0]
    x = np.linalg.solve(np.eye(n * n) - F, W.reshape(-1, order="F"))
    return x.reshape((n, n), order="F")


class TestSpectralRadius:
    def test_scalar(self):
        assert spectral_radius(np.array([[0.5]])) == pytest.approx(0.5)

    def test_rotation(self):
        th = 0.3
        M = 0.9 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert spectral_radius(M) == pytest.approx(0.9, rel=1e-12)


class TestLyapunov:
    def test_scalar_closed_form(self):
        # x = 1 + 0.25 x  =>  x = 4/3
        sol = solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
        assert sol.P[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_residual_small_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n))
            M *= 0.9 / spectral_radius(M)
            W = rng.standard_normal((n, n))
            W = W @ W.T + np.eye(n)
            X = solve_discrete_lyapunov(M, W).P
            assert np.allclose(X - W - M.T @ X @ M, 0, atol=1e-8)

    def test_transpose_form(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((3, 3))
        M *= 0.8 / spectral_radius(M)
        W = np.eye(3)
        X = solve_discrete_lyapunov(M, W, transpose=True).P
        assert np.allclose(X - W - M @ X @ M.T, 0, atol=1e-9)

    def test_unstable_raises(self):
        with pytest.raises(NotSchurStable):
            solve_discrete_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_marginally_stable_raises(self):
        with pytest.raises(NotSchurStable):
            solve_discrete_lyapunov(np.array([[1.0 - 1e-12]]), np.array([[1.0]]))

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("kind", ["scalar", "rotation", "nonnormal"])
    @pytest.mark.parametrize("rho", [0.3, 0.9, 0.999, 1 - 1e-9, 1.0, 1.3, 10.0])
    def test_stability_verdict(self, rho, kind, transpose):
        # NotSchurStable exactly when rho >= 1 - margin, with no overflow
        # warning on the way; stable solutions match the Kronecker solve
        M = _with_radius(rho, kind)
        W = np.eye(M.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if rho >= 1.0 - STABILITY_MARGIN:
                with pytest.raises(NotSchurStable):
                    solve_discrete_lyapunov(M, W, transpose=transpose)
                return
            X = solve_discrete_lyapunov(M, W, transpose=transpose).P
        ref = _kron_solution(M, W, transpose)
        assert np.allclose(X, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("transpose", [False, True])
    def test_strongly_non_normal_stable(self, transpose):
        # ||M^k|| peaks near 1e3 before decaying; rho = 0.5
        M = np.array([[0.5, 1e3], [0.0, 0.5]])
        W = np.eye(2)
        X = solve_discrete_lyapunov(M, W, transpose=transpose).P
        ref = _kron_solution(M, W, transpose)
        assert np.allclose(X, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())

    @pytest.mark.parametrize("transpose", [False, True])
    def test_residual_check_scales_with_solution(self, transpose, monkeypatch):
        # X reaches 1e7..1e9, so its round-off residual exceeds an absolute
        # 1e-9; correct solutions must pass and truncated ones must not
        W = np.eye(2)
        for rho in (0.9, 0.999):
            M = np.array([[rho, 1e3], [0.0, 0.5 * rho]])
            X = solve_discrete_lyapunov(M, W, transpose=transpose).P
            ref = _kron_solution(M, W, transpose)
            assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()
        monkeypatch.setattr(aqgd.linalg, "LYAPUNOV_MAX_DOUBLINGS", 1)
        with pytest.raises(NoConvergence):
            solve_discrete_lyapunov(np.array([[0.99, 1e3], [0.0, 0.495]]), W,
                                    transpose=transpose)

    def test_normal_stable_needs_no_eigenvalues(self, monkeypatch):
        calls = []
        monkeypatch.setattr(aqgd.linalg, "spectral_radius",
                            lambda M: calls.append(M) or spectral_radius(M))
        for rho in (0.3, 0.9, 0.999):
            for transpose in (False, True):
                solve_discrete_lyapunov(_with_radius(rho, "rotation"), np.eye(2),
                                        transpose=transpose)
        assert calls == []


class TestDare:
    def test_scalar_closed_form(self):
        # p = 1 + p/4 - p^2/(4(1+p))  =>  p = (3 + sqrt(33)) / 6 - ... fixed point
        P, K, J = solve_dare(np.array([[0.5]]), np.array([[1.0]]),
                             np.eye(1), np.eye(1), Sigma_w=np.eye(1))
        p = P[0, 0]
        # verify the scalar Riccati equation directly
        assert p == pytest.approx(1.0 + 0.25 * p - 0.25 * p * p / (1.0 + p),
                                  rel=1e-10)
        assert p == pytest.approx(1.1327822185372833, rel=1e-9)
        assert K[0, 0] == pytest.approx(-0.26556443707463345, rel=1e-9)
        assert J == pytest.approx(p, rel=1e-12)

    def test_riccati_residual_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n, m = 4, 2
            A = rng.standard_normal((n, n))
            A *= 0.9 / spectral_radius(A)
            B = rng.standard_normal((n, m))
            Q = np.eye(n)
            R = np.eye(m)
            P, K, _ = solve_dare(A, B, Q, R)
            res = A.T @ P @ A - P + Q \
                - A.T @ P @ B @ np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
            assert np.allclose(res, 0, atol=1e-8)
            assert spectral_radius(A + B @ K) < 1.0

    def test_optimal_among_perturbations(self):
        rng = np.random.default_rng(4)
        A = np.array([[0.7, 0.2], [0.0, 0.5]])
        B = np.array([[1.0], [0.3]])
        P, K, J = solve_dare(A, B, np.eye(2), np.eye(1), Sigma_w=np.eye(2))
        from aqgd.lqr import LtiSystem, lqr_cost
        sys = LtiSystem(A, B, np.eye(2), np.eye(1), np.eye(2))
        for _ in range(10):
            dK = 0.01 * rng.standard_normal(K.shape)
            assert lqr_cost(sys, K + dK) >= J - 1e-10
