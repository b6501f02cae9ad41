"""Synthetic test problems: quadratics with exact condition numbers, a
gradient-dominated sine bowl, and a wrapper injecting bounded gradient
perturbations into any exact oracle."""

from __future__ import annotations

import numpy as np

from .optimize import GradOracle


class QuadraticProblem(GradOracle):
    """f(x) = 0.5 x'Hx - c'x with H symmetric positive definite."""

    def __init__(self, H: np.ndarray, c: np.ndarray):
        H = np.asarray(H, dtype=float)
        self.H = 0.5 * (H + H.T)
        self.c = np.asarray(c, dtype=float)
        eigs = np.linalg.eigvalsh(self.H)
        if eigs[0] <= 0:
            raise ValueError("H must be positive definite")
        self.d = H.shape[0]
        self.mu = float(eigs[0])
        self.L = float(eigs[-1])
        self.G = None
        self.xstar = np.linalg.solve(self.H, self.c)
        self.f_star = -0.5 * float(self.c @ self.xstar)

    @property
    def kappa(self) -> float:
        return self.L / self.mu

    def eval_f(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ self.H @ x) - float(self.c @ x)

    def eval_grad(self, x) -> np.ndarray:
        return self.H @ np.asarray(x, dtype=float) - self.c

    def f_gap(self, x) -> float:
        # the quadratic identity 0.5 (x-x*)'H(x-x*): exact even when the
        # gap is many orders below f* in magnitude
        r = np.asarray(x, dtype=float) - self.xstar
        return 0.5 * float(r @ self.H @ r)


def make_quadratic(d: int, kappa: float, seed: int = 0) -> QuadraticProblem:
    """Random quadratic with eigenvalues log-uniform on [1, kappa].

    The extreme eigenvalues are pinned to 1 and kappa exactly, the basis
    is the Q factor of a seeded Gaussian matrix, and the minimizer is a
    random unit vector.
    """
    rng = np.random.default_rng(seed)
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    if kappa == 1.0:
        H = np.eye(d)
    elif d == 1:
        H = np.array([[float(kappa)]])
    else:
        lam = np.exp(rng.uniform(0.0, np.log(kappa), size=d))
        lam.sort()
        lam[0], lam[-1] = 1.0, float(kappa)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        H = Q @ np.diag(lam) @ Q.T
        H = 0.5 * (H + H.T)
    xstar = rng.standard_normal(d)
    xstar /= max(np.linalg.norm(xstar), 1e-12)
    return QuadraticProblem(H, H @ xstar)


class SineBowl(GradOracle):
    """f(x) = sum_i (x_i^2 + 3 sin^2 x_i): non-convex but gradient
    dominated, with smoothness L = 8 and domination constant mu = 1/8
    certified by a dense grid scan (see the accompanying tests)."""

    def __init__(self, d: int = 2):
        self.d = d
        self.L = 8.0
        self.mu = 1.0 / 8.0
        self.f_star = 0.0
        self.G = None

    def x0(self) -> np.ndarray:
        return np.full(self.d, 2.0)

    def eval_f(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.sum(x * x + 3.0 * np.sin(x) ** 2))

    def eval_grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 2.0 * x + 3.0 * np.sin(2.0 * x)


def check_gradient_domination(oracle: GradOracle, mu: float,
                              samples: int = 10_000, sampler=None,
                              seed: int = 0) -> float:
    """Fraction of sampled points satisfying
    ||grad f(x)||^2 >= 2 mu (f(x) - f*)."""
    rng = np.random.default_rng(seed)
    if sampler is None:
        sampler = lambda: rng.standard_normal(oracle.d) * 3.0
    passed = 0
    for _ in range(samples):
        x = sampler()
        g2 = float(np.sum(oracle.eval_grad(x) ** 2))
        gap = oracle.eval_f(x) - oracle.f_star
        if g2 >= 2.0 * mu * gap - 1e-12:
            passed += 1
    return passed / samples


class PerturbedOracle(GradOracle):
    """Wraps an exact oracle; noisy gradients are grad + eps_t * u with a
    fixed seeded unit direction u, so the noise magnitude exactly matches
    a prescribed schedule."""

    def __init__(self, base: GradOracle, eps_schedule, seed: int = 0):
        self.base = base
        self.eps = np.asarray(eps_schedule, dtype=float)
        self.d = base.d
        self.L = base.L
        self.mu = base.mu
        self.G = base.G
        self.f_star = base.f_star
        u = np.random.default_rng(seed).standard_normal(self.d)
        self.u = u / np.linalg.norm(u)

    def x0(self) -> np.ndarray:
        return self.base.x0()

    def eval_f(self, x) -> float:
        return self.base.eval_f(x)

    def eval_grad(self, x) -> np.ndarray:
        return self.base.eval_grad(x)

    def f_gap(self, x) -> float:
        return self.base.f_gap(x)

    def eval_noisy_grad(self, x, t: int) -> np.ndarray:
        return self.base.eval_grad(x) + self.eps[t] * self.u
