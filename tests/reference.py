"""Reference computations that only the tests use: the worst-case LQR
landscape constants, a per-step LQR trajectory simulator, the aggregate
noise level of the NAQGD envelope, and a sampled gradient-domination
check."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from aqgd.errors import Unstabilizing
from aqgd.lqr import STATE_BLOWUP, LtiSystem, _noise_chol, lqr_cost
from aqgd.optimize import GradOracle


@dataclass(frozen=True)
class LqrConstants:
    """Landscape constants of the cost over the sublevel set
    {K : J(K) <= Jbar}: decay envelope (zeta, eta), gradient bound G,
    local smoothness L, smoothness radius D, and gradient-domination
    constant mu.  Every argument but n must be positive; beta1 > 1 warns,
    because the constants assume a cost normalization with beta1 <= 1."""

    beta0: float
    beta1: float
    sigma_w_sq: float
    psi: float
    Jbar: float
    n: int
    zeta: float = field(init=False)
    eta: float = field(init=False)
    G: float = field(init=False)
    L: float = field(init=False)
    D: float = field(init=False)
    mu: float = field(init=False)

    def __post_init__(self):
        for name in ("beta0", "beta1", "sigma_w_sq", "psi", "Jbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.beta1 > 1.0:
            # stacklevel 3 names the caller of the generated __init__
            warnings.warn(
                f"beta1 = {self.beta1:.3g} > 1; the landscape constants assume a "
                "cost normalization with beta1 <= 1", stacklevel=3,
            )
        b0, s2, psi, J = self.beta0, self.sigma_w_sq, self.psi, self.Jbar
        zeta = math.sqrt(J / (b0 * s2))
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "eta", 1.0 - 1.0 / (2.0 * zeta * zeta))
        object.__setattr__(self, "G",
                           (2.0 * J / (b0 * s2)) * math.sqrt((s2 + psi * psi * J) * J))
        object.__setattr__(self, "L",
                           112.0 * math.sqrt(self.n) * J * psi * psi * zeta**8 / b0)
        object.__setattr__(self, "D", 1.0 / (psi * zeta**3))
        object.__setattr__(self, "mu", 2.0 * J / zeta**4)


def constants_for(sys: LtiSystem) -> LqrConstants:
    """Read (beta0, beta1, sigma_w^2, psi) off the system matrices, with
    Jbar = 4 J(0): the sublevel set of the zero initial gain."""
    Jbar = 4.0 * lqr_cost(sys, np.zeros((sys.m, sys.n)))
    beta0 = float(min(np.linalg.eigvalsh(sys.Q)[0], np.linalg.eigvalsh(sys.R)[0]))
    beta1 = float(np.linalg.eigvalsh(sys.R)[-1])
    sigma_w_sq = float(np.linalg.eigvalsh(sys.Sigma_w)[0])
    psi = float(max(np.linalg.norm(sys.A, 2), np.linalg.norm(sys.B, 2), 1.0))
    return LqrConstants(beta0, beta1, sigma_w_sq, psi, Jbar, sys.n)


def rollout(sys: LtiSystem, K_play, N: int, rng: np.random.Generator):
    """Simulate N steps from x0 = 0 under u_k = K_play x_k.

    Returns (states, inputs, cost_sum) with states of shape (N+1, n),
    inputs of shape (N, m), and cost_sum the total stage cost over
    k = 0..N-1.  Aborts if the state norm exceeds 1e12.
    """
    K_play = np.atleast_2d(np.asarray(K_play, dtype=float))
    n, m = sys.n, sys.m
    C = _noise_chol(sys)
    states = np.zeros((N + 1, n))
    inputs = np.zeros((N, m))
    x = np.zeros(n)
    cost = 0.0
    for k in range(N):
        u = K_play @ x
        inputs[k] = u
        cost += float(x @ sys.Q @ x + u @ sys.R @ u)
        w = C @ rng.standard_normal(n)
        x = sys.A @ x + sys.B @ u + w
        if np.linalg.norm(x) > STATE_BLOWUP:
            raise Unstabilizing(
                f"state norm exceeded {STATE_BLOWUP:.0e} at step {k + 1}"
            )
        states[k + 1] = x
    return states, inputs, cost


def bar_epsilon_sq(eps, t: int, alpha: float, mu: float) -> float:
    """Aggregate noise level: max over s <= t of
    (1 - alpha mu / 3)^(t-s) (8 eps_{s-1}^2 + 6 eps_s^2), eps_{-1} = 0."""
    rho = 1.0 - alpha * mu / 3.0
    if not (0.0 < rho < 1.0):
        raise ValueError("need 0 < alpha*mu/3 < 1")
    best = 0.0
    for s in range(t + 1):
        prev = eps[s - 1] if s >= 1 else 0.0
        val = rho ** (t - s) * (8.0 * prev * prev + 6.0 * eps[s] * eps[s])
        best = max(best, val)
    return best


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
