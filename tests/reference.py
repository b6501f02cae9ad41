"""Reference computations that only the tests use: a per-step LQR
trajectory simulator, the aggregate noise level of the NAQGD envelope,
and a sampled gradient-domination check."""

from __future__ import annotations

import numpy as np

from aqgd.errors import Unstabilizing
from aqgd.lqr import STATE_BLOWUP, LtiSystem, _noise_chol
from aqgd.optimize import GradOracle


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
        w = C @ rng.standard_normal(n) if C is not None else 0.0
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
