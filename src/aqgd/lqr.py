"""Discrete-time LQR: exact cost/gradient via Lyapunov solves, policy
smoothness/domination constants, the perturbed single-trajectory
gradient estimator, and empirical calibration of its error bound and of
the local smoothness.  LqrOracle exposes policies to the generic
optimizer as column-major vectors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSchurStable, Unstabilizing
from .linalg import solve_dare, solve_discrete_lyapunov, spectral_radius
from .optimize import GradOracle

STATE_BLOWUP = 1e12
# the empirical smoothness and noise bounds are inflated by this factor
SAFETY = 1.5


def _check_spd(M: np.ndarray, name: str, strict: bool = True) -> None:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    lam = float(np.linalg.eigvalsh(M)[0])
    if strict and lam <= 0:
        raise ValueError(f"{name} must be positive definite (lambda_min = {lam:.3g})")
    if not strict and lam < -1e-12:
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class LtiSystem:
    """x_{k+1} = A x_k + B u_k + w_k with stage cost x'Qx + u'Ru and
    process noise w_k ~ N(0, Sigma_w).  Sigma_w may be zero (noise-free
    simulation mode); Q and R must be strictly positive definite."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Sigma_w: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        W = np.atleast_2d(np.asarray(self.Sigma_w, dtype=float))
        n, m = B.shape
        if A.shape != (n, n) or Q.shape != (n, n) or W.shape != (n, n):
            raise ValueError("A, Q, Sigma_w must be n x n matching B's rows")
        if R.shape != (m, m):
            raise ValueError("R must be m x m matching B's columns")
        _check_spd(Q, "Q")
        _check_spd(R, "R")
        _check_spd(W, "Sigma_w", strict=False)
        for name, val in (("A", A), ("B", B), ("Q", Q), ("R", R), ("Sigma_w", W)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.n} {self.m}\n")
            for M in (self.A, self.B, self.Q, self.R, self.Sigma_w):
                fh.write("\n")
                for row in M:
                    fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def load(cls, path) -> "LtiSystem":
        with open(path) as fh:
            text = fh.read()
        blocks = [blk for blk in text.split("\n\n") if blk.strip()]
        header = blocks[0].splitlines()[0].split()
        n, m = int(header[0]), int(header[1])
        rest = "\n".join(blocks[0].splitlines()[1:])
        mats = ([rest] if rest.strip() else []) + blocks[1:]
        if len(mats) != 5:
            raise ValueError(f"expected 5 matrix blocks, found {len(mats)}")
        parsed = []
        for blk, (r, c) in zip(mats, [(n, n), (n, m), (n, n), (m, m), (n, n)]):
            rows = [[float(tok) for tok in line.split()] for line in blk.splitlines()
                    if line.strip()]
            M = np.array(rows, dtype=float)
            if M.shape != (r, c):
                raise ValueError(f"matrix block has shape {M.shape}, expected {(r, c)}")
            parsed.append(M)
        return cls(*parsed)


def _closed_loop_solves(sys: LtiSystem, K: np.ndarray):
    """(K, P_K, Sigma_K) for a stabilizing K, raising Unstabilizing otherwise.

    The first Lyapunov solve decides stability; eigenvalues are taken
    only when it fails, to tell an unstable loop (rho >= 1) from a
    marginal one.  A ValueError (non-finite Q + K'RK from a huge gain) is
    checked the same way, so an unstable loop reports Unstabilizing first.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    M = sys.A + sys.B @ K
    try:
        P = solve_discrete_lyapunov(M, sys.Q + K.T @ sys.R @ K).P
    except (NotSchurStable, ValueError):
        rho = spectral_radius(M)
        if rho >= 1.0:
            raise Unstabilizing(
                f"closed loop has spectral radius {rho:.6g} >= 1") from None
        raise
    Sig = solve_discrete_lyapunov(M, sys.Sigma_w, transpose=True).P
    return K, P, Sig


def _cost(sys: LtiSystem, K: np.ndarray, P: np.ndarray, Sig: np.ndarray) -> float:
    """lqr_cost from the closed-loop solves of K."""
    J = float(np.trace(P @ sys.Sigma_w))
    J_dual = float(np.trace((sys.Q + K.T @ sys.R @ K) @ Sig))
    scale = max(abs(J), abs(J_dual), 1e-30)
    if abs(J - J_dual) > 1e-8 * scale:
        raise ArithmeticError(
            f"cost duality violated: {J:.12g} vs {J_dual:.12g}"
        )
    return J


def _grad(sys: LtiSystem, K: np.ndarray, P: np.ndarray, Sig: np.ndarray) -> np.ndarray:
    """lqr_grad from the closed-loop solves of K."""
    return 2.0 * ((sys.R + sys.B.T @ P @ sys.B) @ K + sys.B.T @ P @ sys.A) @ Sig


def lqr_cost(sys: LtiSystem, K) -> float:
    """Steady-state cost trace(P_K Sigma_w), cross-checked against the
    dual closed form trace((Q + K'RK) Sigma_K)."""
    return _cost(sys, *_closed_loop_solves(sys, K))


def lqr_grad(sys: LtiSystem, K) -> np.ndarray:
    """Exact policy gradient 2((R + B'P_K B)K + B'P_K A) Sigma_K."""
    return _grad(sys, *_closed_loop_solves(sys, K))


def dare_optimum(sys: LtiSystem):
    """(Pstar, Kstar, Jstar) for the infinite-horizon problem."""
    return solve_dare(sys.A, sys.B, sys.Q, sys.R, Sigma_w=sys.Sigma_w)


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


@dataclass(frozen=True)
class EstimatorConfig:
    """Perturbed-trajectory gradient estimator settings: ell trajectories
    of length N, perturbation radius r, base seed for the per-trajectory
    RNG streams."""

    ell: int
    N: int
    r: float
    seed: int = 0

    def __post_init__(self):
        if self.ell < 1 or self.N < 1:
            raise ValueError("ell and N must be positive")
        if self.r <= 0:
            raise ValueError("perturbation radius r must be positive")


def _noise_chol(sys: LtiSystem) -> np.ndarray | None:
    if not np.any(sys.Sigma_w):
        return None
    # tiny jitter-free PSD factorization via eigendecomposition
    lam, V = np.linalg.eigh(sys.Sigma_w)
    lam = np.clip(lam, 0.0, None)
    return V * np.sqrt(lam)


def _perturbations(sys: LtiSystem, cfg: EstimatorConfig, t: int):
    """The estimator's random draws: unit-Frobenius-norm perturbations U
    (ell, m, n) and process noise W (N, ell, n), W[k, i] = w_k of
    trajectory i (None when Sigma_w = 0).  Trajectory i draws U_i, then
    its N noise vectors, from its own stream keyed by (cfg.seed, t, i)."""
    n, m = sys.n, sys.m
    ell, N = cfg.ell, cfg.N
    C = _noise_chol(sys)
    U = np.empty((ell, m, n))
    W = np.empty((N, ell, n)) if C is not None else None
    z = np.empty((N, n))
    for i in range(ell):
        g = np.random.default_rng(np.random.SeedSequence([cfg.seed, t, i]))
        g.standard_normal(out=U[i])
        if C is not None:
            g.standard_normal(out=z)
            np.matmul(z, C.T, out=W[:, i])
    # ||U_i||^2 by the same dot product np.linalg.norm takes
    u = U.reshape(ell, 1, m * n)
    U /= np.sqrt(u @ u.transpose(0, 2, 1))
    return U, W


def estimate_gradient(sys: LtiSystem, K, cfg: EstimatorConfig, t: int = 0) -> np.ndarray:
    """Single-trajectory perturbed gradient estimate.

    Each of the ell trajectories draws its own RNG stream keyed by
    (cfg.seed, t, i), samples a unit-Frobenius-norm perturbation U_i,
    plays u = (K + r U_i) x for N steps from x_0 = 0, and contributes
    (mn / (r N)) * cost_sum_i * U_i; the output is the mean.

    The ell trajectories advance together, one batched product per step,
    and the states are written over the noise: W[k] holds w_k until step
    k, then x_{k+1} = M_i x_k + w_k.  After the loop the costs
    sum_{k<N} x_k' Q_eff x_k come from the Gram matrices of x_1..x_{N-1},
    and one check over x_1..x_N raises Unstabilizing when any squared
    state norm is not <= STATE_BLOWUP**2 (NaN included).  An unstable
    gain may overflow inside the loop; that raises no warning.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n, m = sys.n, sys.m
    ell, N, r = cfg.ell, cfg.N, cfg.r
    U, W = _perturbations(sys, cfg, t)

    with np.errstate(over="ignore", invalid="ignore"):
        Kp = K[None, :, :] + r * U                      # (ell, m, n)
        M = sys.A[None, :, :] + np.einsum("ij,tjk->tik", sys.B, Kp)
        Qeff = sys.Q[None, :, :] + np.einsum("tji,jk,tkl->til", Kp, sys.R, Kp)
        if W is None:  # no noise from x_0 = 0: every state and cost is zero
            return np.zeros((m, n))
        for k in range(1, N):  # W[0] = x_1 = w_0 already
            W[k] += np.einsum("tij,tj->ti", M, W[k - 1])
        X = W[:N - 1].transpose(1, 0, 2)                # (ell, N-1, n)
        costs = np.einsum("tij,tij->t", Qeff, X.transpose(0, 2, 1) @ X)
        sq = np.einsum("kti,kti->kt", W, W)
    if not np.all(sq <= STATE_BLOWUP**2):
        raise Unstabilizing(
            f"state norm exceeded {STATE_BLOWUP:.0e} during estimation"
        )
    # at N = 1 the only cost term is x_0' Q_eff x_0 = 0, which the Gram
    # contraction would turn into 0 * inf = NaN where Q_eff overflows
    if N == 1:
        return np.zeros((m, n))
    scale = m * n / (r * N * ell)
    return scale * np.einsum("t,tij->ij", costs, U)


def random_stable_instance(n: int, m: int, seed: int,
                           rho_target: float = 0.8) -> LtiSystem:
    """Gaussian A rescaled to spectral radius rho_target, Gaussian B,
    Q = 5 I, R = 5 I, Sigma_w = I."""
    if not 0.0 < rho_target < 1.0:
        raise ValueError("rho_target must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= rho_target / spectral_radius(A)
    B = rng.standard_normal((n, m))
    return LtiSystem(A, B, 5.0 * np.eye(n), 5.0 * np.eye(m), np.eye(n))


def estimate_local_smoothness(sys: LtiSystem, K0, radius: float,
                              seed: int = 0) -> float:
    """Empirical Lipschitz constant of the gradient near K0: the max
    gradient-difference ratio over 40 random perturbations of K0 within
    the given radius, inflated by SAFETY."""
    K0 = np.atleast_2d(np.asarray(K0, dtype=float))
    rng = np.random.default_rng(seed)
    g0 = lqr_grad(sys, K0)
    best = 0.0
    for _ in range(40):
        d = rng.standard_normal(K0.shape)
        d *= radius * rng.uniform(0.1, 1.0) / np.linalg.norm(d)
        try:
            g1 = lqr_grad(sys, K0 + d)
        except Unstabilizing:
            continue
        best = max(best, float(np.linalg.norm(g1 - g0) / np.linalg.norm(d)))
    if best == 0.0:
        raise ValueError("no stabilizing perturbation found; shrink the radius")
    return SAFETY * best


def calibrate_noise(sys: LtiSystem, K0, cfg: EstimatorConfig,
                    calls: int = 5) -> float:
    """Empirical bound on the estimator error: max Frobenius distance
    between the estimate and the exact gradient over repeated calls,
    inflated by SAFETY."""
    K0 = np.atleast_2d(np.asarray(K0, dtype=float))
    g = lqr_grad(sys, K0)
    worst = 0.0
    for c in range(calls):
        # iteration keys >= 10^9 so calibration streams never collide
        # with the streams used by the optimization run itself
        ghat = estimate_gradient(sys, K0, cfg, t=10**9 + c)
        worst = max(worst, float(np.linalg.norm(ghat - g)))
    return SAFETY * worst


class LqrOracle(GradOracle):
    """Vector-space view of the policy-gradient problem over the
    column-major vec(K), started from K0 = 0; the Frobenius norm of K is
    the Euclidean norm of vec(K).

    Every oracle serves analytic gradients; one given an EstimatorConfig
    also serves perturbed-trajectory estimates as noisy gradients (keyed
    to the iteration counter so streams never repeat).  ``gap_and_grad``
    takes the cost and the exact gradient from one closed-loop solve.
    """

    def __init__(self, sys: LtiSystem, cfg: EstimatorConfig | None = None):
        self.sys = sys
        self.cfg = cfg
        self.d = sys.m * sys.n
        consts = constants_for(sys)
        self.L = consts.L
        self.mu = consts.mu
        self.G = consts.G
        self.D = consts.D
        _, _, Jstar = dare_optimum(sys)
        self.f_star = Jstar

    def _mat(self, x) -> np.ndarray:
        # a C-ordered copy, so the products see K in its usual memory layout
        return np.reshape(x, (self.sys.m, self.sys.n), order="F").copy()

    def _solves(self, x):
        return _closed_loop_solves(self.sys, self._mat(x))

    def eval_f(self, x) -> float:
        return _cost(self.sys, *self._solves(x))

    def eval_grad(self, x) -> np.ndarray:
        return _grad(self.sys, *self._solves(x)).reshape(-1, order="F")

    def gap_and_grad(self, x) -> tuple[float, np.ndarray]:
        solves = self._solves(x)
        return (_cost(self.sys, *solves) - self.f_star,
                _grad(self.sys, *solves).reshape(-1, order="F"))

    def eval_noisy_grad(self, x, t: int, grad: np.ndarray) -> np.ndarray:
        """The perturbed-trajectory estimate at x; the exact ``grad`` is unused."""
        if self.cfg is None:
            raise NotImplementedError("an oracle without an EstimatorConfig "
                                      "has no noisy gradient")
        K = self._mat(x)
        return estimate_gradient(self.sys, K, self.cfg, t=t).reshape(-1, order="F")
