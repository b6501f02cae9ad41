"""Dense-matrix primitives: spectral radius, discrete Lyapunov, DARE.

The Lyapunov doubling certifies Schur stability from the matrix powers it
already forms (Gelfand's bound) and takes eigenvalues only when that
bound fails to certify.  All solvers are pure functions on immutable
inputs and are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotSchurStable

# Declare "not Schur-stable" when rho(M) >= 1 - this margin; guards the
# infinite-sum semantics of the Lyapunov solution.
STABILITY_MARGIN = 1e-8
# Lyapunov: residual bound relative to the size of the equation, and the
# cap on doubling rounds
LYAPUNOV_TOL = 1e-9
LYAPUNOV_MAX_DOUBLINGS = 200
# Riccati iteration: relative step at which it stops, and its cap
DARE_TOL = 1e-12
DARE_MAX_ITER = 1_000_000


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return M


def spectral_radius(M) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    M = _as_square(M)
    if M.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


@dataclass(frozen=True)
class LyapunovSolution:
    """Fixed point of X = W + M^T X M (or its transpose twin)."""

    P: np.ndarray
    iterations: int


def solve_discrete_lyapunov(M, W, transpose: bool = False) -> LyapunovSolution:
    """Solve X = W + M^T X M by doubling the power of M each round.

    With ``transpose=True`` the twin equation X = W + M X M^T is solved
    instead (used for state covariances rather than cost-to-go matrices).
    Requires rho(M) < 1 - STABILITY_MARGIN and raises NotSchurStable
    otherwise.  After k doublings the iterate holds M^(2^k), so Gelfand's
    bound rho(M) <= ||M^(2^k)||_F^(1/2^k) certifies stability without
    eigenvalues; they are taken only when that bound does not.  The
    residual may be at most LYAPUNOV_TOL times the size of the equation,
    max(1, ||W|| + ||M||^2 ||X||), so that large correct solutions pass.
    """
    M = _as_square(M)
    W = _as_square(W)
    if M.shape != W.shape:
        raise ValueError("M and W must have identical shapes")
    A = M.T.copy() if transpose else M.copy()

    X = W.copy()
    it = k = 0
    # an unstable M overflows A and X; the loop stops at the first
    # non-finite increment and the verdict below rejects M
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, LYAPUNOV_MAX_DOUBLINGS + 1):
            inc = A.T @ X @ A
            inc_norm = float(np.linalg.norm(inc))
            if not math.isfinite(inc_norm):
                break
            X = X + inc
            A = A @ A
            k = it
            if inc_norm <= 1e-18 * max(1.0, float(np.linalg.norm(X))):
                break
        gelfand = float(np.linalg.norm(A)) ** (0.5**k)  # A = M^(2^k)
    if not gelfand < 1.0 - STABILITY_MARGIN:
        rho = spectral_radius(M)
        if rho >= 1.0 - STABILITY_MARGIN:
            raise NotSchurStable(
                f"spectral radius {rho:.6g} >= {1.0 - STABILITY_MARGIN}"
            )
    X = 0.5 * (X + X.T)
    # residual against the original equation, not the doubled matrix
    Meff = M.T if transpose else M
    residual = float(np.linalg.norm(X - W - Meff.T @ X @ Meff))
    if residual > LYAPUNOV_TOL:  # the relative bound below is never tighter
        size = float(np.linalg.norm(W)) \
            + float(np.linalg.norm(M)) ** 2 * float(np.linalg.norm(X))
        tol = LYAPUNOV_TOL * max(1.0, size)
        if residual > tol:
            raise NoConvergence(
                f"Lyapunov residual {residual:.3g} above tolerance {tol:.3g} "
                f"after {it} doublings"
            )
    return LyapunovSolution(P=X, iterations=it)


def solve_dare(A, B, Q, R, Sigma_w=None):
    """Riccati fixed-point iteration from P0 = Q.

    Returns ``(Pstar, Kstar, Jstar)`` where Kstar = -(R + B'PB)^{-1} B'PA
    (so u = Kx closes the loop as A + BK) and Jstar = trace(Pstar Sigma_w),
    or NaN when Sigma_w is not supplied.
    """
    A = _as_square(A)
    B = np.asarray(B, dtype=float)
    Q = _as_square(Q)
    R = _as_square(R)
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ValueError("B must be n x m")
    P = Q.copy()
    for _ in range(DARE_MAX_ITER):
        BtP = B.T @ P
        G = R + BtP @ B
        K = -np.linalg.solve(G, BtP @ A)
        P_next = Q + A.T @ P @ (A + B @ K)
        P_next = 0.5 * (P_next + P_next.T)
        step = float(np.linalg.norm(P_next - P))
        if step <= DARE_TOL * max(1.0, float(np.linalg.norm(P_next))):
            P = P_next
            break
        P = P_next
    else:
        raise NoConvergence(f"DARE iteration cap {DARE_MAX_ITER} reached")
    BtP = B.T @ P
    Kstar = -np.linalg.solve(R + BtP @ B, BtP @ A)
    if Sigma_w is None:
        Jstar = float("nan")
    else:
        Jstar = float(np.trace(P @ np.asarray(Sigma_w, dtype=float)))
    return P, Kstar, Jstar
