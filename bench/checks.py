"""Output checks for the benchmark's workloads.

Every check compares a run trace against a quantity computed here, apart
from the program (scipy eigen- and Riccati solvers, closed-form gradient
descent curves), or against a property the method must have.  A failed
check raises CheckFailed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

# CSV columns written by `aqgd run --out`
COLUMNS = ("t", "f_gap", "grad_norm", "R_t", "innov_norm", "e_norm", "V_t", "bits_cum")


class CheckFailed(AssertionError):
    pass


def read_trace(path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if tuple(header) != COLUMNS:
        raise CheckFailed(f"{path}: unexpected header {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(COLUMNS)}


# ---- references computed apart from the program -------------------------

def quadratic_reference(H, c) -> dict:
    """Gap at x0 = 0, condition number, reference step 1/(6L) and the
    eigen-coordinates of the minimizer, from a scipy eigendecomposition."""
    lam, Q = sla.eigh(H)
    c_hat = Q.T @ c
    xstar_hat = c_hat / lam
    return {
        "gap0": 0.5 * float(c_hat @ xstar_hat),
        "lam": lam,
        "xstar_hat": xstar_hat,
        "kappa": float(lam[-1] / lam[0]),
        "alpha": 1.0 / (6.0 * float(lam[-1])),
    }


def lqr_gap0(A, B, Q, R, W) -> float:
    """J(0) - J* for the zero initial policy: a Lyapunov solve for the
    open loop and a Riccati solve for the optimum."""
    P0 = sla.solve_discrete_lyapunov(A.T, Q)
    Pstar = sla.solve_discrete_are(A, B, Q, R)
    return float(np.trace(P0 @ W) - np.trace(Pstar @ W))


def gd_curve(lam, xstar_hat, alpha: float, ts) -> np.ndarray:
    """Closed-form unquantized GD gap 0.5 sum_i lam_i (1 - alpha lam_i)^(2t) c_i^2
    from x0 = 0, where c_i are the minimizer's eigen-coordinates."""
    ts = np.asarray(ts, dtype=float)
    base = np.log(np.abs(1.0 - alpha * lam))
    w = 0.5 * lam * xstar_hat**2
    return np.array([float(np.sum(w * np.exp(2.0 * t * base))) for t in ts])


def rate_threshold_bits(d: int, kappa: float) -> int:
    """Smallest b with 9 d / 4^b <= 1 - 1/(12 kappa)."""
    b = 1
    while 9.0 * d / 4.0**b > 1.0 - 1.0 / (12.0 * kappa):
        b += 1
    return b


def log_slope(ts, gaps) -> float:
    ts = np.asarray(ts, dtype=float)
    return float(np.polyfit(ts, np.log(gaps), 1)[0])


# ---- checks -------------------------------------------------------------

def check_initial_gap(gap0: float, ref: float, rtol: float) -> None:
    if not abs(gap0 - ref) <= rtol * abs(ref):
        raise CheckFailed(f"initial gap {float(gap0)!r} differs from reference {float(ref)!r} "
                          f"by more than {rtol:g} relative")


def check_nonnegative(gaps) -> None:
    bad = np.flatnonzero(~(np.asarray(gaps) >= 0.0))
    if bad.size:
        raise CheckFailed(f"negative gap at t = {int(bad[0])}: {float(gaps[bad[0]])!r}")


def check_aqgd_bound(gaps, kappa: float, alpha: float, R0: float) -> None:
    """gap_t <= (1 - 1/(12 kappa))^t (gap_0 + alpha R_0^2)."""
    gaps = np.asarray(gaps)
    t = np.arange(len(gaps))
    bound = (1.0 - 1.0 / (12.0 * kappa)) ** t * (gaps[0] + alpha * R0 * R0)
    bad = np.flatnonzero(gaps > bound * (1.0 + 1e-12))
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(f"gap {float(gaps[i])!r} above the AQGD bound "
                          f"{float(bound[i])!r} at t = {i}")


def check_rate_preserved(gaps, lam, xstar_hat, alpha: float, window, rtol: float) -> None:
    """The fitted log-gap slope over the window matches that of the
    closed-form unquantized GD curve to within rtol."""
    lo, hi = window
    ts = np.arange(lo, hi + 1)
    got = log_slope(ts, np.asarray(gaps)[lo:hi + 1])
    want = log_slope(ts, gd_curve(lam, xstar_hat, alpha, ts))
    if not abs(got / want - 1.0) <= rtol:
        raise CheckFailed(f"log-gap slope {got:.6g} vs unquantized GD {want:.6g} "
                          f"over t in [{lo}, {hi}]: ratio off by more than {rtol:g}")


def check_bits_linear(bits, per_step: int) -> None:
    """bits_cum[t] == t * per_step for every t."""
    bits = np.asarray(bits)
    want = np.arange(len(bits), dtype=np.int64) * int(per_step)
    bad = np.flatnonzero(bits.astype(np.int64) != want)
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(f"bits_cum {int(bits[i])} at t = {i}, expected {int(want[i])}")


def check_net_bits(bits, d: int, gamma: float) -> int:
    """A constant frame size per step, of at least 1 and at most the bits
    indexing the packing bound (2/gamma + 1)^d; returns the frame size."""
    bits = np.asarray(bits)
    if len(bits) < 2:
        raise CheckFailed("trace too short to read a frame size")
    per_step = int(bits[1])
    cap = math.ceil(d * math.log2(2.0 / gamma + 1.0))
    if not 1 <= per_step <= cap:
        raise CheckFailed(f"net frame of {per_step} bits outside [1, {cap}]")
    check_bits_linear(bits, per_step)
    return per_step


def check_potential_monotone(V) -> None:
    V = np.asarray(V)
    bad = np.flatnonzero(np.diff(V) > 0.0)
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(f"potential rises from {float(V[i])!r} to {float(V[i + 1])!r} "
                          f"at t = {i + 1}")


def check_finite(trace: dict) -> None:
    """Every iterate is finite: gap, gradient norm, range and potential at
    every record, innovation and estimate error at every step taken."""
    for col in ("f_gap", "grad_norm", "R_t", "V_t"):
        if not np.all(np.isfinite(trace[col])):
            raise CheckFailed(f"non-finite {col}")
    for col in ("innov_norm", "e_norm"):
        if not np.all(np.isfinite(trace[col][:-1])):
            raise CheckFailed(f"non-finite {col}")


def check_batch_progress(gap_traces, gap0: float, stretch: int, ratio: float) -> None:
    """The median over seeds of each seed's median gap over its last
    `stretch` records is at most ratio * gap0."""
    lasts = [float(np.median(np.asarray(g)[-stretch:])) for g in gap_traces]
    med = float(np.median(lasts))
    if not med <= ratio * gap0:
        raise CheckFailed(f"batch median late gap {med:.6g} above {ratio} x initial {gap0:.6g}")


def first_at_tol(gaps, tol: float) -> int:
    """First t with gap_t <= tol * gap_0."""
    gaps = np.asarray(gaps)
    hit = np.flatnonzero(gaps <= tol * gaps[0])
    if not hit.size:
        raise CheckFailed(f"gap never reached {tol:g} x its initial value")
    return int(hit[0])
