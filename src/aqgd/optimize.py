"""The adaptively quantized descent loop and its noisy-gradient variant.

The worker (which evaluates gradients and encodes innovations) and the
server (which decodes, steps the iterate, and updates the quantizer
range) are simulated in one process: each side's gradient estimate and
range are local state of ``run``, and the two sides share only
CodeFrames.  Their copies are asserted bit-identical at every step, so
the "correct decoding" assumption is checked rather than assumed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import Divergence
from .quantize import QuantizerSpec, decode, encode

DIVERGENCE_FACTOR = 1e6


class GradOracle:
    """Contract the optimizer drives: dimension, constants, evaluations.

    Exact-mode oracles implement ``eval_grad``; noisy-mode oracles
    implement ``eval_noisy_grad(x, t)`` and the caller supplies the
    per-iteration error bounds out-of-band.  ``eval_f`` and ``f_star``
    are used for tracing and invariant checks.
    """

    d: int
    L: float
    mu: float | None = None
    G: float | None = None
    f_star: float | None = None

    def x0(self) -> np.ndarray:
        return np.zeros(self.d)

    def eval_f(self, x) -> float:
        raise NotImplementedError

    def eval_grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def eval_noisy_grad(self, x, t: int) -> np.ndarray:
        raise NotImplementedError

    def f_gap(self, x) -> float:
        return self.eval_f(x) - self.f_star


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


@dataclass
class RunTrace:
    """Per-iterate record arrays; index k corresponds to iterate x_k.

    ``innov_norm[k]`` and ``e_norm[k]`` belong to the step taken *from*
    x_k and are NaN at the final record.  ``bits[k]`` counts channel bits
    sent before reaching x_k.
    """

    f_gap: np.ndarray
    grad_norm: np.ndarray
    R: np.ndarray
    innov_norm: np.ndarray
    e_norm: np.ndarray
    V: np.ndarray
    bits: np.ndarray
    mode: str = "aqgd"

    def __len__(self) -> int:
        return len(self.f_gap)

    CSV_HEADER = "t,f_gap,grad_norm,R_t,innov_norm,e_norm,V_t,bits_cum"

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for k in range(len(self)):
                row = (
                    self.f_gap[k], self.grad_norm[k], self.R[k],
                    self.innov_norm[k], self.e_norm[k], self.V[k],
                )
                fh.write(
                    f"{k}," + ",".join(f"{v:.17g}" for v in row)
                    + f",{int(self.bits[k])}\n"
                )

    @classmethod
    def from_csv(cls, path) -> "RunTrace":
        cols: list[list[float]] = [[] for _ in range(8)]
        with open(path) as fh:
            header = fh.readline().strip()
            if header != cls.CSV_HEADER:
                raise ValueError(f"unexpected CSV header: {header!r}")
            for line in fh:
                for col, tok in zip(cols, line.strip().split(",")):
                    col.append(float(tok))
        _, f_gap, grad_norm, R, innov, e, V, bits = cols
        return cls(
            f_gap=np.array(f_gap), grad_norm=np.array(grad_norm), R=np.array(R),
            innov_norm=np.array(innov), e_norm=np.array(e), V=np.array(V),
            bits=np.array(bits, dtype=np.int64),
        )


def potential(alpha: float, f_gap: float, R: float, mode: str = "aqgd",
              prev_f_gap: float = 0.0, prev_R: float = 0.0) -> float:
    """Per-iterate potential whose contraction certifies convergence.

    Exact mode: V_t = z_t + alpha R_t^2.  Noisy mode adds the lagged gap
    and uses the lagged range, V_t = z_t + z_{t-1} + alpha R_{t-1}^2,
    with z_{-1} = R_{-1} = 0 so V_0 = z_0.
    """
    if mode == "aqgd":
        return f_gap + alpha * R * R
    if mode == "naqgd":
        return f_gap + prev_f_gap + alpha * prev_R * prev_R
    raise ValueError(f"unknown mode {mode!r}")


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


def rate_threshold_b(d: int, kappa: float) -> int:
    """Smallest per-component bit count preserving the unquantized rate.

    Returns the smallest b in 1..64 meeting the operative condition
    9 gamma^2 <= 1 - 1/(12 kappa) with gamma = sqrt(d)/2^b.
    """
    if kappa <= 1.0:
        raise ValueError("kappa must exceed 1")
    target = 1.0 - 1.0 / (12.0 * kappa)
    b = 1
    while 9.0 * d / 4.0**b > target:
        b += 1
        if b > 64:
            raise ValueError("no b <= 64 satisfies the rate condition")
    return b


def default_alpha(oracle: GradOracle) -> float:
    """Reference step size 1/(6L)."""
    return 1.0 / (6.0 * oracle.L)


def run(
    loop_kind: str,
    oracle: GradOracle,
    quant: QuantizerSpec,
    alpha: float,
    R0: float,
    T: int,
    eps_schedule=None,
) -> RunTrace:
    """Run T steps of AQGD or NAQGD and return the populated trace.

    Each step encodes the gradient innovation, decodes it, descends by
    x <- x - alpha g and updates the range by R <- gamma R + alpha L ||g||,
    plus eps_t + eps_{t+1} under NAQGD.

    The trace has T + 1 records.  NAQGD requires ``eps_schedule`` with at
    least T + 1 entries (the range update at step t reads eps_t and
    eps_{t+1}).
    """
    if loop_kind not in ("aqgd", "naqgd"):
        raise ValueError(f"unknown loop kind {loop_kind!r}")
    noisy = loop_kind == "naqgd"
    if noisy:
        if eps_schedule is None or len(eps_schedule) < T + 1:
            raise ValueError("naqgd needs an eps schedule of length >= T + 1")
        if oracle.G is not None and T > 0 and max(eps_schedule[: T + 1]) > oracle.G:
            warnings.warn(
                "noise bound exceeds the gradient bound G; the convergence "
                "envelope is not guaranteed", stacklevel=2,
            )
    x = oracle.x0()
    if not noisy:
        g0 = float(np.linalg.norm(oracle.eval_grad(x)))
        if g0 > R0:
            raise ValueError(f"R0 = {R0:.6g} below ||grad(x0)|| = {g0:.6g}")
    L, alpha, gamma = oracle.L, float(alpha), float(quant.gamma)
    # the worker's and the server's copies of the gradient estimate and
    # the range; only the frames pass between them
    g_w, R_w = np.zeros(oracle.d), float(R0)
    g_s, R_s = np.zeros(oracle.d), float(R0)
    sent = 0

    n = T + 1
    f_gap = np.empty(n)
    grad_norm = np.empty(n)
    Rs = np.empty(n)
    innov = np.full(n, np.nan)
    e_norm = np.full(n, np.nan)
    V = np.empty(n)
    bits = np.zeros(n, dtype=np.int64)

    prev_gap = 0.0
    prev_R = 0.0
    for t in range(n):
        gap = oracle.f_gap(x)
        try:
            grad_true = oracle.eval_grad(x)
            gn = _norm(grad_true)
        except NotImplementedError:
            grad_true, gn = None, math.nan
        f_gap[t] = gap
        grad_norm[t] = gn
        Rs[t] = R_s
        bits[t] = sent
        V[t] = potential(alpha, gap, R_s, loop_kind, prev_gap, prev_R)
        if t == 0 and gap != 0.0:
            guard = DIVERGENCE_FACTOR * abs(gap)
        elif t == 0:
            guard = DIVERGENCE_FACTOR
        if gap > guard:
            raise Divergence(
                f"f-gap {gap:.3g} exceeded {DIVERGENCE_FACTOR:.1g}x its "
                f"initial value at iteration {t}"
            )
        if t == T:
            break
        prev_gap = gap
        prev_R = R_s
        if noisy:
            grad = oracle.eval_noisy_grad(x, t)
            eps_t, eps_next = eps_schedule[t], eps_schedule[t + 1]
        else:
            grad, eps_t, eps_next = grad_true, 0.0, 0.0
        # worker side: innovation against its own copy of the estimate
        innovation = grad - g_w
        frame, ihat_w = encode(quant, innovation, R_w)
        g_w = g_w + ihat_w
        R_w = gamma * R_w + alpha * L * _norm(g_w) + eps_t + eps_next
        # server side: everything derives from the frame and shared parameters
        g_s = g_s + decode(quant, frame, R_s)
        x = x - alpha * g_s
        R_s = gamma * R_s + alpha * L * _norm(g_s) + eps_t + eps_next
        if not (np.array_equal(g_w, g_s) and R_w == R_s):
            raise AssertionError("worker/server state diverged (decoding symmetry broken)")
        sent += frame.bit_len
        innov[t] = _norm(innovation)
        if grad_true is not None:
            e_norm[t] = _norm(grad_true - g_s)
    return RunTrace(
        f_gap=f_gap, grad_norm=grad_norm, R=Rs, innov_norm=innov,
        e_norm=e_norm, V=V, bits=bits, mode=loop_kind,
    )
