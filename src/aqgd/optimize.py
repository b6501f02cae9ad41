"""The adaptively quantized descent loop, its noisy-gradient variant,
and the unquantized and static-range baselines that share it.

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

from .errors import ConfigError, Divergence
from .quantize import QuantizerSpec, decode, encode

DIVERGENCE_FACTOR = 1e6
LOOP_KINDS = ("aqgd", "naqgd", "gd-unquantized", "gd-static-quantized")


class GradOracle:
    """Contract the optimizer drives: dimension, constants, evaluations.

    The loops make one ``gap_and_grad(x)`` call per iterate: it returns
    the optimality gap f(x) - f_star, which is only traced, and the exact
    gradient, which AQGD descends along and both loops trace.  The
    default forms the gap from ``eval_f`` and ``f_star``; an oracle whose
    gap and gradient share work overrides it.  ``f_gap`` is its first
    half.  Oracles for NAQGD also implement ``eval_noisy_grad(x, t,
    grad)``, given the exact gradient at x, and the caller supplies the
    per-iteration error bounds out-of-band.
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

    def eval_noisy_grad(self, x, t: int, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gap_and_grad(self, x) -> tuple[float, np.ndarray]:
        return self.eval_f(x) - self.f_star, self.eval_grad(x)

    def f_gap(self, x) -> float:
        return self.gap_and_grad(x)[0]


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v.dot(v))


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
    with z_{-1} = R_{-1} = 0 so V_0 = z_0.  The baselines have no range
    recursion to certify: their V_t is z_t.
    """
    if mode == "aqgd":
        return f_gap + alpha * R * R
    if mode == "naqgd":
        return f_gap + prev_f_gap + alpha * prev_R * prev_R
    if mode in ("gd-unquantized", "gd-static-quantized"):
        return f_gap
    raise ValueError(f"unknown mode {mode!r}")


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


def _onto_ball(v: np.ndarray, nrm: float, R: float) -> np.ndarray:
    """v, of norm nrm > R, scaled onto the ball of radius R.

    The scaled vector's norm can round above R; the scale then steps down
    one ulp at a time until encode's own test, sqrt(v.v) <= R, holds.
    """
    scale = R / nrm
    out = v * scale
    while _norm(out) > R:
        scale = math.nextafter(scale, 0.0)
        out = v * scale
    return out


def run(
    loop_kind: str,
    oracle: GradOracle,
    quant: QuantizerSpec,
    alpha: float,
    R0: float,
    T: int,
    eps_schedule=None,
) -> RunTrace:
    """Run T steps of one of the LOOP_KINDS and return the populated trace.

    Under AQGD and NAQGD each step encodes the gradient innovation,
    decodes it, descends by x <- x - alpha g and updates the range by
    R <- gamma R + alpha L ||g||, plus eps_t + eps_{t+1} under NAQGD.  The
    two baselines take the same steps without the range recursion:
    ``gd-static-quantized`` codes the innovation against the frozen range
    R0, scaled onto the ball when it lies outside, and ``gd-unquantized``
    sends no frames and descends along the exact gradient, tracing R = 0,
    no bits and NaN innovation and error norms.

    The trace has T + 1 records, and the oracle is evaluated once per
    record: ``gap_and_grad`` gives the traced gap and the exact gradient,
    against which the gradient norm and the estimate error are traced.
    Under AQGD, R0 below the first gradient's norm raises ConfigError.
    NAQGD descends along ``eval_noisy_grad``, given the exact gradient,
    and requires ``eps_schedule`` with at least T + 1 entries (the range
    update at step t reads eps_t and eps_{t+1}).
    """
    if loop_kind not in LOOP_KINDS:
        raise ValueError(f"unknown loop kind {loop_kind!r}")
    noisy = loop_kind == "naqgd"
    adaptive = noisy or loop_kind == "aqgd"
    coded = loop_kind != "gd-unquantized"
    clip = loop_kind == "gd-static-quantized"
    if noisy:
        if eps_schedule is None or len(eps_schedule) < T + 1:
            raise ValueError("naqgd needs an eps schedule of length >= T + 1")
        if oracle.G is not None and T > 0 and max(eps_schedule[: T + 1]) > oracle.G:
            warnings.warn(
                "noise bound exceeds the gradient bound G; the convergence "
                "envelope is not guaranteed", stacklevel=2,
            )
    x = oracle.x0()
    L, alpha, gamma = oracle.L, float(alpha), float(quant.gamma)
    # the worker's and the server's copies of the gradient estimate and
    # the range; only the frames pass between them
    R0 = float(R0) if coded else 0.0
    g_w, R_w = np.zeros(oracle.d), R0
    g_s, R_s = np.zeros(oracle.d), R0
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
        gap, grad_true = oracle.gap_and_grad(x)
        f_gap[t] = gap
        grad_norm[t] = _norm(grad_true)
        Rs[t] = R_s
        bits[t] = sent
        V[t] = potential(alpha, gap, R_s, loop_kind, prev_gap, prev_R)
        if t == 0:
            if loop_kind == "aqgd" and grad_norm[0] > R0:
                raise ConfigError(
                    f"R0 = {R0:.6g} below ||grad(x0)|| = {grad_norm[0]:.6g}")
            guard = DIVERGENCE_FACTOR * (abs(gap) if gap != 0.0 else 1.0)
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
            grad = oracle.eval_noisy_grad(x, t, grad_true)
            eps_t, eps_next = eps_schedule[t], eps_schedule[t + 1]
        else:
            grad, eps_t, eps_next = grad_true, 0.0, 0.0
        if not coded:
            g_s = grad
        else:
            # worker side: innovation against its own copy of the estimate
            innovation = grad - g_w
            i_norm = _norm(innovation)
            if clip and i_norm > R_w:  # saturate instead of overflowing
                innovation = _onto_ball(innovation, i_norm, R_w)
            frame, ihat_w = encode(quant, innovation, R_w)
            g_w = g_w + ihat_w
            # server side: everything derives from the frame and shared parameters
            g_s = g_s + decode(quant, frame, R_s)
            if adaptive:
                R_w = gamma * R_w + alpha * L * _norm(g_w) + eps_t + eps_next
                R_s = gamma * R_s + alpha * L * _norm(g_s) + eps_t + eps_next
            if np.count_nonzero(g_w != g_s) or R_w != R_s:
                raise AssertionError("worker/server state diverged (decoding symmetry broken)")
            sent += frame.bit_len
            innov[t] = i_norm
            e_norm[t] = _norm(grad_true - g_s)
        x = x - alpha * g_s
    return RunTrace(
        f_gap=f_gap, grad_norm=grad_norm, R=Rs, innov_norm=innov,
        e_norm=e_norm, V=V, bits=bits, mode=loop_kind,
    )
