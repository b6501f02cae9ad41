"""The adaptively quantized descent loop and its noisy-gradient variant.

The worker (which evaluates gradients and encodes innovations) and the
server (which decodes, steps the iterate, and updates the quantizer
range) are simulated in one process as two sub-states that share only
CodeFrames.  Their copies of the gradient estimate and the range are
asserted bit-identical at every step, so the "correct decoding"
assumption is checked rather than assumed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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


@dataclass
class StepInfo:
    """Quantities produced while executing one step."""

    innov_norm: float
    e_norm: float  # ||grad_true(x_t) - g_t||, NaN without true-gradient access
    frame_bits: int
    R_used: float  # range active while encoding this step's innovation


@dataclass
class OptState:
    """Joint worker/server state of the quantized descent loop."""

    t: int
    x: np.ndarray
    g: np.ndarray
    R: float
    g_worker: np.ndarray
    R_worker: float
    bits_sent: int
    alpha: float
    gamma: float
    last: StepInfo | None = field(default=None)


def init_state(oracle: GradOracle, quant: QuantizerSpec, alpha: float, R0: float,
               x0=None) -> OptState:
    x = np.asarray(x0, dtype=float).copy() if x0 is not None else oracle.x0()
    z = np.zeros(oracle.d)
    return OptState(
        t=0, x=x, g=z.copy(), R=float(R0), g_worker=z.copy(),
        R_worker=float(R0), bits_sent=0, alpha=float(alpha),
        gamma=float(quant.gamma),
    )


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v @ v))


def _step(state: OptState, grad_worker: np.ndarray, grad_true,
          quant: QuantizerSpec, L: float, eps_t: float, eps_next: float) -> OptState:
    # worker side: innovation against its own copy of the estimate
    innov = grad_worker - state.g_worker
    frame, ihat_w = encode(quant, innov, state.R_worker)
    g_w = state.g_worker + ihat_w
    R_w = state.gamma * state.R_worker + state.alpha * L * _norm(g_w) \
        + eps_t + eps_next
    # server side: everything derives from the frame and shared parameters
    ihat_s = decode(quant, frame, state.R)
    g_s = state.g + ihat_s
    x_new = state.x - state.alpha * g_s
    R_s = state.gamma * state.R + state.alpha * L * _norm(g_s) \
        + eps_t + eps_next
    if not (np.array_equal(g_w, g_s) and R_w == R_s):
        raise AssertionError("worker/server state diverged (decoding symmetry broken)")
    e_norm = _norm(grad_true - g_s) if grad_true is not None else math.nan
    info = StepInfo(
        innov_norm=_norm(innov),
        e_norm=e_norm,
        frame_bits=frame.bit_len,
        R_used=state.R,
    )
    return OptState(
        t=state.t + 1, x=x_new, g=g_s, R=R_s, g_worker=g_w, R_worker=R_w,
        bits_sent=state.bits_sent + frame.bit_len, alpha=state.alpha,
        gamma=state.gamma, last=info,
    )


def aqgd_step(state: OptState, oracle: GradOracle, quant: QuantizerSpec) -> OptState:
    """One exact-gradient step: encode the innovation, decode, descend,
    contract the range by R <- gamma R + alpha L ||g||."""
    grad = oracle.eval_grad(state.x)
    return _step(state, grad, grad, quant, oracle.L, 0.0, 0.0)


def naqgd_step(state: OptState, oracle: GradOracle, quant: QuantizerSpec,
               eps_t: float, eps_next: float) -> OptState:
    """Noisy-gradient step; the range additionally absorbs eps_t + eps_next."""
    grad = oracle.eval_noisy_grad(state.x, state.t)
    try:
        grad_true = oracle.eval_grad(state.x)
    except NotImplementedError:
        grad_true = None
    return _step(state, grad, grad_true, quant, oracle.L, eps_t, eps_next)


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
    alpha: float = 0.0
    gamma: float = 0.0

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


def default_alpha(oracle: GradOracle, noisy: bool = False) -> float:
    """Reference step size: 1/(6L); the noisy loop additionally caps it
    at D/(7G) when the oracle exposes those constants."""
    base = 1.0 / (6.0 * oracle.L)
    D = getattr(oracle, "D", None)
    if noisy and oracle.G and D:
        return min(D / (7.0 * oracle.G), base)
    return base


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
    state = init_state(oracle, quant, alpha, R0)
    if not noisy:
        g0 = float(np.linalg.norm(oracle.eval_grad(state.x)))
        if g0 > R0:
            raise ValueError(f"R0 = {R0:.6g} below ||grad(x0)|| = {g0:.6g}")

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
        gap = oracle.f_gap(state.x)
        try:
            grad_true = oracle.eval_grad(state.x)
            gn = _norm(grad_true)
        except NotImplementedError:
            grad_true, gn = None, math.nan
        f_gap[t] = gap
        grad_norm[t] = gn
        Rs[t] = state.R
        bits[t] = state.bits_sent
        V[t] = potential(alpha, gap, state.R, loop_kind, prev_gap, prev_R)
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
        prev_R = state.R
        if noisy:
            grad = oracle.eval_noisy_grad(state.x, state.t)
            state = _step(state, grad, grad_true, quant, oracle.L,
                          eps_schedule[t], eps_schedule[t + 1])
        else:
            state = _step(state, grad_true, grad_true, quant, oracle.L, 0.0, 0.0)
        innov[t] = state.last.innov_norm
        e_norm[t] = state.last.e_norm
    return RunTrace(
        f_gap=f_gap, grad_norm=grad_norm, R=Rs, innov_norm=innov,
        e_norm=e_norm, V=V, bits=bits, mode=loop_kind, alpha=alpha,
        gamma=quant.gamma,
    )
