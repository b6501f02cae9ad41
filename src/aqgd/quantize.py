"""Range-parameterized quantizers and bit-exact frame packing.

The worker and the server share only the frame and the range R.
:func:`encode` turns a vector with ||x|| <= R into a frame plus its
reconstruction, and :func:`decode` rebuilds that reconstruction
bit-identically from the frame and the shared (spec, R).  Two quantizer
families are provided: a per-component uniform scalar quantizer over
[-R, R] and a codebook quantizer built from a covering of the unit ball.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Overflow

# build_net refuses a codebook size bound (2/gamma + 1)^d above this
NET_CAP = 200_000


@dataclass(frozen=True)
class CodeFrame:
    """A payload of ``bit_len`` bits, packed MSB-first into bytes."""

    payload: bytes
    bit_len: int


@functools.lru_cache(maxsize=None)
def _bit_weights(b: int) -> np.ndarray:
    """2**(b-1), ..., 2, 1: the place values of a b-bit field, MSB first."""
    return 1 << np.arange(b - 1, -1, -1, dtype=np.int64)


def pack_bits(indices, b: int) -> CodeFrame:
    """Pack integers into ``b`` bits each, big-endian within each component."""
    if b < 1:
        raise ValueError("b must be >= 1")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("indices must be a flat sequence")
    if np.count_nonzero(idx >> b):  # a negative index or one >= 2**b
        raise ValueError(f"indices do not fit in {b} bits")
    # packbits sets a bit for each nonzero entry and zero-pads the final byte
    payload = np.packbits(idx[:, None] & _bit_weights(b)).tobytes()
    return CodeFrame(payload=payload, bit_len=b * idx.size)


def unpack_bits(frame: CodeFrame, b: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; requires the exact bit length."""
    if frame.bit_len != b * count:
        raise ValueError(
            f"frame holds {frame.bit_len} bits, expected {b * count}"
        )
    bits = np.unpackbits(np.frombuffer(frame.payload, dtype=np.uint8),
                         count=b * count).astype(np.int64)
    return bits.reshape(count, b).dot(_bit_weights(b))


@dataclass(frozen=True)
class QuantizerSpec:
    """Parameters of a range-scaled quantizer map.

    ``family`` is "scalar" (per-component, ``b`` bits each) or "net"
    (codebook over the unit ball).  ``gamma`` is the worst-case relative
    error: sqrt(d)/2**b for the scalar family, the covering radius for
    the net family.
    """

    family: str
    d: int
    gamma: float
    b: int = 0
    codebook: np.ndarray | None = field(default=None, repr=False)

    @property
    def frame_bits(self) -> int:
        if self.family == "scalar":
            return self.d * self.b
        return max(1, math.ceil(math.log2(len(self.codebook))))


def scalar_spec(d: int, b: int) -> QuantizerSpec:
    if d < 1 or b < 1:
        raise ValueError("d and b must be >= 1")
    return QuantizerSpec(family="scalar", d=d, b=b, gamma=math.sqrt(d) / 2.0**b)


def _sample_ball(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points uniform in the closed unit ball."""
    g = rng.standard_normal((n, d))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    radii = rng.random(n) ** (1.0 / d)
    return g * radii[:, None]


def _uncovered(points: np.ndarray, centers: np.ndarray, gamma: float) -> np.ndarray:
    """Min distance from each point to the center set, as a coverage mask."""
    d2 = np.sum(points**2, axis=1)[:, None] - 2.0 * points @ centers.T
    d2 = d2 + np.sum(centers**2, axis=1)[None, :]
    return np.sqrt(np.maximum(d2.min(axis=1), 0.0)) > gamma


def build_net(d: int, gamma: float) -> QuantizerSpec:
    """Greedy maximal gamma-packing of the unit ball (hence a gamma-cover).

    Points are pairwise more than gamma apart, which bounds the codebook
    size by (2/gamma + 1)**d; the covering property is verified at build
    time by three consecutive clean rejection-sampling batches of 100 000
    points.  Intended for d <= 6.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    bound = (2.0 / gamma + 1.0) ** d
    if bound > NET_CAP:
        raise ValueError(
            f"codebook bound (2/gamma+1)^d = {bound:.3g} exceeds cap {NET_CAP}"
        )
    rng = np.random.default_rng(20240817)  # fixed: codebooks are reproducible
    centers = [np.zeros(d)]

    def grow(batch: np.ndarray) -> int:
        """Farthest-point insertion of every batch point left uncovered."""
        added = 0
        C = np.array(centers)
        dmin = np.full(len(batch), np.inf)
        for c in C:
            dmin = np.minimum(dmin, np.linalg.norm(batch - c, axis=1))
        while True:
            i = int(np.argmax(dmin))
            if dmin[i] <= gamma:
                return added
            centers.append(batch[i].copy())
            added += 1
            dmin = np.minimum(dmin, np.linalg.norm(batch - batch[i], axis=1))

    # growth phase: mix interior and boundary candidates
    for _ in range(64):
        batch = _sample_ball(rng, 4096, d)
        sphere = rng.standard_normal((1024, d))
        sphere /= np.maximum(np.linalg.norm(sphere, axis=1, keepdims=True), 1e-300)
        if grow(np.vstack([batch, sphere])) == 0:
            break
    # confirmation phase: consecutive clean rejection-sampling batches
    clean = 0
    while clean < 3:
        batch = _sample_ball(rng, 100_000, d)
        mask = _uncovered(batch, np.array(centers), gamma)
        if not mask.any():
            clean += 1
            continue
        clean = 0
        grow(batch[mask])
    return QuantizerSpec(
        family="net", d=d, gamma=gamma, codebook=np.array(centers)
    )


def encode(spec: QuantizerSpec, x, R: float) -> tuple[CodeFrame, np.ndarray]:
    """Quantize x against the range R; returns (frame, reconstruction).

    The scalar family maps each component to the center of its bin among
    2**b equal bins of [-R, R], half-open [lo, hi) with the final bin
    closed, so boundary values go to the upper bin.  The net family snaps
    x to R times its nearest codebook point and sends that index.
    Requires ||x|| <= R.  R = 0 yields the zero vector and an all-zero
    frame of nominal length.
    """
    x = np.asarray(x, dtype=float)
    if R < 0 or not math.isfinite(R):
        raise ValueError("R must be finite and nonnegative")
    if math.sqrt(x.dot(x)) > R:
        raise Overflow(f"||x|| = {np.linalg.norm(x):.6g} exceeds range R = {R:.6g}")
    if R == 0.0:
        nbits = spec.frame_bits
        return CodeFrame(bytes((nbits + 7) // 8), nbits), np.zeros(spec.d)
    if spec.family == "scalar":
        nbins = 1 << spec.b
        width = 2.0 * R / nbins
        # bin numbers, kept as floats for the reconstruction
        k = x + R
        k /= width
        np.floor(k, out=k)
        np.minimum(k, nbins - 1, out=k)  # x_i == R lands in the closed final bin
        return pack_bits(k.astype(np.int64), spec.b), -R + (k + 0.5) * width
    dist = np.linalg.norm(spec.codebook - x / R, axis=1)
    idx = int(np.argmin(dist))  # ties resolve to the lowest index
    return pack_bits([idx], spec.frame_bits), R * spec.codebook[idx]


def decode(spec: QuantizerSpec, frame: CodeFrame, R: float) -> np.ndarray:
    """Rebuild the reconstruction :func:`encode` returned, bit-identically."""
    scalar = spec.family == "scalar"
    idx = (unpack_bits(frame, spec.b, spec.d) if scalar
           else unpack_bits(frame, spec.frame_bits, 1))
    if R == 0.0:
        return np.zeros(spec.d)
    if scalar:
        nbins = 1 << spec.b
        width = 2.0 * R / nbins
        return -R + (idx + 0.5) * width
    return R * spec.codebook[idx[0]]
