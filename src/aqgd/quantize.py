"""Range-parameterized quantizers and bit-exact frame packing.

The worker and the server share only the frame and the range R.
:func:`encode` turns a vector with ||x|| <= R into a frame plus its
reconstruction, and :func:`decode` rebuilds that reconstruction
bit-identically from the frame and the shared (spec, R).  Two quantizer
families are provided: a per-component uniform scalar quantizer over
[-R, R] and a codebook quantizer built from a lattice covering of the
unit ball.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, Overflow

# build_net refuses to enumerate more candidate lattice points than this
NET_MAX_POINTS = 1_000_000


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
    (lattice codebook covering the unit ball).  ``gamma`` is the
    worst-case relative error: sqrt(d)/2**b for the scalar family, the
    covering radius for the net family.  A net reconstruction can have
    norm up to (1 + gamma) R, while its error stays <= gamma R.
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


def build_net(d: int, gamma: float) -> QuantizerSpec:
    """Codebook of a lattice gamma-cover of the unit ball.

    d = 3 uses D3* (body-centred cubic) with cube side a = 4 gamma/sqrt 5,
    whose covering radius is a sqrt(5)/4; every other d uses Z^d with side
    a = 2 gamma/sqrt d, radius a sqrt(d)/2 (Conway & Sloane, *Sphere
    Packings, Lattices and Groups*).  Both radii equal gamma.  The codebook
    is every lattice point of norm <= 1 + gamma: each x in the unit ball
    has a lattice point within gamma, whose norm is then <= 1 + gamma, so
    the nearest codeword is the nearest lattice point and the cover holds
    by construction.  Codewords are sorted by norm, then coordinates, so
    the origin comes first.  A build that would enumerate more than
    NET_MAX_POINTS candidates raises ConfigError before allocating them.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    # lattice points are h * n, n an integer vector whose entries all have
    # the parity of one offset; h is half the cube side a
    if d == 3:
        h, offsets = 2.0 * gamma / math.sqrt(5.0), (0, 1)
    else:
        h, offsets = gamma / math.sqrt(d), (0,)
    k = math.floor((1.0 + gamma) / h)  # |n_i| <= k in the box around the ball
    axes = [np.arange(-k + (k - o) % 2, k + 1, 2) for o in offsets]
    count = sum(len(ax) ** d for ax in axes)
    if count > NET_MAX_POINTS:
        raise ConfigError(
            f"net quantizer at d = {d}, gamma = {gamma:.6g} would enumerate "
            f"{count} lattice points, above the cap of {NET_MAX_POINTS}")
    n = np.vstack([ax[np.indices((len(ax),) * d).reshape(d, -1).T]
                   for ax in axes])
    sq = np.einsum("ij,ij->i", n, n)
    # the slack keeps a point on the sphere of radius 1 + gamma
    keep = sq <= ((1.0 + gamma) / h) ** 2 * (1.0 + 1e-12)
    n, sq = n[keep], sq[keep]
    n = n[np.lexsort((*n.T[::-1], sq))]
    return QuantizerSpec(family="net", d=d, gamma=gamma, codebook=h * n)


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
