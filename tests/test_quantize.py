import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqgd.errors import ConfigError, Overflow
from aqgd.quantize import (CodeFrame, build_net, decode, encode, pack_bits,
                           scalar_spec, unpack_bits)


def cover_lattice(d, gamma):
    """(cube side a, coset shifts) of the lattice build_net uses: Z^d
    with a = 2 gamma/sqrt d, or D3* (body-centred cubic) with
    a = 4 gamma/sqrt 5 at d = 3."""
    if d == 3:
        return 4 * gamma / math.sqrt(5), (0.0, 0.5)
    return 2 * gamma / math.sqrt(d), (0.0,)


def nearest_lattice_point(d, gamma, y):
    """Round in each coset of a Z^d and keep the nearer point (Conway &
    Sloane, IEEE Trans. IT 28(2), 1982)."""
    a, shifts = cover_lattice(d, gamma)
    cands = [a * (np.round(y / a - s) + s) for s in shifts]
    return min(cands, key=lambda c: np.linalg.norm(c - y))


def ball_sample(rng, n, d, R):
    """n points in the closed ball of radius R, half of them on its sphere."""
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    radii = np.where(np.arange(n) % 2 == 0, 1.0, rng.random(n) ** (1.0 / d))
    return x * (R * radii)[:, None] * (1 - 1e-15)


class TestPackBits:
    def test_single_zero_bit(self):
        f = pack_bits([0], 1)
        assert f.bit_len == 1
        assert f.payload == b"\x00"

    def test_hand_packed(self):
        # 5 -> 101, 1 -> 001, concatenated "101001" then zero-padded
        f = pack_bits([5, 1], 3)
        assert f.bit_len == 6
        assert f.payload == bytes([0b10100100])
        assert unpack_bits(f, 3, 2).tolist() == [5, 1]

    def test_overflowing_index_rejected(self):
        with pytest.raises(ValueError):
            pack_bits([8], 3)

    def test_wrong_length_rejected(self):
        f = pack_bits([1, 2, 3], 4)
        with pytest.raises(ValueError):
            unpack_bits(f, 4, 2)

    @given(st.integers(1, 16), st.lists(st.integers(0, 2**16 - 1),
                                        min_size=0, max_size=40))
    @settings(max_examples=300)
    def test_roundtrip_fuzz(self, b, vals):
        vals = [v % (1 << b) for v in vals]
        f = pack_bits(vals, b)
        assert f.bit_len == b * len(vals)
        assert unpack_bits(f, b, len(vals)).tolist() == vals


class TestScalarQuantizer:
    def test_origin_maps_to_bin_center(self):
        # 8 bins of width 0.25 over [-1, 1]; 0 falls in [0, 0.25)
        _, xhat = encode(scalar_spec(1, 3), np.array([0.0]), 1.0)
        assert xhat[0] == pytest.approx(0.125, abs=0)

    def test_boundary_goes_to_upper_bin(self):
        _, xhat = encode(scalar_spec(1, 3), np.array([0.25]), 1.0)
        assert xhat[0] == pytest.approx(0.375, abs=0)

    def test_range_endpoint_in_final_bin(self):
        _, xhat = encode(scalar_spec(1, 3), np.array([1.0]), 1.0)
        assert xhat[0] == pytest.approx(0.875, abs=0)

    def test_zero_range_degenerate(self):
        frame, xhat = encode(scalar_spec(4, 3), np.zeros(4), 0.0)
        assert np.array_equal(xhat, np.zeros(4))
        assert frame.bit_len == 12
        assert set(frame.payload) <= {0}

    def test_overflow_raises(self):
        with pytest.raises(Overflow):
            encode(scalar_spec(2, 4), np.array([1.5, 0.0]), 1.0)

    def test_decode_bit_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 12))
            b = int(rng.integers(1, 12))
            R = float(rng.uniform(0.1, 10))
            x = rng.standard_normal(d)
            x *= rng.random() * R / max(np.linalg.norm(x), 1e-12)
            spec = scalar_spec(d, b)
            frame, xhat = encode(spec, x, R)
            assert np.array_equal(decode(spec, frame, R), xhat)

    @given(st.integers(1, 10), st.integers(1, 12), st.floats(0.01, 100.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_contraction_property(self, d, b, R, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(d)
        x *= rng.random() * R / max(np.linalg.norm(x), 1e-12)
        _, xhat = encode(scalar_spec(d, b), x, R)
        assert np.linalg.norm(xhat - x) <= (math.sqrt(d) / 2**b) * R

    def test_frame_bits(self):
        spec = scalar_spec(7, 5)
        assert spec.frame_bits == 35
        frame, _ = encode(spec, np.zeros(7), 1.0)
        assert frame.bit_len == 35


class TestNetQuantizer:
    def test_interval_covering_size(self):
        spec = build_net(1, 0.5)
        pts = np.sort(spec.codebook.ravel())
        assert len(pts) <= 5
        grid = np.linspace(-1, 1, 2001)
        dist = np.abs(grid[:, None] - pts[None, :]).min(axis=1)
        assert dist.max() <= 0.5 + 1e-12

    def test_wide_gamma_tiny_codebook(self):
        spec = build_net(1, 0.999)
        assert 1 <= len(spec.codebook) <= 3

    def test_planar_codebook_within_volume_bound(self):
        gamma = (1.0 / 3.0) * (1.0 - 1.0 / 10.0)
        spec = build_net(2, gamma)
        assert len(spec.codebook) <= 58

    def test_covering_monte_carlo(self):
        gamma = 0.3
        spec = build_net(2, gamma)
        rng = np.random.default_rng(11)
        g = rng.standard_normal((100_000, 2))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = g * np.sqrt(rng.random(100_000))[:, None]
        d2 = ((pts[:, None, :] - spec.codebook[None, :, :]) ** 2).sum(-1)
        assert np.sqrt(d2.min(axis=1).max()) <= gamma + 1e-12

    def test_codeword_fixed_point(self):
        spec = build_net(2, 0.4)
        R = 2.5
        x = R * spec.codebook[3]
        _, xhat = encode(spec, x, R)
        assert np.array_equal(xhat, x)

    def test_origin_error_bounded(self):
        spec = build_net(3, 0.5)
        frame, xhat = encode(spec, np.zeros(3), 4.0)
        assert np.linalg.norm(xhat) <= 0.5 * 4.0
        assert frame.bit_len == spec.frame_bits

    def test_random_error_bounded(self):
        spec = build_net(2, 0.35)
        rng = np.random.default_rng(13)
        R = 3.0
        for _ in range(2000):
            x = rng.standard_normal(2)
            x *= rng.random() * R / np.linalg.norm(x)
            frame, xhat = encode(spec, x, R)
            assert np.linalg.norm(xhat - x) <= 0.35 * R + 1e-12
            assert np.array_equal(decode(spec, frame, R), xhat)

    def test_overflow_raises(self):
        spec = build_net(2, 0.4)
        with pytest.raises(Overflow):
            encode(spec, np.array([2.0, 0.0]), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_encode_returns_the_nearest_codeword(self, d):
        gamma, R = 0.3, 2.5
        spec = build_net(d, gamma)
        rng = np.random.default_rng(100 + d)
        for x in ball_sample(rng, 400, d, R):
            _, xhat = encode(spec, x, R)
            brute = np.linalg.norm(R * spec.codebook - x, axis=1).min()
            assert np.linalg.norm(xhat - x) == pytest.approx(brute, rel=1e-12)
            # the codebook holds the nearest point of the whole lattice
            p = nearest_lattice_point(d, gamma, x / R)
            assert np.linalg.norm(xhat / R - x / R) <= \
                np.linalg.norm(p - x / R) * (1 + 1e-12) + 1e-15

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_deep_hole_error_equals_the_covering_radius(self, d):
        # the radius is not smaller than claimed: a deep hole of the
        # lattice sits exactly gamma from its nearest codeword
        gamma, R = 0.3, 2.0
        a, _ = cover_lattice(d, gamma)
        hole = a * (np.array([0.5, 0.25, 0.0]) if d == 3 else np.full(d, 0.5))
        _, xhat = encode(build_net(d, gamma), R * hole, R)
        assert np.linalg.norm(xhat - R * hole) == pytest.approx(gamma * R,
                                                                rel=1e-12)

    @pytest.mark.parametrize("d,gamma", [(1, 0.1), (1, 0.3), (2, 0.1),
                                         (2, 0.3), (3, 0.1), (3, 0.3),
                                         (4, 0.2), (4, 0.3)])
    def test_dense_sample_within_covering_radius(self, d, gamma):
        spec = build_net(d, gamma)
        rng = np.random.default_rng(7 * d)
        R = 1.5
        worst = max(np.linalg.norm(encode(spec, x, R)[1] - x)
                    for x in ball_sample(rng, 1500, d, R))
        assert worst <= gamma * R * (1 + 1e-12)

    def test_lowdim_codebook(self):
        # D3* at the benchmark's gamma: 113 codewords, 7-bit frames
        spec = build_net(3, (1.0 / 3.0) * (1.0 - 1.0 / 10.0))
        assert len(spec.codebook) == 113 and spec.frame_bits == 7
        norms = np.linalg.norm(spec.codebook, axis=1)
        assert np.array_equal(spec.codebook[0], np.zeros(3))
        assert np.all(np.diff(norms) >= -1e-12)
        assert norms.max() <= 1.3 + 1e-12

    def test_oversized_net_rejected(self):
        with pytest.raises(ConfigError, match=r"d = 10, gamma = 0\.3 .* "
                                              r"137858491849 lattice points"):
            build_net(10, 0.3)

    def test_deterministic_build(self):
        a = build_net(2, 0.45)
        b = build_net(2, 0.45)
        assert np.array_equal(a.codebook, b.codebook)


class TestDispatch:
    def test_scalar_roundtrip(self):
        spec = scalar_spec(3, 6)
        x = np.array([0.1, -0.2, 0.05])
        frame, xhat = encode(spec, x, 1.0)
        assert np.array_equal(decode(spec, frame, 1.0), xhat)

    def test_net_roundtrip(self):
        spec = build_net(2, 0.4)
        x = np.array([0.3, -0.1])
        frame, xhat = encode(spec, x, 1.0)
        assert np.array_equal(decode(spec, frame, 1.0), xhat)


@pytest.mark.parametrize("spec", [scalar_spec(3, 4), build_net(3, 0.5)],
                         ids=["scalar", "net"])
def test_shared_range_contract(spec):
    x = np.array([0.3, -0.4, 0.0])
    for R in (-1.0, math.inf):
        with pytest.raises(ValueError):
            encode(spec, x, R)
    with pytest.raises(Overflow):
        encode(spec, x, 0.49)
    frame, xhat = encode(spec, np.zeros(3), 0.0)
    assert np.array_equal(xhat, np.zeros(3))
    assert frame.bit_len == spec.frame_bits
    assert set(frame.payload) <= {0}
    assert np.array_equal(decode(spec, frame, 0.0), np.zeros(3))
    short = CodeFrame(payload=frame.payload, bit_len=frame.bit_len - 1)
    for R in (0.0, 1.0):
        with pytest.raises(ValueError):
            decode(spec, short, R)
