from __future__ import annotations

import functools
import math
import operator

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spherebeam import (
    ArrayKind,
    ArrayGeometry,
    DegenerateGeometry,
    InvalidWavelength,
    SphericalPoint,
    TargetInsideArray,
    ValidationError,
    channel_energy,
    golden_spiral_saa,
    los_channel,
    upa,
)
from spherebeam.channel import FOUR_PI, column_sums, los_gains
from spherebeam.geometry import TWO_PI

FIG4_TARGET = SphericalPoint(30.0, math.pi / 6, math.pi / 6)


def unmasked_gains(positions, normals, tx, ty, tz, wavelength):
    """Reference kernel: every entry evaluated, hidden ones then set to zero."""
    tx = np.asarray(tx, dtype=np.float64)[..., np.newaxis]
    ty = np.asarray(ty, dtype=np.float64)[..., np.newaxis]
    tz = np.asarray(tz, dtype=np.float64)[..., np.newaxis]
    dx = tx - positions[:, 0]
    dy = ty - positions[:, 1]
    dz = tz - positions[:, 2]
    dist = np.sqrt(dx * dx + dy * dy + dz * dz)
    visible = dx * normals[:, 0] + dy * normals[:, 1] + dz * normals[:, 2] > 0.0
    amp = wavelength / (FOUR_PI * dist)
    phase = (TWO_PI / wavelength) * dist
    return np.where(visible, amp * np.exp(-1j * phase), 0j), visible


def random_array(rng):
    if rng.random() < 0.5:
        return golden_spiral_saa(int(rng.integers(4, 200)), float(rng.uniform(0.1, 2.0)))
    side = int(rng.integers(2, 13))
    return upa(side * side, float(rng.uniform(0.001, 0.05)))


def probes_with_tangents(rng, g, count):
    """Random probes, plus probes that graze elements' tangent planes to
    within rounding on either side."""
    r = rng.uniform(3.0, 100.0, count)
    theta = rng.uniform(0.0, math.pi, count)
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    points = [r * np.sin(theta) * np.cos(phi), r * np.sin(theta) * np.sin(phi), r * np.cos(theta)]
    grazing = []
    for k in rng.integers(0, g.n, count):
        n = g.normals[k]
        u = np.cross(n, rng.standard_normal(3))
        u /= np.linalg.norm(u)
        s = rng.uniform(1.0, 30.0)
        grazing.append(g.positions[k] + s * u + rng.choice([-1e-13, 0.0, 1e-13]) * s * n)
    grazing = np.asarray(grazing)
    return [np.concatenate([p, grazing[:, i]]) for i, p in enumerate(points)]


class TestLosChannel:
    def test_visible_count_regression(self):
        # Counted with scalar math over the same construction, independently.
        g = golden_spiral_saa(100, 0.5)
        h = los_channel(g, FIG4_TARGET, 0.01)
        assert int(np.count_nonzero(h.visible)) == 50

    def test_gain_magnitude_and_masking(self):
        g = golden_spiral_saa(100, 0.5)
        h = los_channel(g, FIG4_TARGET, 0.01)
        tx, ty, tz = FIG4_TARGET.to_cartesian()
        d = np.sqrt(np.sum((g.positions - [tx, ty, tz]) ** 2, axis=1))
        expected_amp = 0.01 / (4.0 * math.pi * d)
        mag = np.sqrt(h.gains.real**2 + h.gains.imag**2)
        assert_allclose(mag[h.visible], expected_amp[h.visible], rtol=1e-12)
        assert_array_equal(h.gains[~h.visible], np.zeros(np.count_nonzero(~h.visible), dtype=complex))

    def test_gain_phase_is_propagation_delay(self):
        g = golden_spiral_saa(32, 0.5)
        lam = 0.02
        h = los_channel(g, FIG4_TARGET, lam)
        tx, ty, tz = FIG4_TARGET.to_cartesian()
        d = np.sqrt(np.sum((g.positions - [tx, ty, tz]) ** 2, axis=1))
        # unwinding the delay phase should leave a positive real amplitude
        unwound = h.gains * np.exp(1j * (2.0 * math.pi / lam) * d)
        assert_allclose(unwound.imag[h.visible], 0.0, atol=1e-19)
        assert np.all(unwound.real[h.visible] > 0.0)

    def test_scalar_predicate_matches_vector_mask(self):
        rng = np.random.default_rng(21)
        g = golden_spiral_saa(60, 0.7)
        for _ in range(20):
            target = SphericalPoint(
                float(rng.uniform(1.0, 40.0)),
                float(rng.uniform(0.0, math.pi)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            h = los_channel(g, target, 0.01)
            tx, ty, tz = target.to_cartesian()
            _, visible, _ = los_gains(g.positions, g.normals, tx, ty, tz, 0.01)
            # reference: each element's normal dotted with its own offset to the target
            scalar = []
            for (px, py, pz), (nx, ny, nz) in zip(g.positions, g.normals):
                scalar.append((tx - px) * nx + (ty - py) * ny + (tz - pz) * nz > 0.0)
            assert_array_equal(visible, np.asarray(scalar))
            assert_array_equal(visible, h.visible)

    def test_upa_hemisphere_rule(self):
        g = upa(100, 0.005)
        front = los_channel(g, SphericalPoint(30.0, math.pi / 3, 1.0), 0.01)
        assert np.all(front.visible)
        rear = los_channel(g, SphericalPoint(30.0, 3.0 * math.pi / 4, 1.0), 0.01)
        assert not np.any(rear.visible)
        assert_array_equal(rear.gains, np.zeros(100, dtype=complex))

    def test_target_inside_array_raises(self):
        g = golden_spiral_saa(50, 0.5)
        with pytest.raises(TargetInsideArray):
            los_channel(g, SphericalPoint(0.4, 1.0, 1.0), 0.01)
        with pytest.raises(TargetInsideArray):
            los_channel(g, SphericalPoint(0.5, 1.0, 1.0), 0.01)

    @pytest.mark.parametrize("lam", [0.0, -0.01, math.inf, math.nan])
    def test_bad_wavelength_raises(self, lam):
        g = golden_spiral_saa(10, 0.5)
        with pytest.raises(InvalidWavelength):
            los_channel(g, FIG4_TARGET, lam)

    @pytest.mark.parametrize("r, lam", [(1e300, 0.01), (1e154, 0.01), (30.0, 1e-309)])
    def test_overflowing_distance_or_phase_raises(self, r, lam):
        # the squared distance (or the phase 2*pi*d/lam) would overflow float64
        g = golden_spiral_saa(10, 0.5)
        with pytest.raises(ValidationError, match="overflow") as info:
            los_channel(g, SphericalPoint(r, 1.0, 1.0), lam)
        assert info.value.field == "target"

    def test_target_on_element_raises(self):
        # synthetic single-element geometry whose element sits exactly at
        # the cartesian image of the probe point
        positions = np.array([[0.0, 0.0, 1.0]])
        normals = np.array([[0.0, 0.0, 1.0]])
        g = ArrayGeometry(ArrayKind.SPIRAL, positions, normals, radius_m=0.5)
        with pytest.raises(DegenerateGeometry):
            los_channel(g, SphericalPoint(1.0, 0.0, 0.0), 0.01)

    def test_channel_energy_matches_direct_sum(self):
        g = golden_spiral_saa(40, 0.5)
        h = los_channel(g, FIG4_TARGET, 0.01)
        direct = sum(float(v.real * v.real + v.imag * v.imag) for v in h.gains)
        assert_allclose(channel_energy(h), direct, rtol=1e-14)
        assert channel_energy(h) > 0.0


class TestVisibleOnlyEvaluation:
    """``los_gains`` evaluates the facing entries only and returns the whole
    element-major block; no bit may differ from evaluating every entry."""

    def test_gains_match_the_unmasked_kernel_bit_for_bit(self):
        rng = np.random.default_rng(606)
        grazed = 0
        for _ in range(24):
            g = random_array(rng)
            wl = float(rng.uniform(0.001, 0.1))
            tx, ty, tz = (c.reshape(2, -1) for c in probes_with_tangents(rng, g, 40))
            gains, visible, count = los_gains(g.positions, g.normals, tx, ty, tz, wl)
            # the reference is target-major; los_gains is element-major
            ref, ref_visible = (
                np.ascontiguousarray(np.moveaxis(a, -1, 0))
                for a in unmasked_gains(g.positions, g.normals, tx, ty, tz, wl)
            )
            assert gains.shape == visible.shape == ref.shape == (g.n, 2, 40)
            assert gains.flags.c_contiguous
            assert_array_equal(visible, ref_visible)
            assert count == np.count_nonzero(ref_visible)
            assert_array_equal(gains[visible].view(np.uint64), ref[ref_visible].view(np.uint64))
            # a hidden entry is exactly +0+0j
            assert not np.any(gains[~visible].view(np.uint64))
            facing = (
                (tx[..., None] - g.positions[:, 0]) * g.normals[:, 0]
                + (ty[..., None] - g.positions[:, 1]) * g.normals[:, 1]
                + (tz[..., None] - g.positions[:, 2]) * g.normals[:, 2]
            )
            grazed += int(np.count_nonzero(np.abs(facing) < 1e-9))
        # the grazing probes really sit on the visibility boundary
        assert grazed > 100

    def test_hidden_entries_are_positive_zero(self):
        rng = np.random.default_rng(607)
        hidden = 0
        for _ in range(12):
            g = random_array(rng)
            x, y, z = probes_with_tangents(rng, g, 30)
            r = np.sqrt(x * x + y * y + z * z)
            for target in zip(r, np.arccos(z / r), np.arctan2(y, x) % TWO_PI):
                h = los_channel(g, SphericalPoint(*map(float, target)), 0.01)
                assert not np.any(h.gains[~h.visible].view(np.uint64))
                assert np.all(np.abs(h.gains[h.visible]) > 0.0)
                hidden += int(np.count_nonzero(~h.visible))
        assert hidden > 0


class TestPlatformDeterminism:
    """Regression guards for the numeric identities the sweeps rely on."""

    def test_cumsum_matches_sequential_reduction(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(257) + 1j * rng.standard_normal(257)
            assert np.cumsum(x)[-1] == functools.reduce(operator.add, x)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("m", [2, 3, 71, 256])
    def test_axis0_add_reduce_adds_rows_in_element_order(self, m, dtype):
        # column_sums rests on this: an axis-0 reduction of a C-contiguous
        # (k, m) block with m >= 2 adds whole rows one after another from
        # +0.0, so each column is summed in element order
        rng = np.random.default_rng(m)
        for _ in range(12):
            k = int(rng.integers(1, 1200))
            block = rng.standard_normal((k, m)) * 10.0 ** rng.integers(-20, 20, (k, m))
            if dtype is np.complex128:
                block = block + 1j * rng.standard_normal((k, m)) * 10.0 ** rng.integers(-20, 20, (k, m))
            block[rng.random((k, m)) < 0.2] = 0.0
            block[rng.random((k, m)) < 0.1] *= -0.0
            expected = np.zeros(m, dtype)
            for row in block:
                expected = expected + row
            got = np.add.reduce(block, axis=0)
            assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
            assert_array_equal(column_sums(block).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_one_target_sum_is_sequential(self, dtype):
        # a (k,) or (k, 1) block has one sum, which column_sums adds one
        # element after another from the first
        rng = np.random.default_rng(8)
        for k in (1, 2, 9, 128, 257, 1000):
            x = rng.standard_normal(k) * 10.0 ** rng.integers(-20, 20, k)
            if dtype is np.complex128:
                x = x + 1j * rng.standard_normal(k) * 10.0 ** rng.integers(-20, 20, k)
            expected = functools.reduce(operator.add, x.tolist())
            for block in (x, x.reshape(k, 1)):
                got = column_sums(block)
                assert got.shape == block.shape[1:]
                assert got.reshape(-1)[0] == expected

    def test_one_dimensional_add_reduce_is_not_sequential(self):
        # why a one-target block is summed apart: a 1-D reduction, and the
        # (k, 1) one numpy folds into it, sums pairwise and changes bits
        rng = np.random.default_rng(9)
        x = rng.standard_normal(1000)
        sequential = functools.reduce(operator.add, x.tolist())
        assert np.add.reduce(x) != sequential
        assert np.add.reduce(x.reshape(-1, 1), axis=0)[0] != sequential
        assert column_sums(x) == sequential

    def test_complex_product_into_a_separate_array_equals_the_fresh_product(self):
        # los_gains and coherent_power write every complex product into an
        # array that is neither operand: a product written over an operand
        # differs from the fresh product in the last bit on some inputs
        rng = np.random.default_rng(6)
        for _ in range(2000):
            n = int(rng.integers(1, 300))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            out = np.empty(n, np.complex128)
            np.multiply(a, b, out=out)
            assert_array_equal(out.view(np.uint64), (a * b).view(np.uint64))
            # a real factor, as the amplitude is
            np.multiply(a.real, b, out=out)
            assert_array_equal(out.view(np.uint64), (a.real * b).view(np.uint64))

    def test_array_trig_matches_scalar_trig(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(-10.0, 10.0, size=64)
        sins = np.sin(v)
        coss = np.cos(v)
        for i in range(64):
            assert sins[i] == math.sin(v[i])
            assert coss[i] == math.cos(v[i])
