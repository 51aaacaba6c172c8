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
from spherebeam.channel import los_gains

FIG4_TARGET = SphericalPoint(30.0, math.pi / 6, math.pi / 6)


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


class TestPlatformDeterminism:
    """Regression guards for the numeric identities the sweeps rely on."""

    def test_cumsum_matches_sequential_reduction(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(257) + 1j * rng.standard_normal(257)
            assert np.cumsum(x)[-1] == functools.reduce(operator.add, x)

    def test_array_trig_matches_scalar_trig(self):
        rng = np.random.default_rng(4)
        v = rng.uniform(-10.0, 10.0, size=64)
        sins = np.sin(v)
        coss = np.cos(v)
        for i in range(64):
            assert sins[i] == math.sin(v[i])
            assert coss[i] == math.cos(v[i])
