from __future__ import annotations

import functools
import math
import operator

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherebeam import (
    DegeneratePattern,
    DimensionMismatch,
    NoVisibleElements,
    SphericalPoint,
    ValidationError,
    beam_response,
    channel_energy,
    conjugate_weights,
    golden_spiral_saa,
    los_channel,
    normalize_pattern,
    to_db,
    upa,
)
from spherebeam.beamforming import coherent_power
from spherebeam.channel import gain_energy

FOCAL = SphericalPoint(30.0, math.pi / 6, math.pi / 6)

# Frozen from a standalone scalar-arithmetic computation of the same
# quantities (golden spiral n=100 R=0.5, wavelength 0.01).
RESPONSE_AT_FOCAL = 3.576815759320697e-08
# Focal response over the response at a probe 10 degrees away in theta.
FOCAL_TO_OFFSET_RATIO = 24.50267848730971


class TestConjugateWeights:
    def test_unit_norm(self):
        g = golden_spiral_saa(100, 0.5)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        wv = w
        norm_sq = float(np.cumsum(wv.real * wv.real + wv.imag * wv.imag)[-1])
        assert_allclose(norm_sq, 1.0, rtol=1e-14)

    def test_weights_zero_off_visible_set(self):
        g = golden_spiral_saa(100, 0.5)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        hidden = np.count_nonzero(~h.visible)
        np.testing.assert_array_equal(w[~h.visible], np.zeros(hidden, dtype=complex))

    def test_weights_align_channel_phase(self):
        # w_k h_k must be real positive for every visible element, that is
        # the whole point of phase conjugation
        g = golden_spiral_saa(64, 0.5)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        prod = w * h.gains
        assert np.all(prod.real[h.visible] > 0.0)
        assert_allclose(prod.imag[h.visible], 0.0, atol=1e-20)

    def test_no_visible_elements_raises(self):
        g = upa(16, 0.005)
        h = los_channel(g, SphericalPoint(30.0, 3.0 * math.pi / 4, 0.3), 0.01)
        with pytest.raises(NoVisibleElements):
            conjugate_weights(h)

    @pytest.mark.parametrize("wavelength", [1e-300, 1e160], ids=["underflow", "overflow"])
    def test_underflowed_energy_is_not_mistaken_for_no_visibility(self, wavelength):
        # half the elements face the target, but at 1e-300 m each gain is
        # about 8e-303 and its square underflows to zero, and at 1e160 m
        # each square is about 1e314 and overflows
        g = golden_spiral_saa(16, 0.3)
        h = los_channel(g, SphericalPoint(10.0, math.pi / 4, math.pi / 4), wavelength)
        assert np.count_nonzero(h.visible) == 8
        with np.errstate(over="ignore"):
            assert channel_energy(h) == (0.0 if wavelength < 1.0 else math.inf)
        with pytest.raises(ValidationError, match="underflows to 0" if wavelength < 1.0 else "overflows") as info:
            conjugate_weights(h)
        assert not isinstance(info.value, NoVisibleElements)
        assert info.value.field == "wavelength"


class TestBeamResponse:
    def test_focal_response_regression(self):
        g = golden_spiral_saa(100, 0.5)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        assert_allclose(beam_response(w, h), RESPONSE_AT_FOCAL, rtol=1e-12)

    def test_offset_ratio_regression(self):
        g = golden_spiral_saa(100, 0.5)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        probe = SphericalPoint(30.0, math.pi / 6 + 10.0 * math.pi / 180.0, math.pi / 6)
        h_probe = los_channel(g, probe, 0.01)
        ratio = beam_response(w, h) / beam_response(w, h_probe)
        # the off-beam response is a near-cancellation, so the quotient
        # carries more roundoff than either factor
        assert_allclose(ratio, FOCAL_TO_OFFSET_RATIO, rtol=1e-9)

    def test_matched_response_equals_channel_energy(self):
        rng = np.random.default_rng(11)
        g = golden_spiral_saa(80, 0.5)
        for _ in range(25):
            target = SphericalPoint(
                float(rng.uniform(1.0, 50.0)),
                float(rng.uniform(0.05, math.pi - 0.05)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            h = los_channel(g, target, 0.01)
            w = conjugate_weights(h)
            assert_allclose(beam_response(w, h), channel_energy(h), rtol=1e-9)

    def test_mismatched_response_bounded_by_energy(self):
        rng = np.random.default_rng(12)
        g = golden_spiral_saa(80, 0.5)
        h0 = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h0)
        for _ in range(100):
            probe = SphericalPoint(
                float(rng.uniform(1.0, 50.0)),
                float(rng.uniform(0.05, math.pi - 0.05)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
            )
            hp = los_channel(g, probe, 0.01)
            bound = channel_energy(hp) * (1.0 + 1e-12)
            assert beam_response(w, hp) <= bound

    def test_dimension_mismatch_raises(self):
        g = golden_spiral_saa(50, 0.5)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        g2 = golden_spiral_saa(49, 0.5)
        h2 = los_channel(g2, FOCAL, 0.01)
        with pytest.raises(DimensionMismatch):
            beam_response(w, h2)


def element_loop(columns):
    """Sum of each column's values, added one element after another."""
    return [functools.reduce(operator.add, col) for col in columns]


def assert_sums_match_a_python_loop(weights, gains, visible):
    """The program's sums over an element-major block of ``gains``, with
    the hidden entries at ``+0+0j`` as ``los_gains`` returns them, must
    equal, bit for bit, direct summation over every entry in element order."""
    gains = np.where(visible, gains, 0j)
    n = gains.shape[0]
    columns = gains.reshape(n, -1)
    sums = element_loop((weights[:, None] * columns).T.tolist())
    power = [s.real * s.real + s.imag * s.imag for s in sums]
    energy = element_loop([[g.real * g.real + g.imag * g.imag for g in col] for col in columns.T.tolist()])

    got_power = np.asarray(coherent_power(weights, gains))
    got_energy = np.asarray(gain_energy(gains))
    assert got_power.shape == got_energy.shape == gains.shape[1:]
    np.testing.assert_array_equal(got_power.reshape(-1).view(np.uint64), np.array(power).view(np.uint64))
    np.testing.assert_array_equal(got_energy.reshape(-1).view(np.uint64), np.array(energy).view(np.uint64))


class TestElementOrderReduction:
    """Sums over elements must be direct summation in element order. The
    sweep-versus-``beam_response`` properties cannot see a reduction that
    is pairwise everywhere, so this compares with a Python loop. Both add
    every entry of the block, hidden zeros included."""

    @pytest.mark.parametrize("n", [1, 9, 100, 1000])
    @pytest.mark.parametrize("probes", [(), (1,), (2,), (1024,)], ids=["flat", "1probe", "2probes", "1024probes"])
    def test_sums_match_a_python_loop_bit_for_bit(self, n, probes):
        rng = np.random.default_rng(n * 7919 + sum(probes))
        shape = (n,) + probes
        gains = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # hidden elements, hidden entries and probe columns no element faces
        visible = rng.random(shape) < 0.7
        visible[rng.random(n) < 0.3] = False
        if probes and probes[0] > 1:
            visible[:, rng.integers(0, probes[0], max(1, probes[0] // 8))] = False
        # signed zeros in weights (a hidden weight is 0-0j) and in gains
        weights[rng.random(n) < 0.2] = complex(0.0, -0.0)
        weights.real[rng.random(n) < 0.1] = -0.0
        gains.real[rng.random(shape) < 0.05] = -0.0
        gains.imag[rng.random(shape) < 0.05] = -0.0
        assert_sums_match_a_python_loop(weights, gains, visible)

    @pytest.mark.parametrize("probes", [(), (1,), (3,)], ids=["flat", "1probe", "3probes"])
    def test_sums_that_cancel_partway_then_continue(self, probes):
        # exact +-1 and +-1j weights: the running sum is exactly zero after
        # the second element, hidden zeros follow, and then it continues
        weights = np.array([1.0, -1.0 + 0j, 1j, complex(0.0, -0.0), -1j, 1.0, -1.0, 1.0])
        visible = np.array([True, True, False, False, True, True, True, False])
        gains = np.array([2.5 - 1.25j, 2.5 - 1.25j, 7.0, 9.0, 0.5 + 3.0j, -0.0 + 4.0j, 3.0 - 0.0j, 5.0])
        gains = gains.reshape((8,) + (1,) * len(probes)) * np.ones(probes)
        visible = np.broadcast_to(visible.reshape((8,) + (1,) * len(probes)), gains.shape).copy()
        products = weights[:, None] * gains.reshape(8, -1)
        assert np.all(products[0] + products[1] == 0)
        if probes and probes[0] > 1:
            # a column whose only visible terms cancel to exactly zero at the end
            visible[:, 1] = [False, False, False, False, True, True, True, False]
            gains[6, 1] = -1j * (0.5 + 3.0j) + (-0.0 + 4.0j)
            products = weights[:, None] * gains.reshape(8, -1)
            assert products[4, 1] + products[5, 1] + products[6, 1] == 0
        assert_sums_match_a_python_loop(weights, gains, visible)


class TestDbAndNormalization:
    def test_to_db_floor_is_exact(self):
        vals = np.array([1.0, 0.0, 1e-301, 0.25])
        db = to_db(vals)
        assert db[0] == 0.0
        assert db[1] == -300.0
        # tiny but nonzero values are reported faithfully, only exact
        # zeros get pinned
        assert_allclose(db[2], -3010.0, rtol=1e-15)
        assert_allclose(db[3], 10.0 * math.log10(0.25), rtol=1e-15)

    def test_normalize_grid_max(self):
        p = np.array([[0.5, 1.0], [2.0, 0.0]])
        linear = normalize_pattern(p)
        assert_allclose(linear, p / 2.0, rtol=0)
        assert linear.max() == 1.0

    def test_normalize_focal_reference(self):
        p = np.array([[0.5, 1.0], [2.0, 0.0]])
        linear = normalize_pattern(p, reference=0.5)
        assert_allclose(linear, p / 0.5, rtol=0)

    def test_normalize_rejects_bad_inputs(self):
        with pytest.raises(DegeneratePattern):
            normalize_pattern(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            normalize_pattern(np.array([[1.0, -0.5]]))
        with pytest.raises(ValueError):
            normalize_pattern(np.empty((0, 0)))
        with pytest.raises(ValueError):
            normalize_pattern(np.ones((2, 2)), reference=-1.0)
