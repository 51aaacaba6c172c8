from __future__ import annotations

import math

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
        wv = w.weights
        norm_sq = float(np.cumsum(wv.real * wv.real + wv.imag * wv.imag)[-1])
        assert_allclose(norm_sq, 1.0, rtol=1e-14)

    def test_weights_zero_off_visible_set(self):
        g = golden_spiral_saa(100, 0.5)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        hidden = np.count_nonzero(~h.visible)
        np.testing.assert_array_equal(w.weights[~h.visible], np.zeros(hidden, dtype=complex))

    def test_weights_align_channel_phase(self):
        # w_k h_k must be real positive for every visible element, that is
        # the whole point of phase conjugation
        g = golden_spiral_saa(64, 0.5)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        prod = w.weights * h.gains
        assert np.all(prod.real[h.visible] > 0.0)
        assert_allclose(prod.imag[h.visible], 0.0, atol=1e-20)

    def test_no_visible_elements_raises(self):
        g = upa(16, 0.005)
        h = los_channel(g, SphericalPoint(30.0, 3.0 * math.pi / 4, 0.3), 0.01)
        with pytest.raises(NoVisibleElements):
            conjugate_weights(h)

    def test_underflowed_energy_is_not_mistaken_for_no_visibility(self):
        # half the elements face the target, but at this wavelength each
        # gain is about 8e-303 and its square underflows to zero
        g = golden_spiral_saa(16, 0.3)
        h = los_channel(g, SphericalPoint(10.0, math.pi / 4, math.pi / 4), 1e-300)
        assert np.count_nonzero(h.visible) == 8
        assert channel_energy(h) == 0.0
        with pytest.raises(ValidationError, match="underflows") as info:
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
        linear, db = normalize_pattern(p, "grid_max")
        assert_allclose(linear, p / 2.0, rtol=0)
        assert linear.max() == 1.0
        np.testing.assert_array_equal(db, to_db(linear))

    def test_normalize_focal_reference(self):
        p = np.array([[0.5, 1.0], [2.0, 0.0]])
        linear, _ = normalize_pattern(p, "focal_response", reference=0.5)
        assert_allclose(linear, p / 0.5, rtol=0)

    def test_normalize_rejects_bad_inputs(self):
        with pytest.raises(DegeneratePattern):
            normalize_pattern(np.zeros((3, 3)), "grid_max")
        with pytest.raises(ValueError):
            normalize_pattern(np.array([[1.0, -0.5]]), "grid_max")
        with pytest.raises(ValueError):
            normalize_pattern(np.empty((0, 0)), "grid_max")
        with pytest.raises(ValueError):
            normalize_pattern(np.ones((2, 2)), "focal_response")
        with pytest.raises(ValueError):
            normalize_pattern(np.ones((2, 2)), "focal_response", reference=-1.0)
        with pytest.raises(ValueError):
            normalize_pattern(np.ones((2, 2)), "banana")
