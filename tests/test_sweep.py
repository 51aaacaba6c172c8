from __future__ import annotations

import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_rotation

from spherebeam import sweep
from spherebeam import (
    AllBeamsInfeasible,
    AngularSweepSpec,
    SphericalPoint,
    TargetInsideArray,
    angular_sweep,
    beam_response,
    conjugate_weights,
    distance_sweep,
    golden_spiral_saa,
    los_channel,
    multi_focal_overlay,
    rotate,
    rotate_point,
    upa,
)

FOCAL = SphericalPoint(30.0, math.pi / 6, math.pi / 6)
SMALL_SPEC = AngularSweepSpec(theta_samples=19, phi_samples=19, eval_range_m=30.0)


@pytest.fixture
def gain_calls(monkeypatch):
    """Probe counts of the gain evaluations the sweeps make, in call order."""
    calls = []
    real = sweep.los_gains

    def recording(positions, normals, tx, ty, tz, wavelength):
        calls.append(np.size(tx))
        return real(positions, normals, tx, ty, tz, wavelength)

    monkeypatch.setattr(sweep, "los_gains", recording)
    return calls


class TestAngularSweep:
    def test_axis_contract(self):
        g = golden_spiral_saa(36, 0.5)
        grid = angular_sweep(g, 0.01, FOCAL, AngularSweepSpec(theta_samples=91, phi_samples=121))
        assert grid.theta_axis.shape == (91,)
        assert grid.phi_axis.shape == (121,)
        assert grid.power.shape == (91, 121)
        assert grid.theta_axis[0] == 0.0
        assert grid.theta_axis[-1] == math.pi
        assert grid.phi_axis[0] == 0.0
        assert grid.phi_axis[-1] == 2.0 * math.pi
        assert grid.eval_range_m == 30.0
        assert grid.focal == FOCAL

    def test_phi_seam_columns_agree(self):
        # phi = 0 and phi = 2*pi probe the same physical direction, up to
        # sin(2*pi) not being exactly zero in floats
        g = golden_spiral_saa(36, 0.5)
        grid = angular_sweep(g, 0.01, FOCAL, SMALL_SPEC)
        assert_allclose(grid.power[:, 0], grid.power[:, -1], atol=1e-9)

    def test_upa_peak_lands_on_focal_cell_and_rear_is_dark(self):
        g = upa(100, 0.005)
        focal = SphericalPoint(30.0, math.pi / 3, math.pi / 3)
        grid = angular_sweep(g, 0.01, focal)
        i, j = divmod(int(np.argmax(grid.power)), grid.power.shape[1])
        # 181 samples over [0, pi] puts pi/3 exactly on row 60; 181 over
        # [0, 2*pi] puts pi/3 exactly on column 30
        assert (i, j) == (60, 30)
        assert grid.power[i, j] == 1.0
        rear = grid.theta_axis > math.pi / 2.0 + 1e-12
        assert_array_equal(grid.power[rear, :], np.zeros((int(np.count_nonzero(rear)), 181)))

    def test_grid_matches_per_cell_direct_summation(self):
        g = golden_spiral_saa(25, 0.5)
        grid = angular_sweep(g, 0.01, FOCAL, SMALL_SPEC, threads=1)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        raw = np.empty((19, 19))
        for i, th in enumerate(grid.theta_axis):
            for j, ph in enumerate(grid.phi_axis):
                probe = SphericalPoint(30.0, float(th), float(ph))
                raw[i, j] = beam_response(w, los_channel(g, probe, 0.01))
        assert_array_equal(grid.power, raw / raw.max())

    @pytest.mark.parametrize("threads", [2, 8, None])
    def test_thread_count_never_changes_bits(self, threads):
        g = golden_spiral_saa(49, 0.5)
        base = angular_sweep(g, 0.01, FOCAL, SMALL_SPEC, threads=1)
        other = angular_sweep(g, 0.01, FOCAL, SMALL_SPEC, threads=threads)
        assert_array_equal(base.power, other.power)

    def test_probe_range_must_clear_array(self):
        g = golden_spiral_saa(30, 0.5)
        with pytest.raises(TargetInsideArray):
            angular_sweep(g, 0.01, FOCAL, AngularSweepSpec(theta_samples=5, phi_samples=5, eval_range_m=0.5))

    def test_spec_rejects_bad_sampling(self):
        with pytest.raises(ValueError):
            AngularSweepSpec(theta_samples=1)
        with pytest.raises(ValueError):
            AngularSweepSpec(phi_samples=0)
        with pytest.raises(ValueError):
            AngularSweepSpec(theta_range=(1.0, 0.5))
        with pytest.raises(ValueError):
            AngularSweepSpec(theta_range=(0.0, 4.0))
        with pytest.raises(ValueError):
            AngularSweepSpec(phi_range=(-0.1, 1.0))
        with pytest.raises(ValueError):
            AngularSweepSpec(eval_range_m=0.0)
        with pytest.raises(ValueError):
            AngularSweepSpec(eval_range_m=math.inf)
        with pytest.raises(ValueError):
            AngularSweepSpec(eval_range_m=math.nan)


class TestMultiFocalOverlay:
    def test_single_focal_matches_plain_sweep(self):
        g = golden_spiral_saa(36, 0.5)
        alone = angular_sweep(g, 0.01, FOCAL, SMALL_SPEC)
        overlay = multi_focal_overlay(g, 0.01, [FOCAL], SMALL_SPEC)
        assert_array_equal(overlay.power, alone.power)
        assert len(overlay.beams) == 1
        assert overlay.skipped == ()
        assert overlay.focal is None

    def test_overlay_is_cellwise_max(self):
        g = golden_spiral_saa(36, 0.5)
        focals = [FOCAL, SphericalPoint(30.0, 2.0 * math.pi / 3, 3.0 * math.pi / 4)]
        overlay = multi_focal_overlay(g, 0.01, focals, SMALL_SPEC)
        assert len(overlay.beams) == 2
        stacked = np.maximum(overlay.beams[0].power, overlay.beams[1].power)
        assert_array_equal(overlay.power, stacked)
        for beam in overlay.beams:
            assert np.all(overlay.power >= beam.power)

    def test_infeasible_focals_are_skipped_in_order(self):
        g = upa(64, 0.005)
        ok_a = SphericalPoint(30.0, math.pi / 6, 0.2)
        bad_a = SphericalPoint(30.0, 2.5, 0.4)
        ok_b = SphericalPoint(30.0, math.pi / 3, 1.0)
        bad_b = SphericalPoint(30.0, 3.0, 2.0)
        overlay = multi_focal_overlay(g, 0.01, [ok_a, bad_a, ok_b, bad_b], SMALL_SPEC)
        assert overlay.skipped == (bad_a, bad_b)
        assert len(overlay.beams) == 2
        assert overlay.beams[0].focal == ok_a
        assert overlay.beams[1].focal == ok_b

    def test_all_infeasible_raises(self):
        g = upa(64, 0.005)
        rear = [SphericalPoint(30.0, 2.5, 0.4), SphericalPoint(30.0, 3.0, 2.0)]
        with pytest.raises(AllBeamsInfeasible):
            multi_focal_overlay(g, 0.01, rear, SMALL_SPEC)

    def test_empty_focal_list_raises(self):
        g = golden_spiral_saa(16, 0.5)
        with pytest.raises(ValueError):
            multi_focal_overlay(g, 0.01, [], SMALL_SPEC)


class TestSweepKernel:
    def test_no_gain_call_exceeds_block_probes(self, gain_calls):
        g = golden_spiral_saa(16, 0.5)
        spec = AngularSweepSpec(theta_samples=2, phi_samples=sweep.BLOCK_PROBES + 1)
        angular_sweep(g, 0.01, FOCAL, spec, threads=1)
        assert sum(gain_calls) == 2 * (sweep.BLOCK_PROBES + 1)
        assert max(gain_calls) <= sweep.BLOCK_PROBES
        gain_calls.clear()
        focal = SphericalPoint(30.0, math.pi / 4, math.pi / 4)
        distance_sweep(g, 0.01, focal, samples=2 * sweep.BLOCK_PROBES + 1, threads=1)
        assert sum(gain_calls) == 2 * sweep.BLOCK_PROBES + 1
        assert max(gain_calls) <= sweep.BLOCK_PROBES

    def test_overlay_makes_one_gain_pass_for_all_beams(self, gain_calls, monkeypatch):
        monkeypatch.setattr(sweep, "BLOCK_PROBES", 100)
        g = golden_spiral_saa(36, 0.5)
        angular_sweep(g, 0.01, FOCAL, SMALL_SPEC, threads=1)
        single = len(gain_calls)
        assert single == 4
        gain_calls.clear()
        focals = [
            FOCAL,
            SphericalPoint(30.0, 2.0 * math.pi / 3, 3.0 * math.pi / 4),
            SphericalPoint(30.0, 1.0, 4.0),
        ]
        overlay = multi_focal_overlay(g, 0.01, focals, SMALL_SPEC, threads=1)
        assert len(overlay.beams) == 3
        assert len(gain_calls) == single


class TestDistanceSweep:
    def test_peak_sits_within_one_sample_of_focal_range(self):
        g = golden_spiral_saa(100, 2.0)
        focal = SphericalPoint(30.0, math.pi / 4, math.pi / 4)
        pattern = distance_sweep(g, 0.01, focal)
        assert pattern.r_axis.shape == (960,)
        assert pattern.r_axis[0] == 5.0
        assert pattern.r_axis[-1] == 100.0
        step = 95.0 / 959.0
        peak_r = float(pattern.r_axis[int(np.argmax(pattern.power))])
        assert abs(peak_r - 30.0) <= step
        assert pattern.power.max() == 1.0
        assert pattern.direction == (math.pi / 4, math.pi / 4)
        assert pattern.focal_range_m == 30.0

    def test_threads_never_change_bits(self):
        g = golden_spiral_saa(64, 0.5)
        focal = SphericalPoint(30.0, math.pi / 4, math.pi / 4)
        base = distance_sweep(g, 0.01, focal, samples=240, threads=1)
        for threads in (2, 8, None):
            other = distance_sweep(g, 0.01, focal, samples=240, threads=threads)
            assert_array_equal(base.power, other.power)

    def test_worker_threads_capped_at_cpu_count(self, monkeypatch):
        started = []

        class SerialPool:
            """Records the requested worker count and runs the map inline."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        g = golden_spiral_saa(64, 0.5)
        focal = SphericalPoint(30.0, math.pi / 4, math.pi / 4)
        base = distance_sweep(g, 0.01, focal, samples=240, threads=1)
        monkeypatch.setattr(sweep, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        capped = distance_sweep(g, 0.01, focal, samples=240, threads=100_000)
        assert started == [3]
        assert_array_equal(capped.power, base.power)

        # never more workers than blocks: 361 probes make 8 blocks of 50, and
        # 4 probes split over 3 workers make 2 blocks of 2
        monkeypatch.setattr(sweep, "BLOCK_PROBES", 50)
        tiny = AngularSweepSpec(theta_samples=2, phi_samples=2)
        for spec, blocks in ((SMALL_SPEC, 8), (tiny, 2)):
            started.clear()
            grid = angular_sweep(g, 0.01, FOCAL, spec, threads=100_000)
            assert started == [min(3, blocks)]
            assert_array_equal(grid.power, angular_sweep(g, 0.01, FOCAL, spec, threads=1).power)

    def test_window_validation(self):
        g = golden_spiral_saa(30, 0.5)
        focal = SphericalPoint(30.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            distance_sweep(g, 0.01, focal, samples=1)
        with pytest.raises(ValueError):
            distance_sweep(g, 0.01, focal, r_min=10.0, r_max=10.0)
        with pytest.raises(ValueError):
            distance_sweep(g, 0.01, focal, r_min=-1.0, r_max=50.0)
        with pytest.raises(ValueError):
            distance_sweep(g, 0.01, focal, r_min=5.0, r_max=math.inf)
        with pytest.raises(ValueError):
            distance_sweep(g, 0.01, focal, r_min=math.nan, r_max=50.0)
        with pytest.raises(ValueError):
            # focal range outside the sweep window
            distance_sweep(g, 0.01, focal, r_min=40.0, r_max=100.0)
        with pytest.raises(TargetInsideArray):
            distance_sweep(g, 0.01, SphericalPoint(30.0, 1.0, 1.0), r_min=0.4, r_max=100.0)


class TestRotationInvariance:
    def test_beam_response_rides_with_the_array(self):
        rng = np.random.default_rng(77)
        g = golden_spiral_saa(50, 0.5)
        probe = SphericalPoint(30.0, 1.1, 2.0)
        h = los_channel(g, FOCAL, 0.01)
        w0 = conjugate_weights(h)
        base = beam_response(w0, los_channel(g, probe, 0.01))
        for _ in range(5):
            rot = random_rotation(rng)
            g_r = rotate(g, rot)
            h_r = los_channel(g_r, rotate_point(FOCAL, rot), 0.01)
            w_r = conjugate_weights(h_r)
            got = beam_response(w_r, los_channel(g_r, rotate_point(probe, rot), 0.01))
            assert_allclose(got, base, rtol=1e-9)

    def test_distance_profile_rides_with_the_array(self):
        rng = np.random.default_rng(78)
        g = golden_spiral_saa(50, 0.5)
        focal = SphericalPoint(30.0, math.pi / 4, math.pi / 4)
        base = distance_sweep(g, 0.01, focal, samples=120)
        rot = random_rotation(rng)
        got = distance_sweep(rotate(g, rot), 0.01, rotate_point(focal, rot), samples=120)
        assert_allclose(got.power, base.power, rtol=1e-9, atol=1e-12)
