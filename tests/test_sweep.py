from __future__ import annotations

import functools
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_rotation

from spherebeam import sweep
from spherebeam import (
    AllBeamsInfeasible,
    AngularSweepSpec,
    ArrayGeometry,
    ArrayKind,
    NoVisibleElements,
    SphericalPoint,
    TargetInsideArray,
    ValidationError,
    angular_sweep,
    beam_response,
    build_geometry,
    channel_energy,
    conjugate_weights,
    distance_sweep,
    golden_spiral_saa,
    load_preset,
    los_channel,
    multi_focal_overlay,
    parse_scenario,
    polyhedral_saa,
    ring_saa,
    rotate,
    rotate_point,
    spiral_curve_saa,
    upa,
)
from spherebeam.channel import Scratch, los_gains
from spherebeam.geometry import sph_to_cart

FOCAL = SphericalPoint(30.0, math.pi / 6, math.pi / 6)
SMALL_SPEC = AngularSweepSpec(theta_samples=19, phi_samples=19, eval_range_m=30.0)


@pytest.fixture
def gain_calls(monkeypatch):
    """Element x probe entries of the gain evaluations the sweeps make, in call order."""
    calls = []
    real = sweep.los_gains

    def recording(positions, normals, tx, ty, tz, *rest):
        calls.append(len(positions) * np.size(tx))
        return real(positions, normals, tx, ty, tz, *rest)

    monkeypatch.setattr(sweep, "los_gains", recording)
    return calls


@pytest.fixture
def gain_elements(monkeypatch):
    """The positions and normals handed to each gain evaluation of the sweeps, in call order."""
    calls = []
    real = sweep.los_gains

    def recording(positions, normals, *rest):
        calls.append((positions, normals))
        return real(positions, normals, *rest)

    monkeypatch.setattr(sweep, "los_gains", recording)
    return calls


def weighted_elements(g, *focals, wavelength=0.01):
    """Indices of the elements that the conjugate beam of some focal point weights."""
    return functools.reduce(np.union1d, [
        np.flatnonzero(conjugate_weights(los_channel(g, focal, wavelength))) for focal in focals
    ])


def ray_elements(g, focal, r_min=5.0, r_max=100.0):
    """Indices of the elements that face the first or the last point of the
    range window along the focal direction; the facing test is linear in
    range, so these are the elements that face some point of the window."""
    ends = [los_channel(g, SphericalPoint(r, focal.theta, focal.phi), 0.01).visible for r in (r_min, r_max)]
    return np.flatnonzero(np.logical_or(*ends))


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

    def test_focal_behind_a_planar_array_has_no_beam(self):
        with pytest.raises(NoVisibleElements):
            angular_sweep(upa(16, 0.025), 0.05, SphericalPoint(10.0, 3 * math.pi / 4, 0.5), SMALL_SPEC)

    @pytest.mark.parametrize("name", ["loudest", "focal_response"])
    @pytest.mark.parametrize("sweep_fn", [angular_sweep, multi_focal_overlay], ids=["single", "overlay"])
    def test_normalization_is_checked_before_any_gain(self, monkeypatch, sweep_fn, name):
        calls = []
        for attr in ("los_channel", "los_gains"):
            real = getattr(sweep, attr)

            def counting(*args, real=real, attr=attr, **kwargs):
                calls.append(attr)
                return real(*args, **kwargs)

            monkeypatch.setattr(sweep, attr, counting)
        focal = FOCAL if sweep_fn is angular_sweep else [FOCAL]
        with pytest.raises(ValidationError) as err:
            sweep_fn(golden_spiral_saa(16, 0.3), 0.01, focal, SMALL_SPEC, normalization=name)
        assert err.value.field == "normalization"
        assert calls == []
        doc = (
            "kind = spiral_saa\nn = 16\nradius = 0.3\nwavelength = 0.01\n"
            f"focal = 30, pi/6, pi/6\nsweep = angle\nnormalization = {name}\n"
        )
        with pytest.raises(ValidationError) as parsed:
            parse_scenario(doc)
        assert str(err.value) == str(parsed.value)

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

    def test_a_beam_that_lights_no_cell_keeps_its_zeros_under_grid_max(self):
        # two elements facing phi = 0 and phi = pi; the grid's cells lie at
        # the poles and at phi = 0 (and 2pi), where the rear element is hidden
        g = ring_saa(1, "proportional", 0.3)
        assert g.n == 2
        spec = AngularSweepSpec(theta_samples=3, phi_samples=2, eval_range_m=10.0)
        lit, unlit = SphericalPoint(10.0, math.pi / 2, 0.0), SphericalPoint(10.0, math.pi / 2, math.pi)
        overlay = multi_focal_overlay(g, 0.05, [lit, unlit], spec, normalization="grid_max")
        dark = overlay.beams[1]
        assert_array_equal(dark.power.view(np.uint64), np.zeros((3, 2), np.uint64))
        assert dark.peak_capture == 0.0
        assert dark.normalization == "grid_max"
        assert np.max(overlay.beams[0].power) == 1.0
        assert_array_equal(overlay.power, overlay.beams[0].power)
        alone = angular_sweep(g, 0.05, unlit, spec)
        assert_array_equal(alone.power.view(np.uint64), dark.power.view(np.uint64))


class TestSweepKernel:
    # the entry budget and the elements a sweep evaluates size a block:
    # BLOCK_ENTRIES // k probes over the k < n elements an angular sweep's
    # beam weights, BLOCK_ENTRIES // m over the m < n elements that can
    # face a range sweep's ray
    @pytest.mark.parametrize(
        "n, width, range_width", [(16, 3657, 3200), (25, 2133, 2133), (100, 512, 492), (360, 143, 143), (1000, 52, 50)]
    )
    def test_block_width_follows_the_element_count(self, gain_calls, n, width, range_width):
        g = golden_spiral_saa(n, 0.5)
        k = len(weighted_elements(g, FOCAL))
        assert k < n
        assert width == sweep.BLOCK_ENTRIES // k
        spec = AngularSweepSpec(theta_samples=2, phi_samples=width + 1)
        angular_sweep(g, 0.01, FOCAL, spec, threads=1)
        assert gain_calls == [k * width, k * width, 2 * k]
        assert max(gain_calls) <= sweep.BLOCK_ENTRIES
        gain_calls.clear()
        focal = SphericalPoint(30.0, math.pi / 4, math.pi / 4)
        m = len(ray_elements(g, focal))
        assert m < n
        assert range_width == sweep.BLOCK_ENTRIES // m
        distance_sweep(g, 0.01, focal, samples=2 * range_width + 1, threads=1)
        assert gain_calls == [m * range_width, m * range_width, m]
        assert max(gain_calls) <= sweep.BLOCK_ENTRIES

    def test_block_probes_equal_the_full_grid_bit_for_bit(self, monkeypatch):
        # the kernel forms each block's probes from the axes; every block
        # width gives the values sph_to_cart gives over the whole meshgrid
        given = []
        kernel = sweep._sweep_kernel

        def capturing(geometry, wavelength, total, probes, *rest, **kw):
            given.append((total, probes))
            return kernel(geometry, wavelength, total, probes, *rest, **kw)

        monkeypatch.setattr(sweep, "_sweep_kernel", capturing)
        spec = AngularSweepSpec(theta_samples=97, phi_samples=203)
        grid = angular_sweep(golden_spiral_saa(8, 0.5), 0.01, FOCAL, spec, threads=1)
        th, ph = np.meshgrid(grid.theta_axis, grid.phi_axis, indexing="ij")
        full = [a.ravel().view(np.uint64) for a in sph_to_cart(spec.eval_range_m, th, ph)]
        [(total, probes)] = given
        assert total == 97 * 203
        for block in (1, 7, 71, 256, 1024):
            parts = [probes(i0, min(i0 + block, total)) for i0 in range(0, total, block)]
            for axis, want in enumerate(full):
                assert_array_equal(np.concatenate([part[axis] for part in parts]).view(np.uint64), want)

    def test_sweep_memory_follows_the_block_not_the_grid(self):
        # the raw and the normalized grid take 16 bytes per cell; the
        # probes and gains of one block at a time add a fixed amount
        g = golden_spiral_saa(16, 0.5)
        spec = AngularSweepSpec(theta_samples=601, phi_samples=601)
        tracemalloc.start()
        try:
            angular_sweep(g, 0.01, FOCAL, spec, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 601 * 601

    def test_fig4_saa_bits_do_not_depend_on_the_entry_budget(self, monkeypatch):
        scenario = load_preset("fig4_saa")
        geometry = build_geometry(scenario)
        spec = AngularSweepSpec(
            theta_samples=scenario.theta_samples, phi_samples=scenario.phi_samples, eval_range_m=scenario.eval_range
        )
        runs = []
        for budget in (sweep.BLOCK_ENTRIES, 102_400):
            monkeypatch.setattr(sweep, "BLOCK_ENTRIES", budget)
            runs.append(multi_focal_overlay(geometry, scenario.wavelength, scenario.focals, spec, threads=1))
        default, old = runs
        assert len(default.beams) == len(old.beams) == 8
        for a, b in zip(default.beams, old.beams):
            assert_array_equal(a.power.view(np.uint64), b.power.view(np.uint64))
        assert_array_equal(default.power.view(np.uint64), old.power.view(np.uint64))

    def test_budget_below_the_element_count_gives_one_probe_blocks(self, gain_calls, monkeypatch):
        # each one-probe block evaluates the k elements the beam weights
        g = golden_spiral_saa(16, 0.5)
        k = len(weighted_elements(g, FOCAL))
        spec = AngularSweepSpec(theta_samples=3, phi_samples=5)
        base = angular_sweep(g, 0.01, FOCAL, spec, threads=1)
        gain_calls.clear()
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", k - 1)
        grid = angular_sweep(g, 0.01, FOCAL, spec, threads=2)
        assert gain_calls == [k] * 15
        assert_array_equal(grid.power, base.power)

    def test_one_probe_blocks_equal_per_probe_beam_response(self, gain_calls, monkeypatch):
        # a budget below the n elements gives one-probe blocks to both
        # sweeps, over the k elements the angular beam weights and over the
        # m ray elements of the range sweep, which include the k it weights
        g = golden_spiral_saa(24, 0.5)
        k = len(weighted_elements(g, FOCAL))
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", k - 1)
        spec = AngularSweepSpec(theta_samples=5, phi_samples=7)
        grid = angular_sweep(g, 0.01, FOCAL, spec, normalization="focal", threads=1)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        raw = np.array([
            [beam_response(w, los_channel(g, SphericalPoint(30.0, float(th), float(ph)), 0.01)) for ph in grid.phi_axis]
            for th in grid.theta_axis
        ])
        assert_array_equal(grid.power, raw / beam_response(w, h))
        focal = SphericalPoint(20.0, 2.0, 1.0)
        pattern = distance_sweep(g, 0.01, focal, 10.0, 40.0, 9, threads=1)
        w = conjugate_weights(los_channel(g, focal, 0.01))
        fraction = []
        for r in pattern.r_axis:
            h_probe = los_channel(g, SphericalPoint(float(r), focal.theta, focal.phi), 0.01)
            fraction.append(beam_response(w, h_probe) / channel_energy(h_probe))
        assert_array_equal(pattern.power, np.array(fraction) / max(fraction))
        m = len(ray_elements(g, focal, 10.0, 40.0))
        assert k <= m < g.n
        assert gain_calls == [k] * 35 + [m] * 9

    def test_overlay_makes_one_gain_pass_for_all_beams(self, gain_calls, monkeypatch):
        # 100-probe blocks over the u elements that some beam weights cover
        # the 361 probes once
        g = golden_spiral_saa(36, 0.5)
        focals = [
            FOCAL,
            SphericalPoint(30.0, 2.0 * math.pi / 3, 3.0 * math.pi / 4),
            SphericalPoint(30.0, 1.0, 4.0),
        ]
        u = len(weighted_elements(g, *focals))
        assert u < g.n
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", 100 * u)
        overlay = multi_focal_overlay(g, 0.01, focals, SMALL_SPEC, threads=1)
        assert len(overlay.beams) == 3
        assert gain_calls == [100 * u] * 3 + [61 * u]


    def test_threads_keep_their_own_scratch_arrays(self, monkeypatch):
        # more workers than cores, blocks of 11 and 17 probes (8 * 64 entries
        # over the 45 and 30 elements the two sweeps evaluate) and a short
        # switch interval interleave the threads' blocks; arrays shared
        # between threads would mix their values
        g = golden_spiral_saa(64, 0.5)
        spec = AngularSweepSpec(theta_samples=31, phi_samples=31)
        focals = [FOCAL, SphericalPoint(30.0, 1.0, 4.0)]
        focal = SphericalPoint(30.0, math.pi / 4, math.pi / 4)
        base = multi_focal_overlay(g, 0.01, focals, spec, threads=1)
        base_range = distance_sweep(g, 0.01, focal, samples=500, threads=1)
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", 8 * g.n)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                overlay = multi_focal_overlay(g, 0.01, focals, spec, threads=8)
                for beam, expected in zip(overlay.beams, base.beams):
                    assert_array_equal(beam.power, expected.power)
                ranged = distance_sweep(g, 0.01, focal, samples=500, threads=8)
                assert_array_equal(ranged.power, base_range.power)
        finally:
            sys.setswitchinterval(interval)

    def test_only_distance_sweeps_compute_channel_energy(self, monkeypatch):
        calls = []
        real = sweep.gain_energy

        def recording(gains, *rest):
            calls.append(gains.shape)
            return real(gains, *rest)

        monkeypatch.setattr(sweep, "gain_energy", recording)
        g = golden_spiral_saa(16, 0.5)
        angular_sweep(g, 0.01, FOCAL, SMALL_SPEC, threads=1)
        multi_focal_overlay(g, 0.01, [FOCAL, SphericalPoint(30.0, 1.0, 4.0)], SMALL_SPEC, threads=2)
        assert calls == []
        distance_sweep(g, 0.01, FOCAL, samples=50, threads=1)
        m = len(ray_elements(g, FOCAL))
        assert m < g.n
        assert calls == [(m, 50)]


class TestWeightedElements:
    # an angular sweep evaluates only the elements some beam weights, a
    # range sweep only those that can face its ray, each chosen once per sweep
    def test_one_beam_sweep_evaluates_exactly_its_weighted_elements(self, gain_elements, monkeypatch):
        g = golden_spiral_saa(64, 0.5)
        w = conjugate_weights(los_channel(g, FOCAL, 0.01))
        assert 0 < np.count_nonzero(w) < g.n
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", 100 * g.n)
        angular_sweep(g, 0.01, FOCAL, SMALL_SPEC, threads=1)
        assert len(gain_elements) > 1
        for positions, normals in gain_elements:
            assert_array_equal(positions, g.positions[w != 0])
            assert_array_equal(normals, g.normals[w != 0])

    def test_overlay_evaluates_the_union_of_its_weighted_elements(self, gain_elements):
        g = golden_spiral_saa(64, 0.5)
        focals = [FOCAL, SphericalPoint(30.0, 1.0, 1.5)]
        union = weighted_elements(g, *focals)
        assert all(len(weighted_elements(g, focal)) < len(union) < g.n for focal in focals)
        overlay = multi_focal_overlay(g, 0.01, focals, SMALL_SPEC, threads=1)
        assert gain_elements
        for positions, normals in gain_elements:
            assert_array_equal(positions, g.positions[union])
            assert_array_equal(normals, g.normals[union])
        # each beam sums more elements here than alone, and the added terms
        # are zeros, so its bits stay those of its own sweep
        for focal, beam in zip(focals, overlay.beams):
            alone = angular_sweep(g, 0.01, focal, SMALL_SPEC, threads=1)
            assert_array_equal(beam.power.view(np.uint64), alone.power.view(np.uint64))

    def test_distance_sweep_evaluates_exactly_its_ray_elements(self, gain_elements):
        g = golden_spiral_saa(64, 0.5)
        ray = ray_elements(g, FOCAL)
        assert len(weighted_elements(g, FOCAL)) <= len(ray) < g.n
        distance_sweep(g, 0.01, FOCAL, samples=50, threads=1)
        assert gain_elements
        for positions, normals in gain_elements:
            assert_array_equal(positions, g.positions[ray])
            assert_array_equal(normals, g.normals[ray])

    @pytest.mark.parametrize("rotated", [False, True])
    def test_planar_array_with_a_front_focal_point_keeps_every_element(self, gain_elements, rotated):
        g, focal = upa(16, 0.025), SphericalPoint(10.0, math.pi / 4, 0.5)
        if rotated:
            rotation = random_rotation(np.random.default_rng(5))
            g, focal = rotate(g, rotation), rotate_point(focal, rotation)
        angular_sweep(g, 0.05, focal, SMALL_SPEC, threads=1)
        assert gain_elements
        for positions, normals in gain_elements:
            assert_array_equal(positions, g.positions)
            assert_array_equal(normals, g.normals)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_partly_weighted_beam_equals_per_probe_beam_response(self, monkeypatch, threads):
        g = golden_spiral_saa(64, 0.5)
        h = los_channel(g, FOCAL, 0.01)
        w = conjugate_weights(h)
        assert 0 < np.count_nonzero(w) < g.n
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", 20 * g.n)
        spec = AngularSweepSpec(theta_samples=13, phi_samples=17)
        grid = angular_sweep(g, 0.01, FOCAL, spec, normalization="focal", threads=threads)
        raw = np.array([
            [beam_response(w, los_channel(g, SphericalPoint(30.0, float(th), float(ph)), 0.01)) for ph in grid.phi_axis]
            for th in grid.theta_axis
        ])
        assert raw.any()
        assert_array_equal(grid.power.view(np.uint64), (raw / beam_response(w, h)).view(np.uint64))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_probes_raise_before_any_block_array(self, monkeypatch, threads):
        requested = []

        class RecordingScratch(Scratch):
            def get(self, name, shape, dtype=np.float64):
                requested.append(name)
                return super().get(name, shape, dtype)

        monkeypatch.setattr(sweep, "Scratch", RecordingScratch)
        g = golden_spiral_saa(64, 0.5)
        assert len(weighted_elements(g, FOCAL)) < g.n
        spec = AngularSweepSpec(theta_samples=5, phi_samples=5, eval_range_m=1e300)
        with pytest.raises(ValidationError, match="overflow") as info:
            angular_sweep(g, 0.01, FOCAL, spec, threads=threads)
        assert info.value.field == "target"
        assert requested == []


    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kind", ["angle", "distance"])
    def test_overflowing_probe_powers_raise_on_the_wavelength(self, kind, threads):
        # the focal channel energy is finite at this wavelength, but the
        # squares of the larger gains at probes 0.5 m out overflow; any
        # RuntimeWarning that escaped a block would fail the test
        g = golden_spiral_saa(16, 0.3)
        focal = SphericalPoint(10.0, math.pi / 4, math.pi / 4)
        assert math.isfinite(channel_energy(los_channel(g, focal, 1e155)))
        with pytest.raises(ValidationError, match="overflow") as info:
            if kind == "angle":
                angular_sweep(g, 1e155, focal, AngularSweepSpec(19, 19, eval_range_m=0.5), threads=threads)
            else:
                distance_sweep(g, 1e155, focal, 0.5, 40.0, 50, threads=threads)
        assert info.value.field == "wavelength"


class TestRaySupport:
    # a range sweep evaluates only the elements that can face some probe of
    # its ray, chosen once per sweep from the two ends of its window
    KINDS = {
        "upa": upa(64, 0.05),
        "spiral_saa": golden_spiral_saa(80, 0.5),
        "ring_saa": ring_saa(5, "proportional", 0.5),
        "polyhedral_saa": polyhedral_saa(2, 0.5),
        "spiral_curve_saa": spiral_curve_saa(60, 4.0, 0.5),
        # off the origin by more than its radius, so some elements face the
        # near end of a window and not the far end
        "offset_spiral": ArrayGeometry(
            ArrayKind.SPIRAL, golden_spiral_saa(80, 0.5).positions + [0.0, 0.0, 2.0], golden_spiral_saa(80, 0.5).normals
        ),
    }

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_no_culled_element_faces_any_probe(self, monkeypatch, kind, rotated):
        rng = np.random.default_rng(sorted(self.KINDS).index(kind) + 10 * rotated)
        g = self.KINDS[kind]
        if rotated:
            g = rotate(g, random_rotation(rng))
        given = []
        kernel = sweep._sweep_kernel

        def capturing(geometry, wavelength, total, probes, *rest, kept, **kw):
            given.append((probes(0, total), kept))
            return kernel(geometry, wavelength, total, probes, *rest, kept=kept, **kw)

        monkeypatch.setattr(sweep, "_sweep_kernel", capturing)
        culled = 0
        for _ in range(12):
            r_min = rng.uniform(1.0, 20.0)
            r_max = r_min + rng.uniform(0.01, 80.0)
            direction = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
            focal = SphericalPoint(rng.uniform(r_min, r_max), *direction)
            try:
                distance_sweep(g, 0.01, focal, r_min, r_max, int(rng.integers(2, 200)), threads=1)
            except NoVisibleElements:
                continue
        assert len(given) >= 6
        for probes, kept in given:
            # the full mask, every element against every probe of the sweep
            _, visible, _ = los_gains(g.positions, g.normals, *probes, 0.01)
            assert not visible[~kept].any()
            culled += np.count_nonzero(~kept)
        # a planar array has one normal, so a ray with a beam faces every element
        assert (culled == 0) == (kind == "upa")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_range_powers_equal_per_probe_beam_response(self, monkeypatch, threads):
        g = polyhedral_saa(2, 0.3)
        focal = SphericalPoint(12.0, 1.1, 4.0)
        r_min, r_max = 5.0, 40.0
        assert len(ray_elements(g, focal, r_min, r_max)) < g.n
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", 20 * g.n)
        pattern = distance_sweep(g, 0.01, focal, r_min, r_max, 97, threads=threads)
        w = conjugate_weights(los_channel(g, focal, 0.01))
        fraction = []
        for r in pattern.r_axis:
            h_probe = los_channel(g, SphericalPoint(float(r), focal.theta, focal.phi), 0.01)
            fraction.append(beam_response(w, h_probe) / channel_energy(h_probe))
        fraction = np.array(fraction)
        assert_array_equal(pattern.power.view(np.uint64), (fraction / fraction.max()).view(np.uint64))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_probes_raise_before_any_block_array(self, monkeypatch, threads):
        requested = []

        class RecordingScratch(Scratch):
            def get(self, name, shape, dtype=np.float64):
                requested.append(name)
                return super().get(name, shape, dtype)

        monkeypatch.setattr(sweep, "Scratch", RecordingScratch)
        g = golden_spiral_saa(64, 0.5)
        assert np.count_nonzero(sweep._ray_support(g, FOCAL.theta, FOCAL.phi, 5.0, 1e300)) < g.n
        with pytest.raises(ValidationError, match="overflow") as info:
            distance_sweep(g, 0.01, FOCAL, 5.0, 1e300, threads=threads)
        assert info.value.field == "target"
        assert requested == []


class TestMatchedBeams:
    # every sweep takes its beams, skipped indices and weighted elements
    # from one stage, which matches each focal point once
    FOCALS = [FOCAL, SphericalPoint(30.0, 3 * math.pi / 4, 4.0), SphericalPoint(30.0, 1.0, 1.5)]

    @pytest.mark.parametrize("kind", list(ArrayKind), ids=lambda kind: kind.value)
    def test_each_beam_carries_its_channel_weights_and_focal_response(self, kind):
        g = TestRaySupport.KINDS[kind.value]
        beams, skipped, weighted = sweep.matched_beams(g, 0.01, self.FOCALS)
        # the planar array faces +z, so the rear focal point is skipped by its index
        assert skipped == ([1] if kind is ArrayKind.UPA else [])
        assert [index for index, _, _, _ in beams] == [i for i in range(len(self.FOCALS)) if i not in skipped]
        for index, h, w, reference in beams:
            expected = los_channel(g, self.FOCALS[index], 0.01)
            assert h.target is self.FOCALS[index]
            assert_array_equal(h.gains.view(np.uint64), expected.gains.view(np.uint64))
            assert_array_equal(w.view(np.uint64), conjugate_weights(expected).view(np.uint64))
            assert np.float64(reference).view(np.uint64) == np.float64(beam_response(w, h)).view(np.uint64)
        assert_array_equal(weighted, np.any([w != 0 for _, _, w, _ in beams], axis=0))
        assert weighted.shape == (g.n,)

    def test_repeated_rear_focal_points_are_skipped_by_index(self):
        g = upa(16, 0.025)
        front, rear = SphericalPoint(10.0, math.pi / 4, 0.5), SphericalPoint(10.0, 3 * math.pi / 4, 0.5)
        beams, skipped, weighted = sweep.matched_beams(g, 0.05, [rear, front, rear, front])
        assert skipped == [0, 2]
        assert [index for index, _, _, _ in beams] == [1, 3]
        assert weighted.all()

    def test_no_beam_leaves_no_weighted_element(self):
        g = upa(16, 0.025)
        beams, skipped, weighted = sweep.matched_beams(g, 0.05, [SphericalPoint(10.0, 3 * math.pi / 4, 0.5)])
        assert (beams, skipped) == ([], [0])
        assert_array_equal(weighted, np.zeros(g.n, bool))


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
        assert pattern.focal is focal

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

        # never more workers than blocks: 361 probes make 8 blocks of 50 over
        # the k weighted elements, and 4 probes split over 3 workers make 2
        # blocks of 2
        monkeypatch.setattr(sweep, "BLOCK_ENTRIES", 50 * len(weighted_elements(g, FOCAL)))
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
