from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherebeam import (
    MIN_PEAK_CAPTURE,
    AngularPatternGrid,
    AngularSweepSpec,
    BeamMetrics,
    DegeneratePattern,
    DistancePattern,
    MainLobeMissed,
    SphericalPoint,
    ValidationError,
    angular_metrics,
    angular_sweep,
    distance_sweep,
    focus_metrics,
    golden_spiral_saa,
    great_circle_angle,
    isotropy_report,
    measure,
    upa,
)

TWO_PI = 2.0 * math.pi


def make_grid(power, theta_axis=None, phi_axis=None, focal=None):
    nt, np_ = power.shape
    if theta_axis is None:
        theta_axis = np.linspace(0.0, math.pi, nt)
    if phi_axis is None:
        phi_axis = np.linspace(0.0, TWO_PI, np_)
    return AngularPatternGrid(
        theta_axis=theta_axis,
        phi_axis=phi_axis,
        power=power,
        focal=focal,
        eval_range_m=30.0,
    )


def cos_lobe(x, center, sharpness):
    """Squared cosine lobe clipped to its first nulls."""
    arg = sharpness * (x - center)
    c = np.where(np.abs(arg) < math.pi / 2.0, np.cos(arg), 0.0)
    return c * c


def pinned_case(name):
    """Small grids on the cut rules: (power, theta_axis, phi_axis, focal theta, focal phi)."""
    theta5 = np.linspace(0.0, math.pi, 5)
    if name == "seam_lobe":
        row = np.array([1.0, 0.7, 0.3, 0.1, 0.25, 0.1, 0.2, 0.6, 1.0])
        return np.outer([0.1, 0.5, 1.0, 0.4, 0.45], row), theta5, np.linspace(0.0, TWO_PI, 9), 1.5, 0.1
    if name in ("no_crossing_odd", "no_crossing_even", "no_crossing_100"):
        m = {"no_crossing_odd": 7, "no_crossing_even": 8, "no_crossing_100": 100}[name]
        phi = np.linspace(0.0, TWO_PI, m + 1)
        row = 0.8 + 0.2 * np.cos(phi - phi[3])
        return np.outer([0.2, 0.6, 1.0, 0.7, 0.1], row), theta5, phi, 1.6, 2.0
    if name == "flat_row_at_pole":
        power = np.outer([1.0, 0.6, 0.3, 0.1, 0.05], np.ones(7))
        power[2, 3] = 0.35
        return power, theta5, np.linspace(0.0, TWO_PI, 7), 0.0, 0.0
    if name == "peak_at_theta_pi":
        power = np.outer([0.05, 0.1, 0.2, 0.7, 1.0], [0.3, 0.9, 1.0, 0.4, 0.2, 0.3])
        return power, theta5, np.linspace(0.0, TWO_PI, 6), math.pi, 2.5
    if name == "peak_at_theta_0":
        power = np.outer([1.0, 0.45, 0.2, 0.1, 0.3], [0.2, 0.5, 1.0, 0.3, 0.25, 0.2])
        return power, theta5, np.linspace(0.0, TWO_PI, 6), 0.1, 2.5
    if name == "two_phi_samples":
        power = np.outer([0.1, 0.4, 1.0, 0.5, 0.2], [1.0, 1.0])
        return power, theta5, np.linspace(0.0, TWO_PI, 2), 1.5, 0.0
    if name == "open_phi_window":
        power = np.outer([0.1, 0.5, 1.0, 0.45, 0.2], [0.2, 0.3, 0.6, 1.0, 0.8, 0.4, 0.35, 0.5])
        return power, np.linspace(0.4, 2.0, 5), np.linspace(1.0, 3.0, 8), 1.2, 1.9
    raise KeyError(name)


# (peak_theta, peak_phi, pointing_error_rad, hpbw_theta, hpbw_phi, peak_sidelobe_db)
PINNED_FIGURES = [
    ("seam_lobe", (1.5707963267948966, 0.0, 0.12245569034627801, 1.439896632895322, 2.1598449493429825, -3.467874862246563)),
    ("no_crossing_odd", (1.5707963267948966, 2.6927937030769655, 0.6933072484704409, 2.028945255443408, 6.283185307179586, -300.0)),
    ("no_crossing_even", (1.5707963267948966, 2.356194490192345, 0.35733876092434075, 2.028945255443408, 6.283185307179586, -300.0)),
    ("no_crossing_100", (1.5707963267948966, 0.1884955592153876, 1.8113997755961262, 2.028945255443408, 6.283185307179586, -300.0)),
    ("flat_row_at_pole", (0.0, 0.0, 0.0, 2.0943951023931953, 6.283185307179586, -300.0)),
    ("peak_at_theta_pi", (3.141592653589793, 2.5132741228718345, 0.0, 2.199114857512855, 3.141592653589793, -300.0)),
    ("peak_at_theta_0", (0.0, 2.5132741228718345, 0.09999999999999945, 1.427996660722633, 2.1542349624615724, -5.228787452803376)),
    ("two_phi_samples", (1.5707963267948966, 0.0, 0.0707963267948964, 1.439896632895322, 6.283185307179586, -300.0)),
    ("open_phi_window", (1.2000000000000002, 1.8571428571428572, 0.03994413080188115, 0.7636363636363637, 0.8809523809523812, -3.010299956639812)),
]


class TestGreatCircleAngle:
    def test_known_separations(self):
        assert great_circle_angle(1.0, 2.0, 1.0, 2.0) == 0.0
        assert_allclose(great_circle_angle(math.pi / 2, 0.0, math.pi / 2, math.pi / 2), math.pi / 2, rtol=1e-12)
        assert_allclose(great_circle_angle(0.0, 0.3, math.pi, 2.1), math.pi, rtol=1e-12)

    def test_symmetry(self):
        a = great_circle_angle(0.4, 1.2, 2.0, 5.1)
        b = great_circle_angle(2.0, 5.1, 0.4, 1.2)
        assert_allclose(a, b, rtol=1e-15)

    def test_pole_ignores_phi(self):
        a = great_circle_angle(0.0, 0.0, 1.0, 2.5)
        b = great_circle_angle(0.0, 4.0, 1.0, 2.5)
        assert_allclose(a, b, rtol=1e-12)
        assert_allclose(a, 1.0, rtol=1e-12)


class TestAngularMetrics:
    def test_separable_lobe_half_power_widths(self):
        # cos^2 falls to half power where the argument is pi/4, so the
        # full width is pi/(2*sharpness) on each axis
        a, b = 6.0, 4.0
        theta_axis = np.linspace(0.0, math.pi, 721)
        phi_axis = np.linspace(0.0, TWO_PI, 1441)
        t0, p0 = math.pi / 2.0, math.pi
        power = np.outer(cos_lobe(theta_axis, t0, a), cos_lobe(phi_axis, p0, b))
        grid = make_grid(power, theta_axis, phi_axis, focal=SphericalPoint(30.0, t0, p0))
        m = angular_metrics(grid)
        assert m.peak_theta == t0
        assert m.peak_phi == p0
        assert m.pointing_error_rad == 0.0
        assert_allclose(m.hpbw_theta, math.pi / (2.0 * a), rtol=1e-3)
        assert_allclose(m.hpbw_phi, math.pi / (2.0 * b), rtol=1e-3)
        assert m.peak_sidelobe_db == -300.0
        assert m.degenerate is False

    def test_secondary_lobe_sets_sidelobe_level(self):
        a, b = 6.0, 4.0
        theta_axis = np.linspace(0.0, math.pi, 721)
        phi_axis = np.linspace(0.0, TWO_PI, 1441)
        main = np.outer(cos_lobe(theta_axis, math.pi / 2, a), cos_lobe(phi_axis, math.pi, b))
        side = 0.25 * np.outer(
            cos_lobe(theta_axis, math.pi / 2, a), cos_lobe(phi_axis, math.pi / 2, b)
        )
        grid = make_grid(main + side, theta_axis, phi_axis, focal=SphericalPoint(30.0, math.pi / 2, math.pi))
        m = angular_metrics(grid)
        assert_allclose(m.peak_sidelobe_db, 10.0 * math.log10(0.25), rtol=1e-12)

    def test_single_cell_peak_spans_one_grid_step(self):
        power = np.zeros((61, 73))
        power[30, 40] = 1.0
        grid = make_grid(power, focal=SphericalPoint(30.0, math.pi / 2, math.pi))
        m = angular_metrics(grid)
        t_step = math.pi / 60.0
        p_step = TWO_PI / 72.0
        assert_allclose(m.hpbw_theta, t_step, rtol=1e-12)
        assert_allclose(m.hpbw_phi, p_step, rtol=1e-12)
        assert m.peak_sidelobe_db == -300.0

    def test_flat_and_zero_patterns_are_degenerate(self):
        with pytest.raises(DegeneratePattern):
            angular_metrics(make_grid(np.ones((9, 9)), focal=SphericalPoint(30.0, 1.0, 1.0)))
        with pytest.raises(DegeneratePattern):
            angular_metrics(make_grid(np.zeros((9, 9)), focal=SphericalPoint(30.0, 1.0, 1.0)))
        # a spread of a few ulps is rounding, not a peak
        rounded = np.ones((9, 9))
        rounded[4, 4] -= 4 * np.finfo(float).eps
        with pytest.raises(DegeneratePattern):
            angular_metrics(make_grid(rounded, focal=SphericalPoint(30.0, 1.0, 1.0)))

    def test_measure_gives_a_flat_grid_the_nan_record(self):
        grid = replace(make_grid(np.ones((9, 9)), focal=SphericalPoint(30.0, 1.0, 1.0)), peak_capture=0.25)
        m = measure(grid)
        assert m.degenerate is True
        assert m.peak_capture == 0.25
        figures = (m.peak_theta, m.peak_phi, m.pointing_error_rad, m.hpbw_theta, m.hpbw_phi, m.peak_sidelobe_db)
        assert all(math.isnan(v) for v in figures)
        power = np.zeros((9, 9))
        power[4, 4] = 1.0
        assert measure(make_grid(power, focal=SphericalPoint(30.0, 1.0, 1.0))) == angular_metrics(
            make_grid(power, focal=SphericalPoint(30.0, 1.0, 1.0))
        )

    def test_missing_focal_rejected(self):
        power = np.zeros((9, 9))
        power[4, 4] = 1.0
        with pytest.raises(ValueError):
            angular_metrics(make_grid(power))

    def test_tied_peaks_resolve_in_row_major_order(self):
        power = np.zeros((21, 21))
        power[2, 3] = 1.0
        power[5, 7] = 1.0
        grid = make_grid(power, focal=SphericalPoint(30.0, 1.0, 1.0))
        m = angular_metrics(grid)
        assert m.peak_theta == float(grid.theta_axis[2])
        assert m.peak_phi == float(grid.phi_axis[3])

    def test_polar_peak_mirrors_theta_and_saturates_phi(self):
        # a beam straight up the pole: every phi column holds the same
        # theta profile, so the phi cut is flat at the peak row
        a = 6.0
        theta_axis = np.linspace(0.0, math.pi, 721)
        phi_axis = np.linspace(0.0, TWO_PI, 181)
        profile = cos_lobe(theta_axis, 0.0, a)
        power = np.tile(profile[:, None], (1, 181))
        grid = make_grid(power, theta_axis, phi_axis, focal=SphericalPoint(30.0, 0.0, 0.0))
        m = angular_metrics(grid)
        assert m.peak_theta == 0.0
        # mirrored across the pole: twice the one-sided crossing
        assert_allclose(m.hpbw_theta, math.pi / (2.0 * a), rtol=1e-3)
        assert_allclose(m.hpbw_phi, TWO_PI, rtol=1e-12)
        assert m.peak_sidelobe_db == -300.0

    def test_wrapped_lobe_across_the_phi_seam(self):
        a, b = 6.0, 4.0
        theta_axis = np.linspace(0.0, math.pi, 721)
        phi_axis = np.linspace(0.0, TWO_PI, 1441)
        wrap_dist = np.minimum(phi_axis, TWO_PI - phi_axis)
        power = np.outer(cos_lobe(theta_axis, math.pi / 2, a), cos_lobe(wrap_dist, 0.0, b))
        grid = make_grid(power, theta_axis, phi_axis, focal=SphericalPoint(30.0, math.pi / 2, 0.0))
        m = angular_metrics(grid)
        assert m.peak_phi == 0.0
        assert_allclose(m.hpbw_phi, math.pi / (2.0 * b), rtol=1e-3)
        assert m.peak_sidelobe_db == -300.0

    def test_lobe_clipped_by_a_partial_window(self):
        # theta axis that starts away from the pole, with the lobe pressed
        # against the window's left edge; the cut clamps at the boundary
        a = 6.0
        theta_axis = np.linspace(0.3, 0.3 + math.pi / 2.0, 361)
        phi_axis = np.linspace(1.0, 2.0, 101)
        t0 = 0.31
        power = np.outer(cos_lobe(theta_axis, t0, a), cos_lobe(phi_axis, 1.5, 4.0))
        grid = make_grid(power, theta_axis, phi_axis, focal=SphericalPoint(30.0, t0, 1.5))
        m = angular_metrics(grid)
        full = math.pi / (2.0 * a)
        assert 0.0 < m.hpbw_theta < full
        expected = (t0 + full / 2.0) - 0.3
        assert_allclose(m.hpbw_theta, expected, rtol=1e-2)

    @pytest.mark.parametrize("name, figures", PINNED_FIGURES, ids=[name for name, _ in PINNED_FIGURES])
    def test_cut_rules_give_pinned_figures(self, name, figures):
        # exact figures: a periodic phi row without a crossing reaches pi
        # to each side (not m // 2 steps), a flat row at a pole and a
        # 2-sample phi axis span the whole turn, a lobe wraps the seam
        power, theta_axis, phi_axis, t0, p0 = pinned_case(name)
        m = angular_metrics(make_grid(power, theta_axis, phi_axis, focal=SphericalPoint(30.0, t0, p0)))
        got = (m.peak_theta, m.peak_phi, m.pointing_error_rad, m.hpbw_theta, m.hpbw_phi, m.peak_sidelobe_db)
        assert [v.hex() for v in got] == [v.hex() for v in figures]


    def test_endpoint_column_peak_is_the_phi_zero_sample(self):
        # columns 0 and m are one direction; the cut through the peak takes
        # the larger of the two, not column 0 alone
        power = np.array([[0.1, 0.1, 1.0], [0.01, 0.01, 0.01]])
        grid = make_grid(power, np.array([0.5, 1.0]), np.array([0.0, math.pi, TWO_PI]), SphericalPoint(10.0, 0.5, 0.0))
        m = angular_metrics(grid)
        assert (m.peak_theta, m.peak_phi) == (0.5, TWO_PI)
        assert m.hpbw_phi == 2.0 * (0.5 / 0.9) * math.pi
        assert m.hpbw_theta == (0.5 + (0.5 / 0.99) * 0.5) - 0.5
        assert m.peak_sidelobe_db == -300.0

    def test_underflowing_sidelobe_ratio_reads_the_floor(self):
        power = np.array([[1e-25, 1e-30, 1e300, 1e-30, 1e-25]])
        grid = make_grid(power, np.array([0.5]), np.arange(5.0), SphericalPoint(10.0, 0.5, 2.0))
        m = angular_metrics(grid)
        assert (m.peak_theta, m.peak_phi) == (0.5, 2.0)
        assert m.peak_sidelobe_db == -300.0


class TestPeakCapture:
    """A 10 x 20 degree grid against a main lobe about 0.6 degrees wide."""

    GEOMETRY = golden_spiral_saa(100, 0.5)
    SPEC = AngularSweepSpec(theta_samples=19, phi_samples=19, eval_range_m=30.0)

    def test_beam_between_grid_lines_warns(self):
        focal = SphericalPoint(30.0, math.radians(95.0), math.radians(10.0))
        grid = angular_sweep(self.GEOMETRY, 0.01, focal, self.SPEC, threads=1)
        assert grid.peak_capture < MIN_PEAK_CAPTURE
        with pytest.warns(MainLobeMissed, match="main lobe"):
            m = angular_metrics(grid)
        assert m.peak_capture == grid.peak_capture

    def test_beam_on_grid_lines_captures_its_focal_response(self):
        theta_axis = np.linspace(0.0, math.pi, 19)
        phi_axis = np.linspace(0.0, TWO_PI, 19)
        focal = SphericalPoint(30.0, float(theta_axis[6]), float(phi_axis[2]))
        grid = angular_sweep(self.GEOMETRY, 0.01, focal, self.SPEC, threads=1)
        assert_allclose(grid.peak_capture, 1.0, rtol=0.0, atol=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = angular_metrics(grid)
        assert m.peak_capture == grid.peak_capture

    def test_grid_without_capture_does_not_warn(self):
        theta = np.linspace(0.0, math.pi, 31)
        power = np.outer(cos_lobe(theta, math.pi / 2, 3.0), np.ones(31)) + 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = angular_metrics(make_grid(power, focal=SphericalPoint(30.0, math.pi / 2, 0.0)))
        assert m.peak_capture is None


class TestFocusMetrics:
    def test_triangle_profile(self):
        r_axis = np.linspace(10.0, 50.0, 401)
        power = np.clip(1.0 - np.abs(r_axis - 30.0) / 10.0, 0.0, None)
        pattern = DistancePattern(r_axis=r_axis, power=power, focal=SphericalPoint(30.0, 1.0, 1.0))
        m = focus_metrics(pattern)
        assert m.peak_r_m == 30.0
        assert m.focal_error_m == 0.0
        assert_allclose(m.depth_of_focus_m, 10.0, rtol=1e-12)
        assert m.one_sided is False

    def test_truncated_window_flags_one_sided(self):
        r_axis = np.linspace(28.0, 50.0, 221)
        power = np.clip(1.0 - np.abs(r_axis - 30.0) / 10.0, 0.0, None)
        pattern = DistancePattern(r_axis=r_axis, power=power, focal=SphericalPoint(30.0, 1.0, 1.0))
        m = focus_metrics(pattern)
        assert m.one_sided is True
        # left crossing clamps to the window edge at 28
        assert_allclose(m.depth_of_focus_m, 35.0 - 28.0, rtol=1e-12)

    def test_flat_profile_is_degenerate(self):
        r_axis = np.linspace(10.0, 50.0, 41)
        with pytest.raises(DegeneratePattern):
            focus_metrics(DistancePattern(r_axis=r_axis, power=np.ones(41), focal=SphericalPoint(30.0, 1.0, 1.0)))

    @pytest.mark.parametrize(
        "geometry, focal, window",
        [
            (golden_spiral_saa(1, 0.3), SphericalPoint(10.0, math.pi / 4, 0.5), (5.0, 20.0, 16)),
            (golden_spiral_saa(4, 0.3), SphericalPoint(10.0, math.pi / 4, 0.5), (5.0, 20.0, 16)),
            (golden_spiral_saa(2, 0.001), SphericalPoint(50.0, math.pi / 4, 0.5), (5.0, 100.0, 64)),
        ],
        ids=["spiral_1", "spiral_4", "spiral_2_1mm_at_50m"],
    )
    def test_one_facing_element_is_flat_to_rounding(self, geometry, focal, window):
        pattern = distance_sweep(geometry, 0.05, focal, *window, threads=1)
        assert np.ptp(pattern.power) > 0.0
        with pytest.raises(DegeneratePattern):
            focus_metrics(pattern)

    def test_weak_planar_focus_is_measured(self):
        # four elements focus weakly: the profile spreads by about 1e-6
        focal = SphericalPoint(10.0, math.pi / 4, 0.5)
        pattern = distance_sweep(upa(4, 0.025), 0.05, focal, 5.0, 20.0, 16, threads=1)
        assert np.ptp(pattern.power) < 1e-5
        m = focus_metrics(pattern)
        assert m.degenerate is False and 5.0 <= m.peak_r_m <= 20.0

    def test_measure_gives_a_flat_profile_the_nan_record(self):
        r_axis = np.linspace(10.0, 50.0, 41)
        m = measure(DistancePattern(r_axis=r_axis, power=np.zeros(41), focal=SphericalPoint(30.0, 1.0, 1.0)))
        assert m.degenerate is True and m.one_sided is False
        assert all(math.isnan(v) for v in (m.peak_r_m, m.depth_of_focus_m, m.focal_error_m))


def beam(ht, hp, sl, degenerate=False):
    return BeamMetrics(
        peak_theta=1.0,
        peak_phi=1.0,
        pointing_error_rad=0.0,
        hpbw_theta=ht,
        hpbw_phi=hp,
        peak_sidelobe_db=sl,
        degenerate=degenerate,
    )


class TestIsotropyReport:
    def test_ratios_and_spread(self):
        r = isotropy_report([beam(0.2, 0.4, -12.0), beam(0.25, 0.5, -10.0), beam(0.22, 0.44, -11.0)])
        assert r.n_beams == 3
        assert_allclose(r.hpbw_theta_ratio, 1.25, rtol=1e-15)
        assert_allclose(r.hpbw_phi_ratio, 1.25, rtol=1e-15)
        assert_allclose(r.sidelobe_spread_db, 2.0, rtol=1e-15)

    def test_degenerate_beams_are_excluded(self):
        r = isotropy_report([beam(0.2, 0.4, -12.0), beam(9.9, 9.9, 0.0, degenerate=True), beam(0.2, 0.4, -12.0)])
        assert r.n_beams == 2
        assert r.hpbw_theta_ratio == 1.0

    def test_fewer_than_two_beams_rejected(self):
        with pytest.raises(ValueError):
            isotropy_report([beam(0.2, 0.4, -12.0)])

    def test_a_degenerate_beam_does_not_count_toward_two(self):
        with pytest.raises(ValidationError):
            isotropy_report([beam(0.2, 0.4, -12.0), beam(9.9, 9.9, 0.0, degenerate=True)])

    def test_a_zero_half_power_width_is_rejected(self):
        # a grid of one theta row measures a zero theta width, and a ratio
        # over it would divide by zero
        power = np.array([[0.1, 0.5, 1.0, 0.5, 0.1]])
        m = angular_metrics(make_grid(power, np.array([0.5]), np.arange(5.0), SphericalPoint(10.0, 0.5, 2.0)))
        assert m.hpbw_theta == 0.0
        with pytest.raises(ValidationError) as err:
            isotropy_report([m, m])
        assert err.value.field == "per_focal_metrics"

    def test_all_degenerate_rejected(self):
        with pytest.raises(DegeneratePattern):
            isotropy_report([beam(1, 1, 0, degenerate=True), beam(1, 1, 0, degenerate=True)])
