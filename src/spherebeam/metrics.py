"""Scalar beam-quality figures extracted from swept patterns.

Half-power widths come from linear interpolation of the 0.5-of-peak
crossings along the axis cuts through the peak cell. The main lobe on a
cut is the contiguous region around the peak bounded by the first local
minima; the sidelobe level is the maximum over everything outside the
main lobe's bounding box. Every cut walks the same two searches: a phi
row spanning a full turn, less its duplicate endpoint column, is unrolled
into an open cut reaching half a period to each side of the peak.

These figures describe the main lobe only if the grid sampled it. A beam
whose grid maximum reaches less than half of its focal response has no
sampled cell inside the main lobe's half-power region, and
``angular_metrics`` warns with ``MainLobeMissed``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .beamforming import DB_FLOOR
from .errors import DegeneratePattern, MainLobeMissed, ValidationError
from .geometry import TWO_PI, sph_to_cart
from .sweep import AngularPatternGrid, DistancePattern

MIN_PEAK_CAPTURE = 0.5
"""Smallest ``peak_capture`` at which a grid sampled the main lobe's half-power region."""


def _figure(key: str | None = None, **field_kwargs):
    """A reported figure's field; every output names it ``key``, by default
    the field's own name."""
    return field(metadata={"figure": key}, **field_kwargs)


def figures(record) -> list[tuple[str, str]]:
    """``(key, field name)`` of each reported figure of a metrics record or
    class, in field order; tables, ``metrics.txt`` and ``spherebeam
    metrics`` take their keys and columns from here."""
    return [(f.metadata["figure"] or f.name, f.name) for f in fields(record) if "figure" in f.metadata]


@dataclass(frozen=True)
class BeamMetrics:
    """Pointing, beamwidth, and sidelobe figures for one angular beam.

    ``peak_capture`` is copied from the grid (see ``AngularPatternGrid``);
    it is ``None`` when the grid did not carry it.
    """

    peak_theta: float = _figure()
    peak_phi: float = _figure()
    pointing_error_rad: float = _figure("pointing_err")
    hpbw_theta: float = _figure()
    hpbw_phi: float = _figure()
    peak_sidelobe_db: float = _figure("psl_db")
    degenerate: bool = False
    peak_capture: float | None = None


@dataclass(frozen=True)
class FocusMetrics:
    """Range-domain focusing figures for one distance pattern.

    ``one_sided`` is set when a half-power crossing was missing inside the
    sweep window and the window edge substituted for it.
    """

    peak_r_m: float = _figure()
    depth_of_focus_m: float = _figure()
    focal_error_m: float = _figure()
    one_sided: bool = _figure(default=False)
    degenerate: bool = False


@dataclass(frozen=True)
class IsotropyReport:
    """Max/min half-power width ratios and sidelobe spread across focal points."""

    hpbw_theta_ratio: float = _figure()
    hpbw_phi_ratio: float = _figure()
    sidelobe_spread_db: float = _figure()
    n_beams: int


def great_circle_angle(theta_a: float, phi_a: float, theta_b: float, phi_b: float) -> float:
    """Angle in radians between two directions on the unit sphere."""
    ax, ay, az = sph_to_cart(1.0, theta_a, phi_a)
    bx, by, bz = sph_to_cart(1.0, theta_b, phi_b)
    dot = ax * bx + ay * by + az * bz
    return float(np.arccos(np.clip(dot, -1.0, 1.0)))


def _interp_crossing(c_in, v_in, c_out, v_out, level):
    frac = (v_in - level) / (v_in - v_out)
    return c_in + frac * (c_out - c_in)


def _crossing_linear(values, coords, peak: int, step: int, level: float):
    """First crossing below ``level`` walking from the peak.

    Returns (coordinate, found). A missing crossing clamps to the
    boundary coordinate on that side.
    """
    i = peak
    while True:
        j = i + step
        if j < 0 or j >= len(values):
            return float(coords[i]), False
        if values[j] < level:
            return (
                _interp_crossing(float(coords[i]), float(values[i]), float(coords[j]), float(values[j]), level),
                True,
            )
        i = j


def _lobe_edge_linear(values, peak: int, step: int) -> int:
    """Index of the first local minimum walking from the peak."""
    i = peak
    while 0 <= i + step < len(values) and values[i + step] < values[i]:
        i += step
    return i


def _peak(p, name: str) -> float:
    """The maximum of ``p``, which must be positive and stand out of rounding."""
    # a spread of a few ulps of the maximum is rounding: with one facing
    # element the normalized power is 1 at every probe, up to the rounding
    # of the sums and divisions that formed it
    peak = float(np.max(p))
    if peak <= 0.0 or peak - float(np.min(p)) <= 8 * np.finfo(float).eps * peak:
        raise DegeneratePattern(f"{name} is flat, no distinct peak to measure")
    return peak


def angular_metrics(grid: AngularPatternGrid) -> BeamMetrics:
    """Extract pointing, half-power widths, and sidelobe level for one beam;
    the pointing error is measured against ``grid.focal``.

    Warns with ``MainLobeMissed`` when the grid's ``peak_capture`` is below
    ``MIN_PEAK_CAPTURE``; the figures are still returned as measured.
    """
    focal = grid.focal
    if focal is None:
        raise ValidationError("a focal point is required to compute the pointing error", "focal")
    p = grid.power
    peak_val = _peak(p, "pattern")
    capture = grid.peak_capture
    if capture is not None and capture < MIN_PEAK_CAPTURE:
        warnings.warn(
            f"focal (r={focal.r:g} m, theta={math.degrees(focal.theta):.3f} deg, "
            f"phi={math.degrees(focal.phi):.3f} deg): the grid maximum reaches only "
            f"{capture:.3f} of the focal response, so no sampled cell lies in the main "
            f"lobe's half-power region and the pointing, beamwidth and sidelobe figures "
            f"do not describe the main lobe",
            MainLobeMissed,
            stacklevel=2,
        )
    i_pk, j_pk = divmod(int(np.argmax(p)), p.shape[1])
    theta_axis = grid.theta_axis
    phi_axis = grid.phi_axis
    peak_theta = float(theta_axis[i_pk])
    peak_phi = float(phi_axis[j_pk])
    level = 0.5 * peak_val

    tcut = p[:, j_pk]
    left, _ = _crossing_linear(tcut, theta_axis, i_pk, -1, level)
    right, _ = _crossing_linear(tcut, theta_axis, i_pk, +1, level)
    # A peak exactly on a pole sample continues through the pole, so the
    # half-width found on the open side is mirrored instead of clamping.
    if i_pk == 0 and float(theta_axis[0]) == 0.0:
        hpbw_theta = 2.0 * (right - peak_theta)
    elif i_pk == len(tcut) - 1 and float(theta_axis[-1]) == math.pi:
        hpbw_theta = 2.0 * (peak_theta - left)
    else:
        hpbw_theta = right - left
    i_lo = _lobe_edge_linear(tcut, i_pk, -1)
    i_hi = _lobe_edge_linear(tcut, i_pk, +1)

    span = float(phi_axis[-1]) - float(phi_axis[0])
    cyclic = abs(span - TWO_PI) < 1e-12
    cols = np.arange(p.shape[1])
    j_cut, phi_cut = j_pk, phi_axis
    prow = p[i_pk]
    if cyclic:
        # Drop the duplicate endpoint column and unroll one period into an
        # open cut running half a period to each side of the peak.
        m = p.shape[1] - 1
        steps = np.arange(-(m // 2), m // 2 + 1)
        j_pk %= m
        cols = (j_pk + steps) % m
        j_cut, phi_cut = m // 2, float(phi_axis[j_pk]) + steps * (TWO_PI / m)
        # columns 0 and m sample one direction; the cut takes the larger value
        prow = np.where(cols == 0, max(p[i_pk, 0], p[i_pk, m]), p[i_pk, cols])
    left, left_found = _crossing_linear(prow, phi_cut, j_cut, -1, level)
    right, right_found = _crossing_linear(prow, phi_cut, j_cut, +1, level)
    lo = _lobe_edge_linear(prow, j_cut, -1)
    hi = _lobe_edge_linear(prow, j_cut, +1)
    lobe_cols = set(cols[lo : hi + 1].tolist())
    if cyclic:
        # A side without a crossing ends pi from the peak (the cut ends
        # m // 2 steps away, not pi for odd m); a flat row makes the whole
        # turn the lobe; column 0 brings its duplicate endpoint column along.
        left = left if left_found else float(phi_axis[j_pk]) - math.pi
        right = right if right_found else float(phi_axis[j_pk]) + math.pi
        if float(np.max(prow)) == float(np.min(prow)):
            lobe_cols = set(range(m + 1))
        elif 0 in lobe_cols:
            lobe_cols.add(m)
    hpbw_phi = right - left

    outside = np.ones(p.shape, dtype=bool)
    outside[i_lo : i_hi + 1, sorted(lobe_cols)] = False
    psl = float(np.max(p, where=outside, initial=0.0))
    # a ratio that underflows to zero reads as the floor too
    ratio = psl / peak_val
    psl_db = DB_FLOOR if psl <= 0.0 or ratio == 0.0 else 10.0 * math.log10(ratio)

    return BeamMetrics(
        peak_theta=peak_theta,
        peak_phi=peak_phi,
        pointing_error_rad=great_circle_angle(peak_theta, peak_phi, focal.theta, focal.phi),
        hpbw_theta=hpbw_theta,
        hpbw_phi=hpbw_phi,
        peak_sidelobe_db=psl_db,
        peak_capture=capture,
    )


def focus_metrics(pattern: DistancePattern) -> FocusMetrics:
    """Peak range, depth of focus, and focal error of a distance pattern."""
    p = pattern.power
    peak_val = _peak(p, "distance pattern")
    i_pk = int(np.argmax(p))
    level = 0.5 * peak_val
    left, left_found = _crossing_linear(p, pattern.r_axis, i_pk, -1, level)
    right, right_found = _crossing_linear(p, pattern.r_axis, i_pk, +1, level)
    peak_r = float(pattern.r_axis[i_pk])
    return FocusMetrics(
        peak_r_m=peak_r,
        depth_of_focus_m=right - left,
        focal_error_m=abs(peak_r - pattern.focal.r),
        one_sided=not (left_found and right_found),
    )


def measure(pattern):
    """Figures of an angular grid or distance pattern against its ``focal``; a
    flat pattern gets the NaN record marked ``degenerate``, which keeps a
    grid's ``peak_capture``."""
    distance = isinstance(pattern, DistancePattern)
    try:
        return focus_metrics(pattern) if distance else angular_metrics(pattern)
    except DegeneratePattern:
        record, kept = (FocusMetrics, {}) if distance else (BeamMetrics, {"peak_capture": pattern.peak_capture})
        nan = {f.name: math.nan for f in fields(record) if f.default is MISSING}
        return record(**nan, degenerate=True, **kept)


def isotropy_report(per_focal_metrics) -> IsotropyReport:
    """Ratio and spread summary of beam metrics across focal points;
    degenerate beams are dropped, at least two beams must be left, and each
    of their half-power widths must be positive."""
    entries = list(per_focal_metrics)
    usable = [m for m in entries if not m.degenerate]
    if entries and not usable:
        raise DegeneratePattern("every beam was degenerate")
    if len(usable) < 2:
        raise ValidationError("need at least two non-degenerate beams to summarize isotropy", "per_focal_metrics")
    ht = [m.hpbw_theta for m in usable]
    hp = [m.hpbw_phi for m in usable]
    if min(ht + hp) <= 0.0:
        raise ValidationError("a beam with a zero half-power width has no isotropy ratio", "per_focal_metrics")
    sl = [m.peak_sidelobe_db for m in usable]
    return IsotropyReport(
        hpbw_theta_ratio=max(ht) / min(ht),
        hpbw_phi_ratio=max(hp) / min(hp),
        sidelobe_spread_db=max(sl) - min(sl),
        n_beams=len(usable),
    )
