"""Reference evaluation of the spherical-wave model, written apart from the program.

The benchmark checks the program's patterns against these formulas. An
element facing a target strictly (positive dot product of its outward
normal with the element-to-target vector) carries the gain
``wavelength / (4 pi d) * exp(-i 2 pi d / wavelength)`` at distance ``d``;
every other element carries zero. Nothing here imports the program's
channel, beamforming or sweep code: it shares only the element positions
and normals of the geometry under test.
"""

from __future__ import annotations

import math

import numpy as np

REL_CELL = 1e-9
"""Relative tolerance between a recomputed cell and the program's value."""

MIN_SAMPLED_POWER = 1e-6
"""Cells below this normalized power are not sampled: cancellation there
magnifies rounding beyond ``REL_CELL`` in any summation order."""

NODE_TOL_M = 1e-9
"""A focal point within this distance of a grid probe sits on a grid node."""

DOF_LAW_TOL = 0.25
"""Allowed spread of depth of focus / (wavelength * r^2 / R^2) around its median."""


class CheckFailed(Exception):
    """An output of the program disagrees with the reference or a property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def cartesian(r, theta, phi) -> np.ndarray:
    """Cartesian coordinates of spherical ones; broadcasts to shape ``(..., 3)``."""
    r, theta, phi = np.broadcast_arrays(
        np.asarray(r, dtype=np.float64), np.asarray(theta, dtype=np.float64), np.asarray(phi, dtype=np.float64)
    )
    s = np.sin(theta)
    return np.stack([r * s * np.cos(phi), r * s * np.sin(phi), r * np.cos(theta)], axis=-1)


def gains(positions, normals, target, wavelength: float):
    """Gains of every element toward one Cartesian target, and the facing values."""
    d_vec = np.asarray(target, dtype=np.float64) - positions
    dist = np.sqrt(np.sum(d_vec * d_vec, axis=1))
    facing = np.sum(d_vec * normals, axis=1)
    g = wavelength / (4.0 * math.pi * dist) * np.exp(-2j * math.pi * dist / wavelength)
    return np.where(facing > 0.0, g, 0.0), facing


def _ambiguous(facing, target) -> bool:
    """True when an element faces the target to within rounding, so either
    visibility answer is correct and the cell cannot be compared to 1e-9."""
    return bool(np.min(np.abs(facing)) < 1e-12 * float(np.linalg.norm(target)))


def sample_cells(power: np.ndarray, rng: np.random.Generator, count: int) -> list[tuple[int, ...]]:
    """The grid maximum followed by ``count`` random cells of usable power."""
    peak = np.unravel_index(int(np.argmax(power)), power.shape)
    usable = np.flatnonzero(power >= MIN_SAMPLED_POWER)
    picked = rng.choice(usable, size=min(count, usable.size), replace=False)
    return [tuple(int(v) for v in peak)] + [tuple(int(v) for v in np.unravel_index(k, power.shape)) for k in picked]


def check_angular_beam(label, theta_axis, phi_axis, power, capture, focal, eval_range,
                       positions, normals, wavelength, rng, samples: int = 24) -> None:
    """Check one normalized angular beam against the spherical-wave model.

    ``focal`` is ``(r, theta, phi)``. Raw coherent power at a probe p is
    ``|h_f^H h_p|^2 / ||h_f||^2`` for conjugate weights on the focal channel
    ``h_f``; the program stores it as ``power * peak_capture * ||h_f||^2``.
    """
    require(float(np.max(power)) == 1.0, f"{label}: normalized maximum is {np.max(power)!r}, not 1")
    focal_xyz = cartesian(*focal)
    h_f, _ = gains(positions, normals, focal_xyz, wavelength)
    energy = float(np.sum(h_f.real * h_f.real + h_f.imag * h_f.imag))
    peak = np.unravel_index(int(np.argmax(power)), power.shape)
    for i, j in sample_cells(power, rng, samples):
        probe = cartesian(eval_range, theta_axis[i], phi_axis[j])
        g, facing = gains(positions, normals, probe, wavelength)
        if (i, j) != peak and _ambiguous(facing, probe):
            continue
        s = np.sum(np.conj(h_f) * g)
        raw = float(s.real * s.real + s.imag * s.imag) / energy
        stored = float(power[i, j]) * capture * energy
        require(close(raw, stored, REL_CELL),
                f"{label}: cell ({i}, {j}) recomputes to {raw!r}, program gives {stored!r}")
    probes = cartesian(eval_range, theta_axis[:, None], phi_axis[None, :])
    gap = float(np.min(np.linalg.norm(probes - focal_xyz, axis=-1)))
    if gap < NODE_TOL_M:
        require(abs(capture - 1.0) <= 1e-12,
                f"{label}: focal point is a grid node but peak_capture is {capture!r}")


def half_power_width(r_axis, power, peak: int) -> float | None:
    """Two-sided half-power width around ``peak`` by linear interpolation;
    ``None`` when the pattern does not fall to half inside the window."""
    level = 0.5 * float(power[peak])
    edges = []
    for step in (-1, 1):
        i = peak
        while 0 <= i + step < len(power) and power[i + step] >= level:
            i += step
        j = i + step
        if not 0 <= j < len(power):
            return None
        frac = (power[i] - level) / (power[i] - power[j])
        edges.append(r_axis[i] + frac * (r_axis[j] - r_axis[i]))
    return float(edges[1] - edges[0])


def check_focus(label, r_axis, power, focal, positions, normals, wavelength, rng,
                samples: int = 8) -> float:
    """Check one normalized range pattern; returns its two-sided depth of focus.

    The program divides coherent power by each probe's channel energy before
    grid-max normalization, so a cell is ``|h_f^H h_r|^2 / (||h_f||^2 ||h_r||^2)``
    over the same quantity at the peak cell. By Cauchy-Schwarz the peak lies
    at the focal range, so on the grid it is within one range step of it.
    """
    r_f, theta, phi = focal
    require(float(np.max(power)) == 1.0, f"{label}: normalized maximum is {np.max(power)!r}, not 1")
    peak = int(np.argmax(power))
    step = float(r_axis[1] - r_axis[0])
    require(abs(float(r_axis[peak]) - r_f) <= step * (1.0 + 1e-9),
            f"{label}: peak at {r_axis[peak]!r} m, focal range {r_f!r} m, step {step!r} m")
    h_f, _ = gains(positions, normals, cartesian(r_f, theta, phi), wavelength)
    w = np.conj(h_f) / math.sqrt(float(np.sum(np.abs(h_f) ** 2)))

    def matched_share(r: float) -> float:
        probe = cartesian(r, theta, phi)
        g, _ = gains(positions, normals, probe, wavelength)
        s = np.sum(w * g)
        return float(s.real * s.real + s.imag * s.imag) / float(np.sum(g.real * g.real + g.imag * g.imag))

    reference = matched_share(float(r_axis[peak]))
    for (i,) in sample_cells(power, rng, samples):
        expect = matched_share(float(r_axis[i])) / reference
        require(close(expect, float(power[i]), REL_CELL),
                f"{label}: range cell {i} recomputes to {expect!r}, program gives {power[i]!r}")
    dof = half_power_width(r_axis, power, peak)
    require(dof is not None, f"{label}: the pattern does not fall to half power on both sides")
    return dof


def check_dof_law(label, entries) -> None:
    """``entries`` holds ``(depth_of_focus, wavelength, focal_range, radius)``.

    Depth of focus scales with wavelength * r^2 / R^2 (Bjornson, Demir &
    Sanguinetti, "A Primer on Near-Field Beamforming in Arrays and
    Surfaces", 2021); the constant depends on the aperture shape, so each
    normalized depth is compared with the median of the set.
    """
    ratios = [dof * radius**2 / (wl * r**2) for dof, wl, r, radius in entries]
    centre = float(np.median(ratios))
    for ratio, (dof, wl, r, radius) in zip(ratios, entries):
        require(abs(ratio / centre - 1.0) <= DOF_LAW_TOL,
                f"{label}: depth of focus {dof:.4f} m at r={r} m, R={radius} m gives "
                f"{ratio:.4f} x wavelength r^2/R^2, median {centre:.4f}")
