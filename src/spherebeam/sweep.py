"""Angular and range sweeps of beam patterns.

Grids are evaluated through the same gain kernel as single-target
channels, and every reduction accumulates in element index order, so a
sweep cell is bitwise identical to evaluating that probe on its own.
Concurrency splits the grid into disjoint row chunks; chunking never
changes any value, only who computes it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beamforming import beam_response, conjugate_weights, normalize_pattern
from .channel import los_channel, los_gains
from .errors import (
    AllBeamsInfeasible,
    NoVisibleElements,
    require_clearance,
    require_count,
    require_positive,
    require_window,
)
from .geometry import TWO_PI, ArrayGeometry, SphericalPoint, sph_to_cart


@dataclass(frozen=True)
class AngularSweepSpec:
    """Sampling plan for an angular sweep at a fixed probe range."""

    theta_samples: int = 181
    phi_samples: int = 181
    theta_range: tuple[float, float] = (0.0, math.pi)
    phi_range: tuple[float, float] = (0.0, TWO_PI)
    eval_range_m: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "theta_samples", require_count(self.theta_samples, "theta_samples", 2))
        object.__setattr__(self, "phi_samples", require_count(self.phi_samples, "phi_samples", 2))
        object.__setattr__(self, "eval_range_m", require_positive(self.eval_range_m, "eval_range_m"))
        t0, t1 = self.theta_range
        p0, p1 = self.phi_range
        if not 0.0 <= t0 < t1 <= math.pi:
            raise ValueError(f"theta_range must be an interval within [0, pi], got {self.theta_range!r}")
        if not 0.0 <= p0 < p1 <= TWO_PI:
            raise ValueError(f"phi_range must be an interval within [0, 2*pi], got {self.phi_range!r}")


@dataclass(frozen=True, eq=False)
class AngularPatternGrid:
    """Normalized power over a theta x phi grid.

    ``focal`` is the design target for a single beam and ``None`` for an
    overlay, in which case ``beams`` holds the contributing per-beam grids
    and ``skipped`` the focal points whose weights could not be formed.

    ``peak_capture`` is the raw grid maximum divided by the beam's response
    at its own focal point, before normalization. It is 1 when a sampled
    cell hits the focal direction at the focal range and falls well below 1
    when the grid steps over the main lobe. It is ``None`` for an overlay
    and for a grid rebuilt from a CSV without its sidecar.
    """

    theta_axis: np.ndarray
    phi_axis: np.ndarray
    power: np.ndarray
    focal: SphericalPoint | None
    eval_range_m: float
    normalization: str = "grid_max"
    beams: tuple[AngularPatternGrid, ...] = ()
    skipped: tuple[SphericalPoint, ...] = ()
    peak_capture: float | None = None

    def __post_init__(self):
        self.theta_axis.setflags(write=False)
        self.phi_axis.setflags(write=False)
        self.power.setflags(write=False)


@dataclass(frozen=True, eq=False)
class DistancePattern:
    """Normalized power along range at a fixed look direction."""

    r_axis: np.ndarray
    power: np.ndarray
    direction: tuple[float, float]
    focal_range_m: float

    def __post_init__(self):
        self.r_axis.setflags(write=False)
        self.power.setflags(write=False)


def _resolve_threads(threads) -> int:
    if threads is None:
        return os.cpu_count() or 1
    return require_count(threads, "threads")


def _run_chunked(fill, total: int, threads: int) -> None:
    """Fill rows [0, total) in at most ``threads`` chunks, never more than
    there are rows or CPUs."""
    chunks = min(threads, total, os.cpu_count() or 1)
    if chunks < 2:
        fill(0, total)
        return
    edges = [i * total // chunks for i in range(chunks + 1)]
    spans = [(edges[i], edges[i + 1]) for i in range(chunks) if edges[i] < edges[i + 1]]
    with ThreadPoolExecutor(max_workers=len(spans)) as pool:
        list(pool.map(lambda span: fill(*span), spans))


def _accumulate_power(positions, normals, weights, tx, ty, tz, wavelength):
    """Raw coherent power per probe, accumulated over elements in index order."""
    gains, _, _ = los_gains(positions, normals, tx, ty, tz, wavelength)
    acc = weights[0] * gains[..., 0]
    for k in range(1, weights.shape[0]):
        acc = acc + weights[k] * gains[..., k]
    return acc.real * acc.real + acc.imag * acc.imag


def _accumulate_power_and_energy(positions, normals, weights, tx, ty, tz, wavelength):
    """Raw coherent power plus channel energy per probe, same element order."""
    gains, _, _ = los_gains(positions, normals, tx, ty, tz, wavelength)
    g0 = gains[..., 0]
    acc = weights[0] * g0
    energy = g0.real * g0.real + g0.imag * g0.imag
    for k in range(1, weights.shape[0]):
        gk = gains[..., k]
        acc = acc + weights[k] * gk
        energy = energy + (gk.real * gk.real + gk.imag * gk.imag)
    return acc.real * acc.real + acc.imag * acc.imag, energy


def angular_sweep(
    geometry: ArrayGeometry,
    wavelength: float,
    focal: SphericalPoint,
    spec: AngularSweepSpec | None = None,
    *,
    normalization: str = "grid_max",
    threads: int | None = None,
) -> AngularPatternGrid:
    """Evaluate one beam over the angular grid at the spec's probe range."""
    spec = spec if spec is not None else AngularSweepSpec()
    require_clearance(spec.eval_range_m, geometry.radius_m, "eval_range_m")
    h_focal = los_channel(geometry, focal, wavelength)
    w = conjugate_weights(h_focal)

    theta_axis = np.linspace(spec.theta_range[0], spec.theta_range[1], spec.theta_samples)
    phi_axis = np.linspace(spec.phi_range[0], spec.phi_range[1], spec.phi_samples)
    th, ph = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    gx, gy, gz = sph_to_cart(spec.eval_range_m, th, ph)

    raw = np.empty((spec.theta_samples, spec.phi_samples))

    def fill(i0: int, i1: int) -> None:
        raw[i0:i1] = _accumulate_power(
            geometry.positions, geometry.normals, w.weights,
            gx[i0:i1], gy[i0:i1], gz[i0:i1], wavelength,
        )

    _run_chunked(fill, spec.theta_samples, _resolve_threads(threads))

    reference = beam_response(w, h_focal)
    if normalization == "focal":
        power, _ = normalize_pattern(raw, "focal_response", reference=reference)
    else:
        power, _ = normalize_pattern(raw, normalization)
    return AngularPatternGrid(
        theta_axis=theta_axis,
        phi_axis=phi_axis,
        power=power,
        focal=focal,
        eval_range_m=spec.eval_range_m,
        normalization=normalization,
        peak_capture=float(np.max(raw)) / reference,
    )


def multi_focal_overlay(
    geometry: ArrayGeometry,
    wavelength: float,
    focals,
    spec: AngularSweepSpec | None = None,
    *,
    normalization: str = "grid_max",
    threads: int | None = None,
) -> AngularPatternGrid:
    """Per-cell maximum over independently normalized beams.

    Focal points whose weights cannot be formed (no visible elements) are
    skipped and reported on the returned grid.
    """
    focals = list(focals)
    if not focals:
        raise ValueError("focal list is empty")
    beams: list[AngularPatternGrid] = []
    skipped: list[SphericalPoint] = []
    for focal in focals:
        try:
            beams.append(
                angular_sweep(geometry, wavelength, focal, spec, normalization=normalization, threads=threads)
            )
        except NoVisibleElements:
            skipped.append(focal)
    if not beams:
        raise AllBeamsInfeasible(f"all {len(focals)} focal points were skipped")
    power = beams[0].power
    for beam in beams[1:]:
        power = np.maximum(power, beam.power)
    first = beams[0]
    return AngularPatternGrid(
        theta_axis=first.theta_axis,
        phi_axis=first.phi_axis,
        power=power,
        focal=None,
        eval_range_m=first.eval_range_m,
        normalization=normalization,
        beams=tuple(beams),
        skipped=tuple(skipped),
    )


def distance_sweep(
    geometry: ArrayGeometry,
    wavelength: float,
    focal: SphericalPoint,
    r_min: float = 5.0,
    r_max: float = 100.0,
    samples: int = 960,
    *,
    threads: int | None = None,
) -> DistancePattern:
    """Evaluate focusing along range at the focal point's look direction.

    Each probe's coherent power is divided by that probe's channel energy
    before grid-max normalization, which isolates how well the phase front
    matches at each range instead of the 1/d amplitude growth; the result
    peaks at the design range and equals 1 there up to the grid maximum.
    """
    samples = require_count(samples, "samples", 2)
    r_min, r_max = require_window(r_min, r_max, focal.r)
    require_clearance(r_min, geometry.radius_m, "r_min")
    h_focal = los_channel(geometry, focal, wavelength)
    w = conjugate_weights(h_focal)

    r_axis = np.linspace(r_min, r_max, samples)
    gx, gy, gz = sph_to_cart(r_axis, focal.theta, focal.phi)
    gx, gy, gz = np.broadcast_arrays(gx, gy, gz)

    raw = np.empty(samples)
    energy = np.empty(samples)

    def fill(i0: int, i1: int) -> None:
        raw[i0:i1], energy[i0:i1] = _accumulate_power_and_energy(
            geometry.positions, geometry.normals, w.weights,
            gx[i0:i1], gy[i0:i1], gz[i0:i1], wavelength,
        )

    _run_chunked(fill, samples, _resolve_threads(threads))

    fraction = np.zeros(samples)
    np.divide(raw, energy, out=fraction, where=energy > 0.0)
    power, _ = normalize_pattern(fraction, "grid_max")
    return DistancePattern(
        r_axis=r_axis,
        power=power,
        direction=(focal.theta, focal.phi),
        focal_range_m=focal.r,
    )
