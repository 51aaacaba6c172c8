"""Angular and range sweeps of beam patterns.

Grids are evaluated through the same gain kernel and the same element-order
sums as single-target channels, so a sweep cell is bitwise identical to
evaluating that probe on its own. One private kernel walks the probes in
fixed blocks, computes each block's gains once for every beam, and spreads
the blocks over threads; blocking never changes any value, only who
computes it and how much memory it takes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .beamforming import beam_response, coherent_power, conjugate_weights, normalize_pattern
from .channel import gain_energy, los_channel, los_gains
from .errors import (
    AllBeamsInfeasible,
    NoVisibleElements,
    require_clearance,
    require_count,
    require_positive,
    require_window,
)
from .geometry import TWO_PI, ArrayGeometry, SphericalPoint, sph_to_cart

BLOCK_PROBES = 1024
"""Most probes per gain evaluation in a sweep, which bounds its working set."""


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


def _sweep_kernel(geometry: ArrayGeometry, wavelength: float, probes, weight_sets, threads):
    """Raw coherent power of every weight vector, and channel energy, per probe.

    ``probes`` holds the x, y, z arrays of the probe points, which are
    flattened. Each block of at most ``BLOCK_PROBES`` probes makes one
    ``los_gains`` call shared by all weight vectors, and blocks run on at
    most ``min(threads, blocks, os.cpu_count())`` threads. Returns
    ``(powers, energy)`` of shapes ``(len(weight_sets), probes)`` and
    ``(probes,)``.
    """
    px, py, pz = (np.ravel(a) for a in probes)
    total = px.shape[0]
    workers = min(_resolve_threads(threads), total, os.cpu_count() or 1)
    block = min(BLOCK_PROBES, -(-total // workers))
    starts = range(0, total, block)
    workers = min(workers, len(starts))
    powers = np.empty((len(weight_sets), total))
    energy = np.empty(total)

    def fill(i0: int) -> None:
        i1 = i0 + block
        gains, _, _ = los_gains(
            geometry.positions, geometry.normals, px[i0:i1], py[i0:i1], pz[i0:i1], wavelength
        )
        for row, weights in zip(powers, weight_sets):
            row[i0:i1] = coherent_power(weights, gains)
        energy[i0:i1] = gain_energy(gains)

    if workers < 2:
        for i0 in starts:
            fill(i0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
    return powers, energy


def _angular_beams(geometry, wavelength, focals, spec, normalization, threads, skipped=None):
    """Normalized grids of the focal points in order, from one kernel pass.

    A focal point with no visible element raises ``NoVisibleElements``, or
    is appended to ``skipped`` when a list is given.
    """
    spec = spec if spec is not None else AngularSweepSpec()
    require_clearance(spec.eval_range_m, geometry.radius_m, "eval_range_m")
    matched = []
    for focal in focals:
        h = los_channel(geometry, focal, wavelength)
        try:
            matched.append((h, conjugate_weights(h)))
        except NoVisibleElements:
            if skipped is None:
                raise
            skipped.append(focal)
    if not matched:
        return []
    theta_axis = np.linspace(spec.theta_range[0], spec.theta_range[1], spec.theta_samples)
    phi_axis = np.linspace(spec.phi_range[0], spec.phi_range[1], spec.phi_samples)
    th, ph = np.meshgrid(theta_axis, phi_axis, indexing="ij")
    probes = sph_to_cart(spec.eval_range_m, th, ph)
    powers, _ = _sweep_kernel(geometry, wavelength, probes, [w.weights for _, w in matched], threads)
    mode = "focal_response" if normalization == "focal" else normalization
    beams = []
    for (h_focal, w), raw in zip(matched, powers):
        raw = raw.reshape(th.shape)
        reference = beam_response(w, h_focal)
        power, _ = normalize_pattern(raw, mode, reference=reference)
        beams.append(AngularPatternGrid(
            theta_axis=theta_axis, phi_axis=phi_axis, power=power, focal=h_focal.target,
            eval_range_m=spec.eval_range_m, normalization=normalization,
            peak_capture=float(np.max(raw)) / reference,
        ))
    return beams


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
    return _angular_beams(geometry, wavelength, [focal], spec, normalization, threads)[0]


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
    skipped and reported on the returned grid. The other beams share one
    kernel pass over the grid.
    """
    focals = list(focals)
    if not focals:
        raise ValueError("focal list is empty")
    skipped: list[SphericalPoint] = []
    beams = _angular_beams(geometry, wavelength, focals, spec, normalization, threads, skipped)
    if not beams:
        raise AllBeamsInfeasible(f"all {len(focals)} focal points were skipped")
    power = beams[0].power
    for beam in beams[1:]:
        power = np.maximum(power, beam.power)
    return replace(
        beams[0], power=power, focal=None, beams=tuple(beams), skipped=tuple(skipped), peak_capture=None
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
    probes = np.broadcast_arrays(*sph_to_cart(r_axis, focal.theta, focal.phi))
    (raw,), energy = _sweep_kernel(geometry, wavelength, probes, [w.weights], threads)

    fraction = np.zeros(samples)
    np.divide(raw, energy, out=fraction, where=energy > 0.0)
    power, _ = normalize_pattern(fraction, "grid_max")
    return DistancePattern(
        r_axis=r_axis,
        power=power,
        direction=(focal.theta, focal.phi),
        focal_range_m=focal.r,
    )
