"""Angular and range sweeps of beam patterns.

Grids are evaluated through the same gain kernel and the same element-order
sums as single-target channels, so a sweep cell is bitwise identical to
evaluating that probe on its own. One private kernel walks the probes in
blocks of at most ``BLOCK_ENTRIES`` element x probe entries, forms each
block's probe points only when it reaches the block, computes each block's
gains once for every beam, and spreads the blocks over threads; blocking
never changes any value, only who computes it and how much memory it takes.
Each sweep chooses once which elements it evaluates, and sizes its blocks
by those elements. An angular sweep evaluates the elements that some beam
weights (a conjugate beam leaves the elements hidden from its focal point
at exactly zero, about half of a spherical array). A range sweep, which also sums each probe's channel
energy, evaluates the elements that can face some point of its ray, found
by one test per element at the two ends of its window (about half of a
spherical array again). Neither choice changes a bit: every dropped element
has a zero weight or faces no probe. Each thread writes every block's
temporaries into the same cache-sized arrays (a ``channel.Scratch``)
instead of allocating them anew, so an angular sweep's working memory is
one block per thread plus its output rows, whatever the size of the grid. A
block of gains is element-major, with exact zeros at the hidden entries,
and ``channel.coherent_power`` and ``channel.gain_energy`` sum it by probe
column with ``channel.column_sums``, which adds every probe's terms in
element order; so a block of any width, one probe included, sums in
element order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .beamforming import beam_response, conjugate_weights, normalize_pattern
from .channel import Scratch, coherent_power, gain_energy, los_channel, los_gains
from .errors import (
    AllBeamsInfeasible,
    NoVisibleElements,
    ValidationError,
    require_choice,
    require_clearance,
    require_count,
    require_positive,
    require_shape,
    require_window,
)
from .geometry import TWO_PI, ArrayGeometry, SphericalPoint, sph_to_cart

# each normalization an angular sweep accepts: by the grid maximum or by the
# beam's response at its focal point
_NORMALIZATIONS = ("grid_max", "focal")

BLOCK_ENTRIES = 25_600
"""Most element x probe entries per gain evaluation in a sweep.

A block holds ``max(1, BLOCK_ENTRIES // k)`` probes for the ``k``
elements the sweep evaluates: the elements that some beam weights in an
angular sweep, those that can face the ray in a range sweep. Each of its
``k`` x probes entries takes 49 bytes in the ``channel.Scratch`` arrays a
thread reuses (the complex gains, products and squares at 16 bytes each,
the mask at 1) and at most 8 more in the short-lived gather of a facing
entry's distance. So a block needs at most about 1.4 MiB, when every
evaluated element faces every probe, and stays in a 2 MiB L2 cache, for
both sweep kinds and any element count. Each ``los_gains`` call also has
a fixed cost of tens of microseconds, so a budget much smaller than this
one makes the sweeps slower: half of it made every benchmark workload
6-8% slower, and one and a half times it made the range study 5% slower.
"""


@dataclass(frozen=True)
class AngularSweepSpec:
    """Sampling plan for an angular sweep at a fixed probe range."""

    theta_samples: int = 181
    phi_samples: int = 181
    theta_range: tuple[float, float] = (0.0, math.pi)
    phi_range: tuple[float, float] = (0.0, TWO_PI)
    eval_range_m: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "theta_samples", require_count(self.theta_samples, "theta_samples"))
        object.__setattr__(self, "phi_samples", require_count(self.phi_samples, "phi_samples"))
        object.__setattr__(self, "eval_range_m", require_positive(self.eval_range_m, "eval_range_m"))
        t0, t1 = self.theta_range
        p0, p1 = self.phi_range
        if not 0.0 <= t0 < t1 <= math.pi:
            raise ValidationError(
                f"theta_range must be an interval within [0, pi], got {self.theta_range!r}", "theta_range"
            )
        if not 0.0 <= p0 < p1 <= TWO_PI:
            raise ValidationError(
                f"phi_range must be an interval within [0, 2*pi], got {self.phi_range!r}", "phi_range"
            )


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

    ``power`` has one row per theta and one column per phi; any other shape
    raises ``DimensionMismatch``.
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
        require_shape(self.power, (self.theta_axis.size, self.phi_axis.size), "power")
        self.theta_axis.setflags(write=False)
        self.phi_axis.setflags(write=False)
        self.power.setflags(write=False)


@dataclass(frozen=True, eq=False)
class DistancePattern:
    """Normalized power along range at a fixed look direction; ``power``
    has the shape of ``r_axis`` or raises ``DimensionMismatch``."""

    r_axis: np.ndarray
    power: np.ndarray
    direction: tuple[float, float]
    focal_range_m: float

    def __post_init__(self):
        require_shape(self.power, self.r_axis.shape, "power")
        self.r_axis.setflags(write=False)
        self.power.setflags(write=False)


def _sweep_kernel(
    geometry: ArrayGeometry, wavelength: float, total, probes, weight_sets, threads, *, kept, energy=False
):
    """Raw coherent power of every weight vector, and channel energy, per probe.

    ``probes(i0, i1)`` returns the x, y, z arrays of probes ``i0`` to
    ``i1 - 1`` of the ``total`` probes, so only one block's points exist at
    a time. ``kept`` masks the elements the caller evaluates, which must
    include every element that faces some probe or has a nonzero weight;
    only those ``k`` elements and their weights reach the gain kernel, in
    element order. Each block of ``max(1, BLOCK_ENTRIES // k)`` probes, and
    at most an even share of the probes per worker, makes one ``los_gains``
    call over the ``k`` elements shared by all weight vectors, and blocks
    run on at most ``min(threads, blocks, os.cpu_count())`` threads.
    Each thread reuses one set of block-sized arrays for all of its blocks,
    49 bytes per entry and 8 more per facing entry (see ``BLOCK_ENTRIES``).
    Returns ``(powers, energy)`` of shapes ``(len(weight_sets), total)``
    and ``(total,)``; the channel energy is computed only when ``energy``
    is true and is ``None`` otherwise.

    The callers choose ``kept`` once per sweep, and either choice leaves
    every bit as it is. An angular sweep keeps the elements whose weight is
    nonzero in some weight set: a dropped element's term is
    ``(+-0) * g = +-0``, and adding a signed zero changes an element-order
    sum at most in the sign of an exact zero, which ``re*re + im*im`` cannot
    show (see ``channel.column_sums``). A range sweep, which also sums each
    probe's channel energy, keeps the elements that can face some point of
    its ray (``_ray_support``). Every weighted element faces the focal
    point, which lies on the ray, so it is kept; a dropped element faces no
    probe, so each of its terms is a zero, and the kept terms are summed in
    the same element order.

    No ``DegenerateGeometry`` can be lost with a dropped element. A probe
    that coincides with an element faces it at exactly 0, which the ray
    test keeps. In an angular sweep, for the spherical kinds
    ``require_clearance`` keeps every probe off the array sphere, so no
    probe meets any element, and a planar array has one normal, so a focal
    point in front of it weights every element (one behind it has no beam
    and never reaches the kernel). The overflow guard of ``los_gains``
    bounds the distances of the elements it is given, which are the only
    ones computed, so probes whose distances overflow still raise before
    any block array is formed.
    """
    positions, normals = geometry.positions[kept], geometry.normals[kept]
    weight_sets = [weights[kept] for weights in weight_sets]
    asked = total if threads is None else require_count(threads, "threads")
    workers = min(asked, total, os.cpu_count() or 1)
    block = min(max(1, BLOCK_ENTRIES // len(positions)), -(-total // workers))
    starts = range(0, total, block)
    workers = min(workers, len(starts))
    powers = np.empty((len(weight_sets), total))
    energies = np.empty(total) if energy else None
    scratch = Scratch()

    def fill(i0: int) -> None:
        i1 = min(i0 + block, total)
        gains, _, _ = los_gains(positions, normals, *probes(i0, i1), wavelength, scratch)
        for row, weights in zip(powers, weight_sets):
            row[i0:i1] = coherent_power(weights, gains, scratch)
        if energies is not None:
            energies[i0:i1] = gain_energy(gains, scratch)

    if workers < 2:
        for i0 in starts:
            fill(i0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
    return powers, energies


def _ray_support(geometry: ArrayGeometry, theta: float, phi: float, r_min: float, r_max: float) -> np.ndarray:
    """Mask of the elements that can face a point ``r * u`` of the ray at
    ``(theta, phi)`` with ``r_min <= r <= r_max``.

    An element at ``p`` with normal ``n`` faces ``r * u`` when ``r * (u.n)
    - p.n > 0``, which is linear in ``r``. So is the rounding margin
    ``1e-9 * (r + max|p|)``, which lies far above both the drift of the
    float probes off the exact ray and the rounding of the facing test in
    ``los_gains``. Their sum is therefore largest at one end of the window,
    and one test per element at the two ends covers every probe of the
    sweep: an element that faces any probe is kept, and so is one that a
    probe coincides with, which faces it at exactly 0.
    """
    ux, uy, uz = sph_to_cart(1.0, theta, phi)
    p, n = geometry.positions, geometry.normals
    margin = 1e-9
    un = ((ux * n[:, 0] + uy * n[:, 1]) + uz * n[:, 2]) + margin
    pn = (p[:, 0] * n[:, 0] + p[:, 1] * n[:, 1]) + p[:, 2] * n[:, 2]
    return np.maximum(r_min * un, r_max * un) - pn > -margin * float(np.max(np.abs(p)))


def _angular_beams(geometry, wavelength, focals, spec, normalization, threads, skipped=None):
    """Normalized grids of the focal points in order, from one kernel pass.

    A focal point with no visible element raises ``NoVisibleElements``, or
    is appended to ``skipped`` when a list is given. The normalization name
    is checked before any gain is computed.
    """
    focal_norm = require_choice(normalization, _NORMALIZATIONS, "normalization") == "focal"
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
    shape = (spec.theta_samples, spec.phi_samples)

    def probes(i0, i1):
        # the grid is row-major: cell c lies in theta row c // m and phi column c % m, m = phi_samples
        rows, cols = np.divmod(np.arange(i0, i1), spec.phi_samples)
        return sph_to_cart(spec.eval_range_m, theta_axis[rows], phi_axis[cols])

    weights = [w.weights for _, w in matched]
    weighted = np.any(np.not_equal(weights, 0.0), axis=0)
    powers, _ = _sweep_kernel(geometry, wavelength, math.prod(shape), probes, weights, threads, kept=weighted)
    beams = []
    for (h_focal, w), raw in zip(matched, powers):
        raw = raw.reshape(shape)
        reference = beam_response(w, h_focal)
        # a beam that lights no cell keeps its zeros, a degenerate pattern
        power = normalize_pattern(raw, reference if focal_norm else None) if raw.any() else raw
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
        raise ValidationError("focal list is empty", "focals")
    skipped: list[SphericalPoint] = []
    beams = _angular_beams(geometry, wavelength, focals, spec, normalization, threads, skipped)
    if not beams:
        raise AllBeamsInfeasible(f"all {len(focals)} focal points were skipped")
    power = beams[0].power.copy()
    for beam in beams[1:]:
        np.maximum(power, beam.power, out=power)
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
    samples = require_count(samples, "samples")
    r_min, r_max = require_window(r_min, r_max, focal.r)
    require_clearance(r_min, geometry.radius_m, "r_min")
    h_focal = los_channel(geometry, focal, wavelength)
    w = conjugate_weights(h_focal)

    r_axis = np.linspace(r_min, r_max, samples)
    ray = sph_to_cart(r_axis, focal.theta, focal.phi)
    (raw,), energy = _sweep_kernel(
        geometry, wavelength, samples, lambda i0, i1: [a[i0:i1] for a in ray], [w.weights], threads,
        kept=_ray_support(geometry, focal.theta, focal.phi, r_min, r_max), energy=True,
    )

    fraction = np.zeros(samples)
    np.divide(raw, energy, out=fraction, where=energy > 0.0)
    power = normalize_pattern(fraction)
    return DistancePattern(
        r_axis=r_axis,
        power=power,
        direction=(focal.theta, focal.phi),
        focal_range_m=focal.r,
    )
