"""Near-field line-of-sight channel coefficients with visibility masking.

An element contributes only when its outward normal faces the target
(strict positive dot product); everything else is exactly zero. For a
planar array with +z normals this reduces to requiring the target to sit
in the forward hemisphere. Visible elements carry the spherical-wave
coefficient (wl / (4*pi*d)) * exp(-i*2*pi*d/wl) at propagation distance d,
with no far-field approximation at any range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InvalidWavelength, ValidationError, require_clearance, require_positive
from .geometry import TWO_PI, ArrayGeometry, SphericalPoint

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True, eq=False)
class ChannelVector:
    """Per-element complex gains plus the visibility mask that shaped them."""

    gains: np.ndarray
    visible: np.ndarray
    wavelength_m: float
    target: SphericalPoint

    def __post_init__(self):
        self.gains.setflags(write=False)
        self.visible.setflags(write=False)

    def __len__(self) -> int:
        return self.gains.shape[0]


def los_gains(positions, normals, tx, ty, tz, wavelength):
    """Gain kernel shared by the scalar channel and the grid sweeps.

    Element columns broadcast against the target components, giving
    element-major arrays of shape ``(n,) + targets``, so a sum over elements
    runs over the first axis. Returns ``(gains, visible, dist)``: the
    complex gains, the facing mask, and the distances of the visible
    entries only, flattened in row-major order of ``visible`` (element by
    element, targets within each). Because both the single-target path and
    the vectorized sweeps run through this one function (and accumulate in
    element index order), their per-element values agree bit for bit.

    The square root, amplitude and complex exponential are evaluated only
    where the element faces the target; hidden entries are exactly
    ``+0+0j``. Each visible value is the same elementwise arithmetic as
    evaluating every entry, so masking changes no bit. Every entry is still
    checked for coinciding with an element.

    Raises ``ValidationError`` before any arithmetic when a distance's
    square or phase could overflow float64. The bound, twice the sum of the
    largest element and target coordinates, exceeds every distance and
    costs O(elements + targets).
    """
    tx, ty, tz = (np.asarray(t, dtype=np.float64) for t in (tx, ty, tz))
    reach = max(float(np.max(np.abs(t))) for t in (tx, ty, tz))
    bound = 2.0 * (float(np.max(np.abs(positions))) + reach)
    if not (math.isfinite(bound * bound) and math.isfinite(bound * (TWO_PI / float(wavelength)))):
        raise ValidationError(
            f"target distances up to {bound:.3g} m overflow float64 at wavelength {wavelength} m", "target"
        )
    column = (positions.shape[0],) + (1,) * np.broadcast(tx, ty, tz).ndim
    px, py, pz = (positions[:, i].reshape(column) for i in range(3))
    nx, ny, nz = (normals[:, i].reshape(column) for i in range(3))
    dx = tx - px
    dy = ty - py
    dz = tz - pz
    d2 = dx * dx + dy * dy + dz * dz
    if np.any(d2 == 0.0):
        raise DegenerateGeometry("target coincides with an element position")
    facing = dx * nx + dy * ny + dz * nz
    visible = facing > 0.0
    dist = np.sqrt(d2[visible])
    amp = wavelength / (FOUR_PI * dist)
    phase = (TWO_PI / wavelength) * dist
    gains = np.zeros(d2.shape, dtype=np.complex128)
    gains[visible] = amp * np.exp(-1j * phase)
    return gains, visible, dist


def los_channel(geometry: ArrayGeometry, target: SphericalPoint, wavelength: float) -> ChannelVector:
    """Channel coefficients from every element toward one target point."""
    wl = require_positive(wavelength, "wavelength", InvalidWavelength)
    require_clearance(target.r, geometry.radius_m, "target")
    t = target.to_cartesian()
    gains, visible, _ = los_gains(geometry.positions, geometry.normals, t[0], t[1], t[2], wl)
    return ChannelVector(gains=gains, visible=visible, wavelength_m=wl, target=target)


def element_sum(terms) -> np.ndarray:
    """Sum over the first (element) axis, added one element row after
    another into a running total.

    Axis-0 ``np.add.reduce`` or ``np.sum`` would sum pairwise on an
    ``(n, 1)`` block and change bits; this loop keeps every value equal to
    direct summation in element order.
    """
    s = terms[0].copy()
    for t in terms[1:]:
        s += t
    return s


def gain_energy(gains) -> np.ndarray:
    """Sum of squared gain magnitudes over the first (element) axis,
    accumulated in element order."""
    return element_sum(gains.real * gains.real + gains.imag * gains.imag)


def channel_energy(h: ChannelVector) -> float:
    """Sum of squared gain magnitudes of one channel, in element order."""
    return float(gain_energy(h.gains))
