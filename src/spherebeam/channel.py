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

    Target components broadcast against the element axis, giving arrays of
    shape ``targets + (n,)``. Returns ``(gains, visible, dist)``: the
    complex gains, the facing mask, and the distances of the visible
    entries only, flattened in row-major order of ``visible``. Because
    both the single-target path and the vectorized sweeps run through this
    one function (and accumulate in element index order), their per-element
    values agree bit for bit.

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
    tx = np.asarray(tx, dtype=np.float64)[..., np.newaxis]
    ty = np.asarray(ty, dtype=np.float64)[..., np.newaxis]
    tz = np.asarray(tz, dtype=np.float64)[..., np.newaxis]
    reach = max(float(np.max(np.abs(t))) for t in (tx, ty, tz))
    bound = 2.0 * (float(np.max(np.abs(positions))) + reach)
    if not (math.isfinite(bound * bound) and math.isfinite(bound * (TWO_PI / float(wavelength)))):
        raise ValidationError(
            f"target distances up to {bound:.3g} m overflow float64 at wavelength {wavelength} m", "target"
        )
    dx = tx - positions[:, 0]
    dy = ty - positions[:, 1]
    dz = tz - positions[:, 2]
    d2 = dx * dx + dy * dy + dz * dz
    if np.any(d2 == 0.0):
        raise DegenerateGeometry("target coincides with an element position")
    facing = dx * normals[:, 0] + dy * normals[:, 1] + dz * normals[:, 2]
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


def gain_energy(gains) -> np.ndarray:
    """Sum of squared gain magnitudes over the last (element) axis,
    accumulated in element order."""
    e = gains.real * gains.real + gains.imag * gains.imag
    return np.cumsum(e, axis=-1)[..., -1]


def channel_energy(h: ChannelVector) -> float:
    """Sum of squared gain magnitudes of one channel, in element order."""
    return float(gain_energy(h.gains))
