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

from .errors import DegenerateGeometry, InvalidWavelength, require_clearance, require_positive
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
    shape ``targets + (n,)``. Returns ``(gains, visible, dist)``. Because
    both the single-target path and the vectorized sweeps run through this
    one function (and accumulate in element index order), their per-element
    values agree bit for bit.
    """
    tx = np.asarray(tx, dtype=np.float64)[..., np.newaxis]
    ty = np.asarray(ty, dtype=np.float64)[..., np.newaxis]
    tz = np.asarray(tz, dtype=np.float64)[..., np.newaxis]
    dx = tx - positions[:, 0]
    dy = ty - positions[:, 1]
    dz = tz - positions[:, 2]
    d2 = dx * dx + dy * dy + dz * dz
    dist = np.sqrt(d2)
    if np.any(dist == 0.0):
        raise DegenerateGeometry("target coincides with an element position")
    facing = dx * normals[:, 0] + dy * normals[:, 1] + dz * normals[:, 2]
    visible = facing > 0.0
    amp = wavelength / (FOUR_PI * dist)
    phase = (TWO_PI / wavelength) * dist
    gains = np.where(visible, amp * np.exp(-1j * phase), 0j)
    return gains, visible, dist


def los_channel(geometry: ArrayGeometry, target: SphericalPoint, wavelength: float) -> ChannelVector:
    """Channel coefficients from every element toward one target point."""
    wl = require_positive(wavelength, "wavelength", InvalidWavelength)
    require_clearance(target.r, geometry.radius_m, "target")
    t = target.to_cartesian()
    gains, visible, _ = los_gains(geometry.positions, geometry.normals, t[0], t[1], t[2], wl)
    return ChannelVector(gains=gains, visible=visible, wavelength_m=wl, target=target)


def channel_energy(h: ChannelVector) -> float:
    """Sum of squared gain magnitudes, accumulated in element order."""
    g = h.gains
    e = g.real * g.real + g.imag * g.imag
    return float(np.cumsum(e)[-1])
