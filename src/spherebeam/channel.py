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
import threading
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


class Scratch(threading.local):
    """Named arrays that each thread reuses from one gain block to the next.

    A sweep passes one to every gain block it evaluates, so a block's
    temporaries are written into the arrays of the block before instead of
    being allocated and freed again; each thread sees its own arrays. An
    array grows when a wider block asks for it, and a narrower block gets a
    view of its start.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, name, shape, dtype=np.float64) -> np.ndarray:
        """This thread's array called ``name``, viewed as ``shape``."""
        size = math.prod(shape)
        a = self._arrays.get(name)
        if a is None or a.size < size:
            a = self._arrays[name] = np.empty(size, dtype)
        return a[:size].reshape(shape)


def los_gains(positions, normals, tx, ty, tz, wavelength, scratch=None):
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

    Every block-sized temporary comes from ``scratch`` (a fresh ``Scratch``
    when ``None``). The returned gains and mask are its arrays, so the next
    call with the same scratch overwrites them.

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
    if scratch is None:
        scratch = Scratch()
    shape = (positions.shape[0],) + np.broadcast(tx, ty, tz).shape
    column = (positions.shape[0],) + (1,) * (len(shape) - 1)
    px, py, pz = (positions[:, i].reshape(column) for i in range(3))
    nx, ny, nz = (normals[:, i].reshape(column) for i in range(3))
    dx = np.subtract(tx, px, out=scratch.get("dx", shape))
    dy = np.subtract(ty, py, out=scratch.get("dy", shape))
    dz = np.subtract(tz, pz, out=scratch.get("dz", shape))
    d2 = np.multiply(dx, dx, out=scratch.get("d2", shape))
    term = np.multiply(dy, dy, out=scratch.get("term", shape))
    d2 += term
    d2 += np.multiply(dz, dz, out=term)
    coincident = np.equal(d2, 0.0, out=scratch.get("mask", shape, np.bool_))
    if coincident.any():
        raise DegenerateGeometry("target coincides with an element position")
    # arrays are reused once their values are spent: dx takes the facing
    # projection, dy the amplitude, d2 the distance and term the phase, the
    # last three written only where the element faces the target
    facing = np.multiply(dx, nx, out=dx)
    facing += np.multiply(dy, ny, out=dy)
    facing += np.multiply(dz, nz, out=dz)
    visible = np.greater(facing, 0.0, out=coincident)
    dist = np.sqrt(d2, out=d2, where=visible)
    amp = np.multiply(FOUR_PI, dist, out=dy, where=visible)
    np.divide(wavelength, amp, out=amp, where=visible)
    phase = np.multiply(TWO_PI / wavelength, dist, out=term, where=visible)
    gains = scratch.get("gains", shape, np.complex128)
    gains.fill(0.0)
    np.multiply(-1j, phase, out=gains, where=visible)
    np.exp(gains, out=gains, where=visible)
    np.multiply(amp, gains, out=gains, where=visible)
    return gains, visible, dist[visible]


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


def gain_energy(gains, scratch=None) -> np.ndarray:
    """Sum of squared gain magnitudes over the first (element) axis,
    accumulated in element order."""
    if scratch is None:
        scratch = Scratch()
    energy = np.multiply(gains.real, gains.real, out=scratch.get("energy", gains.shape))
    energy += np.multiply(gains.imag, gains.imag, out=scratch.get("energy_term", gains.shape))
    return element_sum(energy)


def channel_energy(h: ChannelVector) -> float:
    """Sum of squared gain magnitudes of one channel, in element order."""
    return float(gain_energy(h.gains))
