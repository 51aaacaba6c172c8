"""Near-field line-of-sight channel coefficients with visibility masking.

An element contributes only when its outward normal faces the target
(strict positive dot product); everything else is exactly zero. For a
planar array with +z normals this reduces to requiring the target to sit
in the forward hemisphere. Visible elements carry the spherical-wave
coefficient (wl / (4*pi*d)) * exp(-i*2*pi*d/wl) at propagation distance d,
with no far-field approximation at any range.

A block of gains is element-major and dense: one row per element, one
column per target, and a hidden entry holds exactly ``+0+0j``. Every sum
over elements lives here: ``gain_energy`` and ``coherent_power`` sum a
block's terms by column with ``column_sums``, which adds each target's
terms in element order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, ValidationError, require_clearance, require_positive
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
    array grows when a larger request asks for it, and a smaller request
    gets a view of its start, so an array that holds a block's facing
    entries only takes the start of a block-sized array.

    A gain block and its sums hold 49 bytes per element x target entry
    here, in three complex arrays at 16 bytes and ``mask`` at 1: the
    returned ``gains``, ``products`` and ``squares``. ``los_gains`` uses the
    halves of ``products`` and ``squares`` as its four float temporaries,
    and ``coherent_power`` and ``gain_energy`` then fill them with their
    products and squares. The gather of the facing distances is allocated
    per call and holds 8 bytes more per facing entry. ``sweep.BLOCK_ENTRIES``
    sizes a block from these figures.
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

    def halves(self, name, shape) -> tuple[np.ndarray, np.ndarray]:
        """The two float64 arrays of ``shape`` that fill this thread's
        complex array called ``name`` of ``shape``, first half and second."""
        size = math.prod(shape)
        floats = self.get(name, shape, np.complex128).reshape(-1).view(np.float64)
        return floats[:size].reshape(shape), floats[size:].reshape(shape)


def column_sums(terms) -> np.ndarray:
    """Sum over elements of an element-major block, one sum per target.

    Axis-0 ``np.add.reduce`` over a C-contiguous ``(k, width)`` block of two
    or more columns adds whole rows, element after element, from ``+0.0``.
    A block of one column it would sum pairwise, so that column goes through
    ``np.cumsum``, which adds one element after another. A hidden entry's
    term is a zero: a zero added to a nonzero sum leaves it as it is, and a
    sum of zeros stays zero, so summing a block with its hidden zeros or
    without them can differ only in the sign of an exact zero, which a
    squared magnitude or a sum of squares cannot show.
    """
    rows = terms.reshape(terms.shape[0], -1)
    sums = np.cumsum(rows[:, 0])[-1:] if rows.shape[1] == 1 else np.add.reduce(rows, axis=0)
    return sums.reshape(terms.shape[1:])


def los_gains(positions, normals, tx, ty, tz, wavelength, scratch=None):
    """Gain kernel shared by the scalar channel and the grid sweeps.

    Element columns broadcast against the target components, giving an
    element-major block of shape ``(n,) + targets``. Returns ``(gains,
    visible, count)``: the C-contiguous complex block of gains, the
    ``visible`` mask of the entries where the element faces the target, and
    the number of those entries. Because both the single-target path and
    the vectorized sweeps run through this one function (and sum in element
    index order), their per-element values agree bit for bit.

    Every entry is checked for coinciding with an element and tested for
    facing. The square root, amplitude and complex exponential then run
    over the facing entries only, as contiguous arrays, and their gains are
    scattered into a block of ``+0+0j``; each value is the same elementwise
    arithmetic as evaluating every entry, so no bit differs, and a hidden
    entry's gain is exactly ``+0+0j``.

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
    # d2 = (dx*dx + dy*dy) + dz*dz and facing = (dx*nx + dy*ny) + dz*nz, in
    # that order, from one coordinate difference at a time; the four float
    # arrays are the halves of the complex arrays the sums fill afterwards
    diff, d2 = scratch.halves("products", shape)
    facing, term = scratch.halves("squares", shape)
    np.subtract(tx, px, out=diff)
    np.multiply(diff, diff, out=d2)
    np.multiply(diff, nx, out=facing)
    for t, p, normal in ((ty, py, ny), (tz, pz, nz)):
        np.subtract(t, p, out=diff)
        d2 += np.multiply(diff, diff, out=term)
        facing += np.multiply(diff, normal, out=term)
    coincident = np.equal(d2, 0.0, out=scratch.get("mask", shape, np.bool_))
    if coincident.any():
        raise DegenerateGeometry("target coincides with an element position")
    visible = np.greater(facing, 0.0, out=coincident)
    dist = d2[visible]
    np.sqrt(dist, out=dist)
    count = dist.size
    # the amplitude, phase and rotation go into arrays that are spent by now
    amp = np.multiply(FOUR_PI, dist, out=term.reshape(-1)[:count])
    np.divide(wavelength, amp, out=amp)
    phase = np.multiply(TWO_PI / wavelength, dist, out=facing.reshape(-1)[:count])
    gains = scratch.get("gains", shape, np.complex128)
    rotation = np.multiply(-1j, phase, out=gains.reshape(-1)[:count])
    np.exp(rotation, out=rotation)
    # a complex product written over one of its operands can differ from
    # the fresh product in the last bit, so it gets its own array
    values = np.multiply(amp, rotation, out=scratch.get("products", (count,), np.complex128))
    gains.fill(0.0)
    gains[visible] = values
    return gains, visible, count


def los_channel(geometry: ArrayGeometry, target: SphericalPoint, wavelength: float) -> ChannelVector:
    """Channel coefficients from every element toward one target point."""
    wl = require_positive(wavelength, "wavelength")
    require_clearance(target.r, geometry.radius_m, "target")
    t = target.to_cartesian()
    gains, visible, _ = los_gains(geometry.positions, geometry.normals, t[0], t[1], t[2], wl)
    return ChannelVector(gains=gains, visible=visible, wavelength_m=wl, target=target)


def gain_energy(gains, scratch=None) -> np.ndarray:
    """Sum of squared gain magnitudes of each target, over the elements in
    element order. ``gains`` is an element-major block as ``los_gains``
    returns it; the squares go into ``scratch`` (a fresh ``Scratch`` when
    ``None``)."""
    if scratch is None:
        scratch = Scratch()
    energy, term = scratch.halves("squares", gains.shape)
    np.multiply(gains.real, gains.real, out=energy)
    energy += np.multiply(gains.imag, gains.imag, out=term)
    return column_sums(energy)


def coherent_power(weights: np.ndarray, gains: np.ndarray, scratch=None) -> np.ndarray:
    """|sum_k w_k g_k|^2 of each target, summed over the elements in element
    order. ``gains`` is an element-major block as ``los_gains`` returns it;
    the products go into ``scratch`` (a fresh ``Scratch`` when ``None``)."""
    if scratch is None:
        scratch = Scratch()
    column = weights.reshape(weights.shape + (1,) * (gains.ndim - 1))
    products = np.multiply(column, gains, out=scratch.get("products", gains.shape, np.complex128))
    sums = column_sums(products)
    return sums.real * sums.real + sums.imag * sums.imag


def channel_energy(h: ChannelVector) -> float:
    """Sum of squared gain magnitudes of one channel, in element order."""
    return float(gain_energy(h.gains))
