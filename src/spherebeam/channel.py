"""Near-field line-of-sight channel coefficients with visibility masking.

An element contributes only when its outward normal faces the target
(strict positive dot product); everything else is exactly zero. For a
planar array with +z normals this reduces to requiring the target to sit
in the forward hemisphere. Visible elements carry the spherical-wave
coefficient (wl / (4*pi*d)) * exp(-i*2*pi*d/wl) at propagation distance d,
with no far-field approximation at any range.

A block of gains keeps its facing entries only, element by element, each
with one target column. Every sum over elements lives here: ``gain_energy``
and ``coherent_power`` sum a block's facing terms by column with
``column_sums`` (one ``np.bincount``), the coherent sum once over the real
and once over the imaginary parts, and each adds a target's terms in
element order.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

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
    gets a view of its start. Arrays that hold a block's facing entries only
    are asked for at the size of the whole block and then cut to the facing
    count, so they grow with the block, not with each block's count.

    A gain block and its sums hold 65 bytes per element x target entry
    here: ``diff``, ``d2``, ``facing`` and ``term`` at 8 bytes, ``mask``
    at 1, and the complex ``gains`` and ``products`` at 16 each; a range
    sweep adds ``energy`` and ``energy_term`` at 8 each. The gathers of the
    facing entries are allocated per call and hold at most 24 bytes more
    per facing entry at a time. ``sweep.BLOCK_ENTRIES`` sizes a block from
    these figures.
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


class Entries(NamedTuple):
    """Where the facing entries of an element-major block lie.

    The entries run in row-major order of the block's ``(n,) + targets``
    mask: element by element, targets within each. ``counts`` holds each
    element's number of entries and ``columns`` each entry's flat target
    index, the bin it is summed into.
    """

    counts: np.ndarray
    columns: np.ndarray
    targets: tuple

    @property
    def width(self) -> int:
        """Targets per element, which is the number of sums."""
        return math.prod(self.targets)

    @property
    def block(self) -> int:
        """Entries in the whole block, facing or not."""
        return self.counts.size * self.width


def visible_entries(visible) -> Entries:
    """The ``Entries`` of the true entries of an element-major mask."""
    rows = visible.reshape(visible.shape[0], -1)
    columns = np.broadcast_to(np.arange(rows.shape[1]), rows.shape)[rows]
    return Entries(np.count_nonzero(rows, axis=1), columns, visible.shape[1:])


def column_sums(terms, columns, width) -> np.ndarray:
    """Sum of the float64 ``terms`` that fall in each of ``width`` columns.

    ``np.bincount`` adds ``terms[i]`` into bin ``columns[i]`` in input
    order, starting from ``+0.0``, so over ``Entries`` each target adds its
    facing terms in element order. Direct summation over every element adds
    the hidden terms too, and those are zeros: a zero added to a nonzero sum
    leaves it as it is, and a sum of zeros stays zero. The two totals can
    therefore differ only in the sign of an exact zero, which a squared
    magnitude or a sum of squares cannot show. Axis-0 ``np.add.reduce``
    would sum an ``(n, 1)`` block pairwise and change bits.
    """
    return np.bincount(columns, weights=terms, minlength=width)


def los_gains(positions, normals, tx, ty, tz, wavelength, scratch=None):
    """Gain kernel shared by the scalar channel and the grid sweeps.

    Element columns broadcast against the target components, giving an
    element-major block of shape ``(n,) + targets``. Returns ``(gains,
    visible, entries)``: the complex gains of the entries where the element
    faces the target, in row-major order of the ``visible`` mask (element by
    element, targets within each), the mask itself, and their ``Entries``.
    Because both the single-target path and the vectorized sweeps run
    through this one function (and sum in element index order), their
    per-element values agree bit for bit.

    Every entry is checked for coinciding with an element and tested for
    facing. The square root, amplitude and complex exponential then run
    over the facing entries only, as contiguous arrays; each value is the
    same elementwise arithmetic as evaluating every entry, so no bit
    differs. A hidden entry's gain is exactly ``+0+0j`` and is not stored.

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
    # that order, from one coordinate difference at a time
    diff = np.subtract(tx, px, out=scratch.get("diff", shape))
    d2 = np.multiply(diff, diff, out=scratch.get("d2", shape))
    facing = np.multiply(diff, nx, out=scratch.get("facing", shape))
    term = scratch.get("term", shape)
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
    # the amplitude and phase go into arrays the facing test left spent
    amp = np.multiply(FOUR_PI, dist, out=term.reshape(-1)[:count])
    np.divide(wavelength, amp, out=amp)
    phase = np.multiply(TWO_PI / wavelength, dist, out=facing.reshape(-1)[:count])
    # the rotation is spent once the gains are formed, so it takes the array
    # that coherent_power (below) fills with its products afterwards
    block = d2.size
    rotation = np.multiply(-1j, phase, out=scratch.get("products", (block,), np.complex128)[:count])
    np.exp(rotation, out=rotation)
    # a complex product written over one of its operands can differ from
    # the fresh product in the last bit, so it gets its own array
    gains = np.multiply(amp, rotation, out=scratch.get("gains", (block,), np.complex128)[:count])
    return gains, visible, visible_entries(visible)


def los_channel(geometry: ArrayGeometry, target: SphericalPoint, wavelength: float) -> ChannelVector:
    """Channel coefficients from every element toward one target point."""
    wl = require_positive(wavelength, "wavelength")
    require_clearance(target.r, geometry.radius_m, "target")
    t = target.to_cartesian()
    values, visible, _ = los_gains(geometry.positions, geometry.normals, t[0], t[1], t[2], wl)
    gains = np.zeros(geometry.n, np.complex128)
    gains[visible] = values
    return ChannelVector(gains=gains, visible=visible, wavelength_m=wl, target=target)


def visible_gains(h: ChannelVector):
    """The facing gains of one channel and their ``Entries``, as
    ``los_gains`` gives them for a single target."""
    return h.gains[h.visible], visible_entries(h.visible)


def gain_energy(gains, entries: Entries, scratch=None) -> np.ndarray:
    """Sum of squared gain magnitudes of each target, over its visible
    entries in element order."""
    if scratch is None:
        scratch = Scratch()
    count = gains.size
    energy = np.multiply(gains.real, gains.real, out=scratch.get("energy", (entries.block,))[:count])
    energy += np.multiply(gains.imag, gains.imag, out=scratch.get("energy_term", (entries.block,))[:count])
    return column_sums(energy, entries.columns, entries.width).reshape(entries.targets)


def coherent_power(weights: np.ndarray, gains: np.ndarray, entries: Entries, scratch=None) -> np.ndarray:
    """|sum_k w_k g_k|^2 of each target, summed over its visible entries in
    element order. ``gains`` and ``entries`` are as ``los_gains`` returns
    them; the products go into ``scratch`` (a fresh ``Scratch`` when
    ``None``). The real and the imaginary parts of the products are summed
    apart, each in element order, as a complex sum adds them."""
    if scratch is None:
        scratch = Scratch()
    products = np.multiply(
        np.repeat(weights, entries.counts), gains,
        out=scratch.get("products", (entries.block,), np.complex128)[: gains.size],
    )
    re = column_sums(products.real, entries.columns, entries.width)
    im = column_sums(products.imag, entries.columns, entries.width)
    return (re * re + im * im).reshape(entries.targets)


def channel_energy(h: ChannelVector) -> float:
    """Sum of squared gain magnitudes of one channel, in element order."""
    return float(gain_energy(*visible_gains(h)))
