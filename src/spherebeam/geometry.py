"""Array element layouts on spheres and planes, plus rigid rotations.

All constructors return immutable :class:`ArrayGeometry` values whose
``positions`` and ``normals`` are read-only ``(n, 3)`` float64 arrays in
element order. The same inputs always produce bitwise identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidRotation, ValidationError, require_count, require_positive, require_square

TWO_PI = 2.0 * math.pi

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
"""Azimuth increment of the Fibonacci lattice, pi*(3 - sqrt(5)) radians."""


class ArrayKind(str, Enum):
    """Supported element layout families."""

    UPA = "upa"
    SPIRAL = "spiral_saa"
    RING = "ring_saa"
    POLYHEDRAL = "polyhedral_saa"
    SPIRAL_CURVE = "spiral_curve_saa"


def sph_to_cart(r, theta, phi):
    """Cartesian components for spherical coordinates.

    Broadcasts over array inputs. Every caller in the package goes through
    this single implementation so that scalar and grid evaluations of the
    same coordinates agree bit for bit.
    """
    rs = r * np.sin(theta)
    return rs * np.cos(phi), rs * np.sin(phi), r * np.cos(theta)


@dataclass(frozen=True)
class SphericalPoint:
    """A point with range in meters, polar angle from +z, and azimuth."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "r", require_positive(self.r, "r"))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        if not 0.0 <= self.theta <= math.pi:
            raise ValidationError(f"theta must lie in [0, pi], got {self.theta!r}", "theta")
        if not 0.0 <= self.phi <= TWO_PI:
            raise ValidationError(f"phi must lie in [0, 2*pi], got {self.phi!r}", "phi")

    def to_cartesian(self) -> np.ndarray:
        x, y, z = sph_to_cart(self.r, self.theta, self.phi)
        return np.array([x, y, z])

    @classmethod
    def from_cartesian(cls, xyz) -> SphericalPoint:
        x, y, z = (float(v) for v in xyz)
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            raise ValidationError("the origin has no spherical representation", "xyz")
        theta = math.acos(min(1.0, max(-1.0, z / r)))
        phi = math.atan2(y, x)
        if phi < 0.0:
            phi += TWO_PI
        return cls(r, theta, phi)


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """An ordered set of elements with layout metadata.

    ``radius_m`` is set for the spherical kinds, ``spacing_m`` for the
    planar lattice. The arrays are frozen after construction.
    """

    kind: ArrayKind
    positions: np.ndarray
    normals: np.ndarray
    radius_m: float | None = None
    spacing_m: float | None = None

    def __post_init__(self):
        self.positions.setflags(write=False)
        self.normals.setflags(write=False)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def golden_spiral_saa(n: int, radius: float) -> ArrayGeometry:
    """Fibonacci-lattice layout covering the sphere near-uniformly.

    Element k sits at height z_k = (n - 2k - 1)/n (the midpoint rule, so no
    element lands on a pole) and azimuth k times the golden angle. The
    height formula is written so that z_k == -z_{n-1-k} exactly.
    """
    n = require_count(n, "n")
    radius = require_positive(radius, "radius")
    k = np.arange(n, dtype=np.float64)
    nf = float(n)
    z = (nf - 2.0 * k - 1.0) / nf
    rho = np.sqrt(1.0 - z * z)
    phi = np.mod(k * GOLDEN_ANGLE, TWO_PI)
    normals = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
    positions = radius * normals
    return ArrayGeometry(ArrayKind.SPIRAL, positions, normals, radius_m=radius)


def upa(n: int, spacing: float) -> ArrayGeometry:
    """Square planar lattice in the z=0 plane, centered on the origin.

    Elements are ordered row-major over the sqrt(n) x sqrt(n) grid and all
    normals point along +z.
    """
    n = require_count(n, "n")
    m = require_square(n, "n")
    s = require_positive(spacing, "spacing")
    coords = (np.arange(m, dtype=np.float64) - (m - 1) / 2.0) * s
    gx, gy = np.meshgrid(coords, coords, indexing="ij")
    positions = np.stack([gx.ravel(), gy.ravel(), np.zeros(n)], axis=1)
    normals = np.zeros((n, 3))
    normals[:, 2] = 1.0
    return ArrayGeometry(ArrayKind.UPA, positions, normals, spacing_m=s)


def ring_saa(n_rings: int, per_ring_policy, radius: float) -> ArrayGeometry:
    """Parallel circular rings at equally spaced polar angles.

    Ring i sits at theta = (i + 1/2)*pi/n_rings; within a ring, elements
    are equally spaced in azimuth starting at phi = 0. ``per_ring_policy``
    is either the string ``"proportional"`` (count scales with the ring
    circumference, at least one element) or an integer fixed count.
    """
    n_rings = require_count(n_rings, "n_rings")
    radius = require_positive(radius, "radius")
    rings = []
    for i in range(n_rings):
        theta = ((i + 0.5) * math.pi) / n_rings
        if per_ring_policy == "proportional":
            count = max(1, round((2 * n_rings) * math.sin(theta)))
        else:
            count = require_count(per_ring_policy, "ring_policy")
        phis = (TWO_PI * np.arange(count, dtype=np.float64)) / count
        ux, uy, uz = np.broadcast_arrays(*sph_to_cart(1.0, theta, phis))
        rings.append(np.stack([ux, uy, uz], axis=1))
    normals = np.concatenate(rings, axis=0)
    positions = radius * normals
    return ArrayGeometry(ArrayKind.RING, positions, normals, radius_m=radius)


def _unit(v: np.ndarray) -> np.ndarray:
    norm = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return v / norm


def polyhedral_saa(subdivision: int, radius: float) -> ArrayGeometry:
    """Icosahedron vertices refined by edge-midpoint subdivision.

    Each round splits every face into four, projecting the new midpoint
    vertices onto the sphere. Shared vertices are deduplicated through a
    canonical edge key, never by coordinate tolerance, so the element
    count is exactly 10*4**subdivision + 2. Ordering is construction
    order: the 12 base vertices first, then midpoints as created.
    """
    s = require_count(subdivision, "subdivision")
    radius = require_positive(radius, "radius")
    t = (1.0 + math.sqrt(5.0)) / 2.0
    base = [
        (-1.0, t, 0.0), (1.0, t, 0.0), (-1.0, -t, 0.0), (1.0, -t, 0.0),
        (0.0, -1.0, t), (0.0, 1.0, t), (0.0, -1.0, -t), (0.0, 1.0, -t),
        (t, 0.0, -1.0), (t, 0.0, 1.0), (-t, 0.0, -1.0), (-t, 0.0, 1.0),
    ]
    units = [_unit(np.array(v)) for v in base]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(s):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            idx = cache.get(key)
            if idx is None:
                units.append(_unit(units[a] + units[b]))
                idx = len(units) - 1
                cache[key] = idx
            return idx

        refined = []
        for a, b, c in faces:
            ab = midpoint(a, b)
            bc = midpoint(b, c)
            ca = midpoint(c, a)
            refined.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        faces = refined
    normals = np.array(units)
    positions = radius * normals
    return ArrayGeometry(ArrayKind.POLYHEDRAL, positions, normals, radius_m=radius)


def spiral_curve_saa(n: int, turns: float, radius: float) -> ArrayGeometry:
    """Elements along one continuous pole-to-pole spiral curve.

    The curve parameter runs through midpoints t_k = (k + 1/2)/n; the polar
    angle is linear in t and the azimuth advances by ``turns`` full
    revolutions over the whole curve.
    """
    n = require_count(n, "n")
    tr = require_positive(turns, "turns")
    radius = require_positive(radius, "radius")
    t = (np.arange(n, dtype=np.float64) + 0.5) / float(n)
    theta = math.pi * t
    phi = np.mod((TWO_PI * tr) * t, TWO_PI)
    ux, uy, uz = sph_to_cart(1.0, theta, phi)
    normals = np.stack([ux, uy, uz], axis=1)
    positions = radius * normals
    return ArrayGeometry(ArrayKind.SPIRAL_CURVE, positions, normals, radius_m=radius)


def kind_table() -> dict[str, tuple]:
    """Each kind value's constructor and its argument names, in order.

    Built per call, so that a rebinding of a constructor's name in this
    module applies.
    """
    return {
        ArrayKind.UPA.value: (upa, ("n", "spacing")),
        ArrayKind.SPIRAL.value: (golden_spiral_saa, ("n", "radius")),
        ArrayKind.RING.value: (ring_saa, ("n_rings", "ring_policy", "radius")),
        ArrayKind.POLYHEDRAL.value: (polyhedral_saa, ("subdivision", "radius")),
        ArrayKind.SPIRAL_CURVE.value: (spiral_curve_saa, ("n", "turns", "radius")),
    }


def _checked_rotation(rotation) -> np.ndarray:
    R = np.asarray(rotation, dtype=np.float64)
    if R.shape != (3, 3):
        raise InvalidRotation(f"rotation must be a 3x3 matrix, got shape {R.shape}")
    residual = float(np.max(np.abs(R.T @ R - np.eye(3))))
    if not residual <= 1e-10:
        raise InvalidRotation(f"matrix is not orthogonal (max residual {residual:.3e})")
    det = float(np.linalg.det(R))
    if not abs(det - 1.0) <= 1e-10:
        raise InvalidRotation(f"matrix must be a proper rotation with det +1, got det {det!r}")
    return R


def _apply_rotation(R: np.ndarray, rows: np.ndarray) -> np.ndarray:
    x, y, z = rows[:, 0], rows[:, 1], rows[:, 2]
    return np.stack(
        [
            R[0, 0] * x + R[0, 1] * y + R[0, 2] * z,
            R[1, 0] * x + R[1, 1] * y + R[1, 2] * z,
            R[2, 0] * x + R[2, 1] * y + R[2, 2] * z,
        ],
        axis=1,
    )


def rotate(geometry: ArrayGeometry, rotation) -> ArrayGeometry:
    """Rigidly rotate every position and normal; metadata is preserved."""
    R = _checked_rotation(rotation)
    return ArrayGeometry(
        geometry.kind,
        _apply_rotation(R, geometry.positions),
        _apply_rotation(R, geometry.normals),
        radius_m=geometry.radius_m,
        spacing_m=geometry.spacing_m,
    )


def rotate_point(point: SphericalPoint, rotation) -> SphericalPoint:
    """Rotate a spherical point, keeping its range exactly."""
    R = _checked_rotation(rotation)
    v = _apply_rotation(R, point.to_cartesian()[np.newaxis, :])[0]
    q = SphericalPoint.from_cartesian(v)
    return SphericalPoint(point.r, q.theta, q.phi)
