"""The package surface: the names ``spherebeam`` exports and the arrays its
records hand out."""

from __future__ import annotations

import math
import types

import numpy as np
import pytest

import spherebeam
from spherebeam import (
    AngularSweepSpec,
    SphericalPoint,
    angular_sweep,
    conjugate_weights,
    distance_sweep,
    golden_spiral_saa,
    los_channel,
)


def test_all_lists_exactly_the_public_bindings():
    # ``annotations`` is bound by the ``__future__`` import, not exported
    bound = {
        name
        for name, value in vars(spherebeam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    } - {"annotations"}
    assert len(spherebeam.__all__) == len(set(spherebeam.__all__))
    assert set(spherebeam.__all__) - {"__version__"} == bound
    assert all(hasattr(spherebeam, name) for name in spherebeam.__all__)


def test_every_record_array_is_read_only():
    g = golden_spiral_saa(16, 0.3)
    focal = SphericalPoint(10.0, math.pi / 4, math.pi / 4)
    h = los_channel(g, focal, 0.05)
    grid = angular_sweep(g, 0.05, focal, AngularSweepSpec(theta_samples=5, phi_samples=7, eval_range_m=10.0))
    pattern = distance_sweep(g, 0.05, focal, 5.0, 20.0, 9)
    arrays = {
        "positions": g.positions,
        "normals": g.normals,
        "gains": h.gains,
        "visible": h.visible,
        "weights": conjugate_weights(h),
        "theta_axis": grid.theta_axis,
        "phi_axis": grid.phi_axis,
        "power": grid.power,
        "r_axis": pattern.r_axis,
        "range power": pattern.power,
    }
    for name, array in arrays.items():
        assert isinstance(array, np.ndarray), name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
