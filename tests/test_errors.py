"""Input rules: one checker per rule, so every entry point raises the same error.

A bad value reaches the package three ways: as scenario text, as
``pattern`` flag pairs (``scenario_from_pairs`` with no line numbers), and
as an argument to a library function. Each way must raise the same
``ValidationError`` subclass naming the same input.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from spherebeam import (
    AngularPatternGrid,
    AngularSweepSpec,
    DimensionMismatch,
    DistancePattern,
    InvalidCount,
    InvalidRadius,
    InvalidSpacing,
    InvalidWavelength,
    SpherebeamError,
    SphericalPoint,
    ValidationError,
    angular_metrics,
    angular_sweep,
    distance_sweep,
    golden_spiral_saa,
    isotropy_report,
    los_channel,
    multi_focal_overlay,
    normalize_pattern,
    parse_scenario,
    polyhedral_saa,
    upa,
)
from spherebeam.scenario import scenario_from_pairs

FOCAL = SphericalPoint(10.0, math.pi / 4, math.pi / 4)
SPIRAL = {"kind": "spiral_saa", "n": "16", "radius": "0.3"}
ANGLE = {"sweep": "angle", "theta_samples": "7", "phi_samples": "9", "eval_range": "10"}
DISTANCE = {"sweep": "distance", "r_min": "5", "r_max": "20", "r_samples": "16"}
SPEC = AngularSweepSpec(theta_samples=7, phi_samples=9, eval_range_m=10.0)


def _fields(geometry=SPIRAL, sweep=ANGLE, **bad):
    return {**geometry, "wavelength": "0.05", "focal": "10, pi/4, pi/4", **sweep, **bad}


# (scenario fields, library call, error class, field name in the library)
CASES = {
    "radius": (_fields(radius="-1"), lambda: golden_spiral_saa(16, -1.0), InvalidRadius, "radius"),
    "spacing": (
        _fields({"kind": "upa", "n": "16", "spacing": "0"}),
        lambda: upa(16, 0.0),
        InvalidSpacing,
        "spacing",
    ),
    "wavelength": (
        _fields(wavelength="-0.05"),
        lambda: los_channel(golden_spiral_saa(16, 0.3), FOCAL, -0.05),
        InvalidWavelength,
        "wavelength",
    ),
    "n": (_fields(n="0"), lambda: golden_spiral_saa(0, 0.3), InvalidCount, "n"),
    "subdivision": (
        _fields({"kind": "polyhedral_saa", "subdivision": "-1", "radius": "0.3"}),
        lambda: polyhedral_saa(-1, 0.3),
        InvalidCount,
        "subdivision",
    ),
    "theta_samples": (
        _fields(theta_samples="1"), lambda: AngularSweepSpec(theta_samples=1), InvalidCount, "theta_samples"
    ),
    "r_samples": (
        _fields(sweep=DISTANCE, r_samples="1"),
        lambda: distance_sweep(golden_spiral_saa(16, 0.3), 0.05, FOCAL, 5.0, 20.0, 1),
        InvalidCount,
        "samples",
    ),
    "normalization": (
        _fields(normalization="loudest"),
        lambda: angular_sweep(golden_spiral_saa(16, 0.3), 0.05, FOCAL, SPEC, normalization="loudest"),
        ValidationError,
        "normalization",
    ),
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_same_rule_same_error_on_every_path(key):
    fields, library, error, library_field = CASES[key]
    text = "".join(f"{k} = {v}\n" for k, v in fields.items())
    raised = []
    for attempt in (
        lambda: parse_scenario(text),
        lambda: scenario_from_pairs([(None, k, v) for k, v in fields.items()]),
        library,
    ):
        with pytest.raises(ValidationError) as err:
            attempt()
        raised.append((type(err.value), err.value.field))
    assert raised == [(error, key), (error, key), (error, library_field)]


GRID_WITHOUT_FOCAL = AngularPatternGrid(
    theta_axis=np.linspace(0.0, math.pi, 3),
    phi_axis=np.linspace(0.0, 2.0 * math.pi, 3),
    power=np.eye(3),
    focal=None,
    eval_range_m=10.0,
)

LIBRARY_INPUT_ERRORS = {
    "theta_out_of_range": lambda: SphericalPoint(10.0, 4.0, 0.0),
    "phi_out_of_range": lambda: SphericalPoint(10.0, 1.0, 7.0),
    "origin_to_spherical": lambda: SphericalPoint.from_cartesian((0.0, 0.0, 0.0)),
    "theta_range": lambda: AngularSweepSpec(theta_range=(1.0, 0.5)),
    "phi_range": lambda: AngularSweepSpec(phi_range=(-0.1, 1.0)),
    "no_focal_points": lambda: multi_focal_overlay(golden_spiral_saa(16, 0.3), 0.05, [], SPEC),
    "empty_pattern": lambda: normalize_pattern(np.array([])),
    "negative_pattern": lambda: normalize_pattern(np.array([-1.0, 1.0])),
    "zero_reference": lambda: normalize_pattern(np.ones(2), reference=0.0),
    "metrics_without_focal": lambda: angular_metrics(GRID_WITHOUT_FOCAL),
    "isotropy_of_no_beams": lambda: isotropy_report([]),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_INPUT_ERRORS))
def test_library_input_errors_are_typed(case):
    with pytest.raises(SpherebeamError) as err:
        LIBRARY_INPUT_ERRORS[case]()
    assert isinstance(err.value, ValidationError)
    assert isinstance(err.value, ValueError)
    assert err.value.field


# power whose shape disagrees with its axes: the writer would pair each
# value with the wrong (theta, phi) or range
MISSHAPEN_PATTERNS = {
    "angular_transposed": lambda: AngularPatternGrid(
        theta_axis=np.linspace(0.0, 3.14, 3),
        phi_axis=np.linspace(0.0, 6.28, 2),
        power=np.arange(6.0).reshape(2, 3) / 5,
        focal=FOCAL,
        eval_range_m=10.0,
    ),
    "angular_flat": lambda: AngularPatternGrid(
        theta_axis=np.linspace(0.0, 3.14, 3),
        phi_axis=np.linspace(0.0, 6.28, 2),
        power=np.arange(6.0) / 5,
        focal=FOCAL,
        eval_range_m=10.0,
    ),
    "distance_short": lambda: DistancePattern(
        r_axis=np.linspace(5.0, 20.0, 4), power=np.ones(3), direction=(1.0, 1.0), focal_range_m=10.0
    ),
    "distance_column": lambda: DistancePattern(
        r_axis=np.linspace(5.0, 20.0, 4), power=np.ones((4, 1)), direction=(1.0, 1.0), focal_range_m=10.0
    ),
}


@pytest.mark.parametrize("case", sorted(MISSHAPEN_PATTERNS))
def test_pattern_power_must_match_its_axes(case):
    with pytest.raises(DimensionMismatch, match="power has shape"):
        MISSHAPEN_PATTERNS[case]()


# an empty axis with a power of its shape: the writers would fail untyped
# or write a file that the readers refuse
EMPTY_PATTERNS = {
    "angular_no_theta": lambda: AngularPatternGrid(
        theta_axis=np.array([]), phi_axis=np.array([0.0, 1.0]), power=np.zeros((0, 2)), focal=FOCAL, eval_range_m=10.0
    ),
    "angular_no_phi": lambda: AngularPatternGrid(
        theta_axis=np.array([0.0, 1.0]), phi_axis=np.array([]), power=np.zeros((2, 0)), focal=FOCAL, eval_range_m=10.0
    ),
    "distance_no_range": lambda: DistancePattern(
        r_axis=np.array([]), power=np.array([]), direction=(1.0, 1.0), focal_range_m=10.0
    ),
}


@pytest.mark.parametrize("case", sorted(EMPTY_PATTERNS))
def test_pattern_axes_must_not_be_empty(case):
    with pytest.raises(DimensionMismatch, match="no samples") as err:
        EMPTY_PATTERNS[case]()
    assert isinstance(err.value, SpherebeamError)
