"""Generated-input properties of the blocked, threaded sweeps.

The block budget is patched down to a few probes' worth of entries so
that tiny grids cross block edges and split over threads. Settings are
fixed (derandomized, bounded example counts, no deadline, no database) so
the suite stays deterministic and fast.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from spherebeam import (
    AngularSweepSpec,
    SphericalPoint,
    beam_response,
    conjugate_weights,
    distance_sweep,
    golden_spiral_saa,
    los_channel,
    multi_focal_overlay,
    upa,
)
from spherebeam import sweep

FIXED = settings(derandomize=True, max_examples=40, deadline=None, database=None)

blocks = st.integers(1, 7)
threads = st.sampled_from([1, 2, 3])
arrays = st.one_of(
    st.integers(4, 30).map(lambda n: golden_spiral_saa(n, 0.5)),
    st.integers(2, 5).map(lambda side: upa(side * side, 0.005)),
)
focals = st.builds(
    SphericalPoint,
    st.floats(20.0, 60.0),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)


@FIXED
@given(
    geometry=arrays,
    focal_list=st.lists(focals, min_size=1, max_size=3),
    theta_samples=st.integers(2, 6),
    phi_samples=st.integers(2, 6),
    normalization=st.sampled_from(["grid_max", "focal"]),
    block=blocks,
    workers=threads,
)
def test_overlay_beams_equal_per_cell_direct_summation(
    geometry, focal_list, theta_samples, phi_samples, normalization, block, workers
):
    spec = AngularSweepSpec(theta_samples=theta_samples, phi_samples=phi_samples, eval_range_m=30.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "BLOCK_ENTRIES", block * geometry.n)
        try:
            overlay = multi_focal_overlay(
                geometry, 0.01, focal_list, spec, normalization=normalization, threads=workers
            )
        except sweep.AllBeamsInfeasible:
            return
    assert len(overlay.beams) + len(overlay.skipped) == len(focal_list)
    for beam in overlay.beams:
        h = los_channel(geometry, beam.focal, 0.01)
        w = conjugate_weights(h)
        raw = np.empty((theta_samples, phi_samples))
        for i, th in enumerate(beam.theta_axis):
            for j, ph in enumerate(beam.phi_axis):
                probe = SphericalPoint(30.0, float(th), float(ph))
                raw[i, j] = beam_response(w, los_channel(geometry, probe, 0.01))
        reference = beam_response(w, h) if normalization == "focal" else raw.max()
        assert_array_equal(beam.power, raw / reference)


@FIXED
@given(
    n=st.integers(8, 40),
    focal=focals,
    samples=st.integers(2, 40),
    block=blocks,
)
def test_distance_sweep_bits_do_not_depend_on_threads(n, focal, samples, block):
    # eight or more spiral elements leave no direction unseen
    geometry = golden_spiral_saa(n, 0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "BLOCK_ENTRIES", block * geometry.n)
        runs = [distance_sweep(geometry, 0.01, focal, 10.0, 80.0, samples, threads=t) for t in (1, 2, 3)]
    for other in runs[1:]:
        assert_array_equal(other.power, runs[0].power)
