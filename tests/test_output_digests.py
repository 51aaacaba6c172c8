"""The run list of ``tools/output_digests.py`` against the shipped presets and the sweep block budget."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from spherebeam import (
    ArrayKind,
    conjugate_weights,
    golden_spiral_saa,
    los_channel,
    polyhedral_saa,
    preset_names,
    sweep,
)
from spherebeam.fileio import DISTANCE_HEADER, GEOMETRY_HEADER, WRITE_BLOCK_CELLS
from spherebeam.scenario import SWEEPS, parse_focal_text

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_preset_runs_at_one_and_two_threads():
    runs = {args for _, args in _tool().RUNS}
    for name in preset_names():
        for threads in ("1", "2"):
            assert ("run", "--preset", name, "--threads", threads) in runs, (name, threads)


def test_every_sweep_kind_has_a_pattern_run():
    kinds = {args[1] for _, args in _tool().RUNS if args[0] == "pattern"}
    assert set(SWEEPS) <= kinds


def test_every_sweep_kind_has_a_probe_overflow_run():
    runs = dict(_tool().RUNS)
    for kind in SWEEPS:
        assert runs[f"{kind}_probe_overflow"][:2] == ("pattern", kind), kind


def test_every_array_kind_has_a_geometry_run():
    runs = dict(_tool().RUNS)
    for kind in ArrayKind:
        assert runs[f"geometry_{kind.value}"][:3] == ("geometry", "--kind", kind.value), kind


def test_one_run_ends_its_sweep_on_a_one_probe_block():
    # the one-target sum runs inside a sweep only on a block of one probe
    args = dict(_tool().RUNS)["spiral_one_probe_last_block"]
    flags = dict(zip(args[2::2], args[3::2]))
    geometry = golden_spiral_saa(int(flags["--n"]), float(flags["--radius"]))
    h = los_channel(geometry, parse_focal_text(flags["--focal"]), float(flags["--wavelength"]))
    k = int(np.count_nonzero(conjugate_weights(h)))
    cells = int(flags["--theta-samples"]) * int(flags["--phi-samples"])
    assert flags["--threads"] == "1"
    assert cells > sweep.BLOCK_ENTRIES // k
    assert cells % (sweep.BLOCK_ENTRIES // k) == 1


def test_one_geometry_and_one_range_run_write_more_rows_than_one_block():
    # a table block is the rows whose leading columns make at most
    # WRITE_BLOCK_CELLS values; each run passes a whole block of values,
    # whatever the column count, and ends on a partial block
    runs = dict(_tool().RUNS)
    args = runs["geometry_past_one_block"]
    flags = dict(zip(args[1::2], args[2::2]))
    elements = polyhedral_saa(int(flags["--subdivision"]), float(flags["--radius"])).n
    args = runs["distance_past_one_block"]
    samples = int(dict(zip(args[2::2], args[3::2]))["--r-samples"])
    for rows, header in ((elements, GEOMETRY_HEADER), (samples, DISTANCE_HEADER)):
        assert rows > WRITE_BLOCK_CELLS
        assert rows % (WRITE_BLOCK_CELLS // header.count(",")) != 0


def test_every_input_csv_has_a_metrics_run():
    tool = _tool()
    read = {args[1] for _, args in tool.RUNS if args[0] == "metrics"}
    assert {name for name in tool.INPUTS if name.endswith(".csv")} <= read
