"""The run list of ``tools/output_digests.py`` against the shipped presets."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from spherebeam import preset_names
from spherebeam.scenario import SWEEPS

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
