"""The benchmark's tracer (``perfbench/tracing.py``) against the program.

The tracer looks up every function it names by attribute and rebinds it
in each module of the package. A renamed function, or a call path that
bypasses the module bindings, then breaks the benchmark or hides a layer
from it; these tests make either show up in the test suite.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from spherebeam import cli, fileio, geometry, scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

ANGLE = (
    "kind = spiral_saa\nn = 8\nradius = 0.3\nwavelength = 0.05\n"
    "focal = 10, pi/4, pi/4\nsweep = angle\ntheta_samples = 7\nphi_samples = 9\neval_range = 10\n"
)
DISTANCE = (
    "kind = upa\nn = 4\nspacing = 0.025\nwavelength = 0.05\n"
    "focal = 10, pi/4, pi/4\nsweep = distance\nr_min = 5\nr_max = 20\nr_samples = 16\n"
)

# each kind's geometry lines of a small scenario, in kind table order
KIND_LINES = {
    "upa": "n = 4\nspacing = 0.025\n",
    "spiral_saa": "n = 8\nradius = 0.3\n",
    "ring_saa": "n_rings = 2\nradius = 0.3\n",
    "polyhedral_saa": "subdivision = 0\nradius = 0.3\n",
    "spiral_curve_saa": "n = 8\nturns = 2\nradius = 0.3\n",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"spherebeam.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"spherebeam.{layer}.{name}"


def test_runs_leave_spans_in_every_measured_layer(tmp_path, capsys):
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.label = "op1"
        assert scenario.run_scenario(scenario.parse_scenario(ANGLE), tmp_path / "angle") == 0
        assert scenario.run_scenario(scenario.parse_scenario(DISTANCE), tmp_path / "distance") == 0
        assert cli.main(["metrics", str(tmp_path / "angle" / "beam_00.csv")]) == 0
    finally:
        tracer.label = None
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    for name in (
        "geometry.golden_spiral_saa",
        "geometry.upa",
        "channel.los_gains",
        "metrics.angular_metrics",
        "metrics.focus_metrics",
        "fileio.write_angular_csv",
        "fileio.read_meta",
    ):
        assert name in names, name
    assert tracer.layer_metrics(["op1"])["channel.calls"] >= 1


def test_every_kind_leaves_its_constructor_span():
    table = geometry.kind_table()
    assert list(KIND_LINES) == list(table)
    specs = [
        scenario.parse_scenario(
            f"kind = {kind}\n{lines}wavelength = 0.05\nfocal = 10, pi/4, pi/4\nsweep = distance\n"
        )
        for kind, lines in KIND_LINES.items()
    ]
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        tracer.label = "setup"
        built = [scenario.build_geometry(spec) for spec in specs]
    finally:
        tracer.label = None
        tracer.uninstall()
    spans = [span for span in tracer.spans if span[0].startswith("geometry.")]
    assert [span[0] for span in spans] == [f"geometry.{constructor.__name__}" for constructor, _ in table.values()]
    assert [span[5] for span in spans] == [g.n for g in built]


def test_angle_run_writes_the_overlay_beams_it_calls_through_scenario(tmp_path, monkeypatch):
    # the reread_metrics workload rebinds scenario.multi_focal_overlay to
    # keep the grids a run writes, and reads beams[i] as beam_{i:02d}.csv
    overlays = []
    sweep_overlay = scenario.multi_focal_overlay

    def keep(*args, **kwargs):
        overlays.append(sweep_overlay(*args, **kwargs))
        return overlays[-1]

    monkeypatch.setattr(scenario, "multi_focal_overlay", keep)
    focals = "focal = 10, pi/4, pi/4\nfocal = 10, pi/3, pi/2\nfocal = 10, pi/2, 0\n"
    text = ANGLE.replace("focal = 10, pi/4, pi/4\n", focals)
    assert scenario.run_scenario(scenario.parse_scenario(text), tmp_path / "angle") == 0
    assert len(overlays) == 1
    assert len(overlays[0].beams) == 3
    for i, grid in enumerate(overlays[0].beams):
        fileio.write_angular_csv(tmp_path / "expected.csv", grid)
        written = (tmp_path / "angle" / f"beam_{i:02d}.csv").read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes(), i
