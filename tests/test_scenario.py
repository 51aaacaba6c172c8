from __future__ import annotations

import argparse
import inspect
import math

import numpy as np
import pytest

from spherebeam import (
    AngularSweepSpec,
    ParseError,
    SpherebeamError,
    SphericalPoint,
    ValidationError,
    build_geometry,
    distance_sweep,
    emit_scenario,
    geometry_from_fields,
    load_preset,
    parse_focal_text,
    parse_scenario,
    preset_names,
    run_scenario,
)
from spherebeam import sweep
from spherebeam.cli import _add_beam_flags, _add_geometry_flags, _build_parser
from spherebeam.fileio import read_angular_csv, read_meta
from spherebeam.geometry import ArrayKind, kind_table
from spherebeam.scenario import GEOMETRY_KEYS, KEYS, SWEEPS, parse_field

MINIMAL_ANGLE = """
kind = spiral_saa
n = 16
radius = 0.3
wavelength = 0.05
focal = 10, pi/4, pi/4
sweep = angle
theta_samples = 19
phi_samples = 19
eval_range = 10
"""

MINIMAL_DISTANCE = """
kind = spiral_saa
n = 16
radius = 0.3
wavelength = 0.05
focal = 10, pi/4, pi/4
sweep = distance
r_min = 2
r_max = 40
r_samples = 50
"""

# a planar array cannot see the second focal point, which lies behind it
UPA_REAR = (
    "kind = upa\nn = 16\nspacing = 0.025\nwavelength = 0.05\n"
    "focal = 10, pi/4, pi/4\nfocal = 10, 3pi/4, pi/4\nfocal = 10, pi/3, 1\n"
)


class TestFocalText:
    def test_pi_literals(self):
        p = parse_focal_text("30, pi/6, 5pi/6")
        assert p == SphericalPoint(30.0, math.pi / 6.0, 5.0 * math.pi / 6.0)
        assert parse_focal_text("30, 0, pi").theta == 0.0
        assert parse_focal_text("30, 0.5pi, 2pi/3") == SphericalPoint(30.0, 0.5 * math.pi, 2.0 * math.pi / 3.0)

    def test_plain_numbers_still_work(self):
        assert parse_focal_text("12.5, 1.0471975511965976, 2.0") == SphericalPoint(
            12.5, 1.0471975511965976, 2.0
        )

    def test_arity_and_token_errors(self):
        with pytest.raises(ParseError):
            parse_focal_text("30, 1.0")
        with pytest.raises(ParseError):
            parse_focal_text("30, 1.0, 2.0, 3.0")
        with pytest.raises(ParseError):
            parse_focal_text("30, pi/banana, 1.0")
        with pytest.raises(ParseError):
            parse_focal_text("10, pi/0, 1")
        with pytest.raises(ParseError):
            parse_focal_text("thirty, 1.0, 1.0")


class TestParseScenario:
    def test_preset_fig4_saa_fields(self):
        s = load_preset("fig4_saa")
        assert s.kind == "spiral_saa"
        assert s.n == 100
        assert s.radius == 0.5
        assert s.wavelength == 0.01
        assert s.sweep == "angle"
        assert s.theta_samples == 181
        assert s.phi_samples == 181
        assert s.eval_range == 30.0
        assert s.normalization == "grid_max"
        assert len(s.focals) == 8
        assert s.focals[0] == SphericalPoint(30.0, math.pi / 6.0, math.pi / 6.0)
        assert s.focals[6] == SphericalPoint(30.0, 0.0, math.pi / 3.0)
        assert s.focals[7] == SphericalPoint(30.0, math.pi, math.pi / 3.0)

    def test_preset_inventory(self):
        assert preset_names() == ("fig4_saa", "fig4_upa", "fig5_r05", "fig5_r1", "fig5_r2")

    def test_unknown_preset_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="fig4_saa"):
            load_preset("fig9_nope")

    def test_angle_defaults_materialize(self):
        s = parse_scenario(
            "kind = spiral_saa\nn = 16\nradius = 0.3\nwavelength = 0.05\n"
            "focal = 10, pi/4, pi/4\nsweep = angle\n"
        )
        assert (s.theta_samples, s.phi_samples, s.eval_range) == (181, 181, 30.0)
        assert (s.r_min, s.r_max, s.r_samples) == (None, None, None)
        assert s.normalization == "grid_max"
        assert s.out is None

    def test_distance_defaults_materialize(self):
        s = parse_scenario(
            "kind = spiral_saa\nn = 16\nradius = 0.3\nwavelength = 0.05\n"
            "focal = 10, pi/4, pi/4\nsweep = distance\n"
        )
        assert (s.r_min, s.r_max, s.r_samples) == (5.0, 100.0, 960)
        assert (s.theta_samples, s.phi_samples, s.eval_range) == (None, None, None)

    def test_comments_and_blank_lines_ignored(self):
        s = parse_scenario("# leading comment\n\n" + MINIMAL_ANGLE)
        assert s.n == 16

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("")
        with pytest.raises(ParseError):
            parse_scenario("# only a comment\n\n")

    def test_unknown_key_names_the_line(self):
        text = MINIMAL_ANGLE + "volume = 11\n"
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == text.splitlines().index("volume = 11") + 1

    def test_missing_separator_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario("kind spiral_saa\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_scenario(MINIMAL_ANGLE + "= 5\n")
        assert str(err.value) == f"line {len(MINIMAL_ANGLE.splitlines()) + 1}: empty key"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_scenario(MINIMAL_ANGLE + "n = 25\n")

    def test_non_integer_count_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario(MINIMAL_ANGLE.replace("n = 16", "n = 3.5"))

    @pytest.mark.parametrize("key", [key for key in KEYS if key not in ("kind", "out")])
    def test_each_key_rejects_text_by_its_rule(self, key):
        with pytest.raises(SpherebeamError) as err:
            parse_field(key, "abc")
        assert str(err.value).startswith(f"{key} ")


class TestScenarioValidation:
    def test_upa_square_count(self):
        text = (
            "kind = upa\nn = 5\nspacing = 0.005\nwavelength = 0.01\n"
            "focal = 30, pi/3, pi/3\nsweep = angle\n"
        )
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert str(err.value) == "n must be a perfect square"
        assert err.value.field == "n"

    @pytest.mark.parametrize(
        "drop,field",
        [
            ("kind = spiral_saa\n", "kind"),
            ("wavelength = 0.05\n", "wavelength"),
            ("focal = 10, pi/4, pi/4\n", "focal"),
            ("sweep = angle\n", "sweep"),
        ],
    )
    def test_required_entries(self, drop, field):
        text = MINIMAL_ANGLE.replace(drop, "")
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert err.value.field == field

    def test_focal_inside_sphere_rejected(self):
        text = MINIMAL_ANGLE.replace("focal = 10, pi/4, pi/4", "focal = 0.2, pi/4, pi/4")
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert err.value.field == "focal"

    def test_junk_sweep_and_normalization(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL_ANGLE.replace("sweep = angle", "sweep = sideways"))
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL_ANGLE + "normalization = loudest\n")

    def test_cross_sweep_keys_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL_ANGLE + "r_min = 5\n")
        assert err.value.field == "r_min"
        assert str(err.value) == "r_min applies only to distance sweeps"
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL_DISTANCE + "theta_samples = 61\n")
        assert err.value.field == "theta_samples"
        assert str(err.value) == "theta_samples applies only to angular sweeps"

    @pytest.mark.parametrize(
        "text, field, message",
        [
            (
                MINIMAL_ANGLE.replace("kind = spiral_saa\n", "").replace("sweep = angle", "sweep = bogus"),
                "sweep",
                "sweep must be 'angle' or 'distance', got 'bogus'",
            ),
            (
                MINIMAL_DISTANCE + "normalization = focal\ntheta_samples = 19\n",
                "theta_samples",
                "theta_samples applies only to angular sweeps",
            ),
        ],
        ids=["sweep_before_kind", "stray_key_before_normalization"],
    )
    def test_a_value_rule_runs_when_its_line_is_parsed(self, text, field, message):
        with pytest.raises(ValidationError) as err:
            parse_scenario(text)
        assert (err.value.field, str(err.value)) == (field, message)

    def test_focal_normalization_needs_angle_sweep(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL_DISTANCE + "normalization = focal\n")
        assert err.value.field == "normalization"

    def test_distance_window_checks(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL_DISTANCE.replace("r_min = 2", "r_min = 60"))
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL_DISTANCE.replace("r_min = 2", "r_min = 0.1"))
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL_DISTANCE.replace("focal = 10, pi/4, pi/4", "focal = 90, pi/4, pi/4"))
        assert err.value.field == "focal"

    def test_eval_range_must_clear_sphere(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(MINIMAL_ANGLE.replace("eval_range = 10", "eval_range = 0.3"))
        assert err.value.field == "eval_range"

    def test_ring_policy_parsing(self):
        base = (
            "kind = ring_saa\nn_rings = 3\nradius = 0.5\nwavelength = 0.05\n"
            "focal = 10, pi/4, pi/4\nsweep = angle\n"
        )
        assert parse_scenario(base).ring_policy == "proportional"
        assert parse_scenario(base + "ring_policy = fixed:6\n").ring_policy == 6
        with pytest.raises(ValidationError):
            parse_scenario(base + "ring_policy = fixed:0\n")
        with pytest.raises(ValidationError):
            parse_scenario(base + "ring_policy = densest\n")

    def test_sample_count_floors(self):
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL_ANGLE.replace("theta_samples = 19", "theta_samples = 1"))
        with pytest.raises(ValidationError):
            parse_scenario(MINIMAL_DISTANCE.replace("r_samples = 50", "r_samples = 1"))


RING_FIXED = (
    "kind = ring_saa\nn_rings = 3\nring_policy = fixed:5\nradius = 0.5\nwavelength = 0.05\n"
    "focal = 10, pi/4, pi/4\nsweep = angle\ntheta_samples = 13\nphi_samples = 17\n"
    "eval_range = 10\nnormalization = focal\n"
)


class TestEmitRoundTrip:
    def test_ring_scenario_text(self):
        text = RING_FIXED + "focal = 10, pi/2, 1\nout = runs/ring\n"
        assert emit_scenario(parse_scenario(text)) == (
            "kind = ring_saa\n"
            "radius = 0.5\n"
            "n_rings = 3\n"
            "ring_policy = fixed:5\n"
            "wavelength = 0.050000000000000003\n"
            "focal = 10, 0.78539816339744828, 0.78539816339744828\n"
            "focal = 10, 1.5707963267948966, 1\n"
            "sweep = angle\n"
            "theta_samples = 13\n"
            "phi_samples = 17\n"
            "eval_range = 10\n"
            "normalization = focal\n"
            "out = runs/ring\n"
        )

    def test_defaults_only_distance_text(self):
        text = "kind = spiral_saa\nn = 16\nradius = 0.3\nwavelength = 0.05\nfocal = 10, pi/4, pi/4\nsweep = distance\n"
        assert emit_scenario(parse_scenario(text)) == (
            "kind = spiral_saa\n"
            "n = 16\n"
            "radius = 0.29999999999999999\n"
            "wavelength = 0.050000000000000003\n"
            "focal = 10, 0.78539816339744828, 0.78539816339744828\n"
            "sweep = distance\n"
            "r_min = 5\n"
            "r_max = 100\n"
            "r_samples = 960\n"
            "normalization = grid_max\n"
        )

    @pytest.mark.parametrize("name", ["fig4_saa", "fig4_upa", "fig5_r05", "fig5_r1", "fig5_r2"])
    def test_presets_round_trip(self, name):
        first = load_preset(name)
        again = parse_scenario(emit_scenario(first))
        assert again == first

    def test_minimal_docs_round_trip(self):
        for text in (MINIMAL_ANGLE, MINIMAL_DISTANCE):
            s = parse_scenario(text)
            assert parse_scenario(emit_scenario(s)) == s

    def test_emit_ends_with_newline_and_parses_line_by_line(self):
        s = parse_scenario(MINIMAL_ANGLE)
        text = emit_scenario(s)
        assert text.endswith("\n")
        for line in text.splitlines():
            assert " = " in line


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestSweepTable:
    def test_each_pattern_subcommand_takes_its_kinds_keys(self):
        common = argparse.ArgumentParser()
        _add_geometry_flags(common)
        _add_beam_flags(common)
        shared = {action.dest for action in common._actions}
        pattern = _subcommands(_subcommands(_build_parser())["pattern"])
        assert list(pattern) == list(SWEEPS)
        for name, sub in pattern.items():
            assert [a.dest for a in sub._actions if a.dest not in shared] == list(SWEEPS[name].keys), name

    def test_each_optional_key_flag_is_built_from_its_field(self):
        pattern = _subcommands(_subcommands(_build_parser())["pattern"])
        for name, sub in pattern.items():
            flags = {a.dest: a for a in sub._actions}
            for key in (*GEOMETRY_KEYS, *SWEEPS[name].keys, "normalization"):
                assert flags[key].option_strings == [f"--{key.replace('_', '-')}"], (name, key)
                assert flags[key].help and flags[key].help == KEYS[key]["help"], (name, key)

    def test_angle_defaults_are_the_sweeps_own(self):
        s = parse_scenario(MINIMAL_ANGLE.split("theta_samples")[0])
        spec = AngularSweepSpec()
        assert (s.theta_samples, s.phi_samples, s.eval_range) == (
            spec.theta_samples, spec.phi_samples, spec.eval_range_m
        )

    def test_distance_defaults_are_the_sweeps_own(self):
        s = parse_scenario(MINIMAL_DISTANCE.split("r_min")[0])
        pattern = distance_sweep(build_geometry(s), s.wavelength, s.focals[0], threads=1)
        assert np.array_equal(pattern.r_axis, np.linspace(s.r_min, s.r_max, s.r_samples))

    @pytest.mark.parametrize("sweep", list(SWEEPS))
    def test_a_minimal_scenario_of_each_kind_round_trips(self, sweep):
        first = parse_scenario(
            f"kind = spiral_saa\nn = 16\nradius = 0.3\nwavelength = 0.05\nfocal = 10, pi/4, pi/4\nsweep = {sweep}\n"
        )
        text = emit_scenario(first)
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys[keys.index("sweep") + 1 : keys.index("normalization")] == list(SWEEPS[sweep].keys)
        assert parse_scenario(text) == first


class TestGeometryFromFields:
    def test_each_kind_builds(self):
        assert geometry_from_fields("upa", n=9, spacing=0.01).n == 9
        assert geometry_from_fields("spiral_saa", n=20, radius=0.4).n == 20
        assert geometry_from_fields("ring_saa", n_rings=2, radius=0.4).n > 0
        assert geometry_from_fields("ring_saa", n_rings=2, ring_policy=5, radius=0.4).n == 10
        assert geometry_from_fields("polyhedral_saa", subdivision=0, radius=0.4).n == 12
        assert geometry_from_fields("spiral_curve_saa", n=15, turns=3.0, radius=0.4).n == 15

    def test_every_kind_has_one_table_row_of_scenario_keys(self):
        table = kind_table()
        assert list(table) == [kind.value for kind in ArrayKind]
        for kind, (constructor, names) in table.items():
            assert len(inspect.signature(constructor).parameters) == len(names), kind
            assert set(names) <= set(KEYS), kind
        assert GEOMETRY_KEYS == ("n", "radius", "spacing", "n_rings", "ring_policy", "subdivision", "turns")
        expected = "expected one of upa, spiral_saa, ring_saa, polyhedral_saa, spiral_curve_saa$"
        with pytest.raises(ValidationError, match=f"^unknown kind 'nonagon', {expected}"):
            geometry_from_fields("nonagon", n=9)

    def test_missing_and_extraneous_fields(self):
        with pytest.raises(ValidationError) as err:
            geometry_from_fields("upa", n=9)
        assert err.value.field == "spacing"
        with pytest.raises(ValidationError) as err:
            geometry_from_fields("upa", n=9, spacing=0.01, radius=0.4)
        assert err.value.field == "radius"
        with pytest.raises(ValidationError) as err:
            geometry_from_fields("nonagon", n=9)
        assert err.value.field == "kind"
        # a field that no kind takes is a caller's mistake, not bad input
        with pytest.raises(TypeError, match="^unknown geometry fields: bogus$"):
            geometry_from_fields("upa", n=4, spacing=0.1, bogus=1)

    def test_constructor_failures_surface_as_validation_errors(self):
        with pytest.raises(ValidationError):
            geometry_from_fields("spiral_curve_saa", n=15, turns=0.0, radius=0.4)
        with pytest.raises(ValidationError):
            geometry_from_fields("spiral_saa", n=20, radius=-1.0)

    def test_build_geometry_from_scenario(self):
        s = parse_scenario(MINIMAL_ANGLE)
        g = build_geometry(s)
        assert g.n == 16
        assert g.radius_m == 0.3


class TestRunScenario:
    def test_angular_run_writes_the_full_file_set(self, tmp_path):
        s = parse_scenario(MINIMAL_ANGLE)
        code = run_scenario(s, tmp_path / "run")
        assert code == 0
        out = tmp_path / "run"
        for name in (
            "geometry.csv",
            "scenario.cfg",
            "beam_00.csv",
            "beam_00.meta",
            "overlay.csv",
            "overlay.meta",
            "metrics.csv",
            "metrics.txt",
            "summary.txt",
        ):
            assert (out / name).is_file(), name
        # the emitted config reparses to the same scenario with out pinned
        echoed = parse_scenario((out / "scenario.cfg").read_text(encoding="utf-8"))
        assert echoed.out == str(out)
        assert echoed.focals == s.focals
        theta_axis, phi_axis, power = read_angular_csv(out / "beam_00.csv")
        assert power.shape == (19, 19)
        meta = read_meta(out / "beam_00.meta")
        assert meta["kind"] == "spiral_saa"
        assert meta["n_elements"] == "16"
        report = read_meta(out / "metrics.txt")
        assert report["skipped"] == ""
        assert "beam_00.hpbw_theta" in report

    def test_upa_run_skips_rear_focals_with_exit_2(self, tmp_path):
        text = UPA_REAR + "sweep = angle\ntheta_samples = 19\nphi_samples = 19\neval_range = 10\n"
        s = parse_scenario(text)
        out = tmp_path / "run"
        assert run_scenario(s, out) == 2
        assert (out / "beam_00.csv").is_file()
        assert not (out / "beam_01.csv").exists()
        assert (out / "beam_02.csv").is_file()
        report = read_meta(out / "metrics.txt")
        assert report["skipped"] == "1"
        overlay_meta = read_meta(out / "overlay.meta")
        assert "focal_0" in overlay_meta and "focal_1" in overlay_meta and "focal_2" in overlay_meta
        assert overlay_meta["skipped"] == "1"

    def test_upa_angular_reports_with_a_rear_focal_skipped(self, tmp_path):
        text = UPA_REAR + "sweep = angle\ntheta_samples = 19\nphi_samples = 19\neval_range = 10\n"
        out = tmp_path / "run"
        assert run_scenario(parse_scenario(text), out) == 2
        assert sorted(p.name for p in out.iterdir()) == [
            "beam_00.csv", "beam_00.meta", "beam_02.csv", "beam_02.meta", "geometry.csv",
            "metrics.csv", "metrics.txt", "overlay.csv", "overlay.meta", "scenario.cfg", "summary.txt",
        ]
        assert (out / "summary.txt").read_text(encoding="utf-8") == (
            "spherebeam run summary\n"
            "======================\n"
            "geometry: upa, 16 elements, spacing 0.025000000000000001 m\n"
            "wavelength: 0.050000000000000003 m\n"
            "sweep: angle, 19 x 19 cells, probe range 10 m, normalization grid_max\n"
            "beams: 3 requested, 2 evaluated, 1 skipped\n"
            "\n"
            "beam 00: focal (theta   45.00, phi   45.00) deg  err  6.209 deg"
            "  hpbw (42.895, 38.883) deg  psl  -11.18 dB  capture 0.910\n"
            "beam 02: focal (theta   60.00, phi   57.30) deg  err  2.342 deg"
            "  hpbw (54.510, 29.687) deg  psl  -10.32 dB  capture 0.980\n"
            "\n"
            "isotropy: hpbw_theta ratio 1.2708, hpbw_phi ratio 1.3098, sidelobe spread 0.87 dB over 2 beams\n"
            "\n"
            "skipped focals: #1 (theta 135.0 deg)\n"
        )
        assert (out / "metrics.txt").read_text(encoding="utf-8") == (
            "beam_00.peak_theta = 0.87266462599716477\n"
            "beam_00.peak_phi = 0.69813170079773179\n"
            "beam_00.pointing_err = 0.10837236452702337\n"
            "beam_00.hpbw_theta = 0.74866400457674265\n"
            "beam_00.hpbw_phi = 0.67864335080989258\n"
            "beam_00.psl_db = -11.184347965054172\n"
            "beam_00.peak_capture = 0.90963663257135763\n"
            "beam_02.peak_theta = 1.0471975511965976\n"
            "beam_02.peak_phi = 1.0471975511965976\n"
            "beam_02.pointing_err = 0.040873329723460666\n"
            "beam_02.hpbw_theta = 0.95137312844755229\n"
            "beam_02.hpbw_phi = 0.51813069128601175\n"
            "beam_02.psl_db = -10.316553421174406\n"
            "beam_02.peak_capture = 0.97957490450126072\n"
            "isotropy.hpbw_theta_ratio = 1.2707611460302692\n"
            "isotropy.hpbw_phi_ratio = 1.3097918386681262\n"
            "isotropy.sidelobe_spread_db = 0.86779454387976607\n"
            "skipped = 1\n"
        )

    def test_upa_distance_reports_with_a_rear_focal_skipped(self, tmp_path):
        text = UPA_REAR + "sweep = distance\nr_min = 5\nr_max = 40\nr_samples = 50\n"
        out = tmp_path / "run"
        assert run_scenario(parse_scenario(text), out) == 2
        assert sorted(p.name for p in out.iterdir()) == [
            "focus_00.csv", "focus_00.meta", "focus_02.csv", "focus_02.meta", "focus_metrics.csv",
            "geometry.csv", "metrics.txt", "scenario.cfg", "summary.txt",
        ]
        assert (out / "summary.txt").read_text(encoding="utf-8") == (
            "spherebeam run summary\n"
            "======================\n"
            "geometry: upa, 16 elements, spacing 0.025000000000000001 m\n"
            "wavelength: 0.050000000000000003 m\n"
            "sweep: distance, window [5, 40] m, 50 samples\n"
            "patterns: 3 requested, 2 evaluated, 1 skipped\n"
            "\n"
            "focus 00: focal 10 m  peak 10.000 m  err 0.000 m  depth 35.000 m (one-sided)\n"
            "focus 02: focal 10 m  peak 10.000 m  err 0.000 m  depth 35.000 m (one-sided)\n"
            "\n"
            "skipped focals: #1\n"
        )
        assert (out / "metrics.txt").read_text(encoding="utf-8") == (
            "focus_00.peak_r_m = 10\n"
            "focus_00.depth_of_focus_m = 35\n"
            "focus_00.focal_error_m = 0\n"
            "focus_00.one_sided = 1\n"
            "focus_02.peak_r_m = 10\n"
            "focus_02.depth_of_focus_m = 35\n"
            "focus_02.focal_error_m = 0\n"
            "focus_02.one_sided = 1\n"
            "skipped = 1\n"
        )

    @pytest.mark.parametrize(
        "sweep_lines, stem, counted, skipped_text",
        [
            (
                "sweep = angle\ntheta_samples = 19\nphi_samples = 19\neval_range = 10\n",
                "beam", "beams", "#1 (theta 135.0 deg); #3 (theta 135.0 deg)",
            ),
            ("sweep = distance\nr_min = 5\nr_max = 40\nr_samples = 50\n", "focus", "patterns", "#1, #3"),
        ],
        ids=["angle", "distance"],
    )
    def test_repeated_focal_points_are_matched_once_each_and_reported_by_index(
        self, tmp_path, monkeypatch, sweep_lines, stem, counted, skipped_text
    ):
        matched = []
        real = sweep.los_channel

        def counting(geometry, target, wavelength):
            matched.append(target)
            return real(geometry, target, wavelength)

        monkeypatch.setattr(sweep, "los_channel", counting)
        front, rear = "focal = 10, pi/4, pi/4\n", "focal = 10, 3pi/4, pi/4\n"
        s = parse_scenario("kind = upa\nn = 16\nspacing = 0.025\nwavelength = 0.05\n" + 2 * (front + rear) + sweep_lines)
        out = tmp_path / "run"
        assert run_scenario(s, out) == 2
        assert len(matched) == 4
        assert all(target is focal for target, focal in zip(matched, s.focals))
        assert sorted(p.name for p in out.glob(f"{stem}_[0-9]*")) == [
            f"{stem}_00.csv", f"{stem}_00.meta", f"{stem}_02.csv", f"{stem}_02.meta",
        ]
        # the two front copies are one beam, written under their own indices
        assert (out / f"{stem}_00.csv").read_bytes() == (out / f"{stem}_02.csv").read_bytes()
        report = read_meta(out / "metrics.txt")
        assert report["skipped"] == "1,3"
        assert {key.split(".")[0] for key in report} - {"isotropy", "skipped"} == {f"{stem}_00", f"{stem}_02"}
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert f"{counted}: 4 requested, 2 evaluated, 2 skipped" in summary
        assert [line[: len(stem) + 3] for line in summary if line.startswith(f"{stem} ")] == [
            f"{stem} 00", f"{stem} 02",
        ]
        assert summary[-1] == f"skipped focals: {skipped_text}"

    def test_degenerate_beams_give_nan_rows_and_no_isotropy(self, tmp_path):
        # a 2 x 2 grid samples only the poles, which the one element, on
        # the equator, cannot see: both beams are all zero
        text = (
            "kind = spiral_saa\nn = 1\nradius = 0.3\nwavelength = 0.02\n"
            "focal = 10, pi/2, 0\nfocal = 10, pi/2, 0.1\n"
            "sweep = angle\ntheta_samples = 2\nphi_samples = 2\neval_range = 10\nnormalization = focal\n"
        )
        out = tmp_path / "run"
        assert run_scenario(parse_scenario(text), out) == 0
        assert (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:] == [
            "1.5707963267948966,0,nan,nan,nan,nan,nan,nan",
            "1.5707963267948966,0.10000000000000001,nan,nan,nan,nan,nan,nan",
        ]
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert "beam 00: focal (theta   90.00, phi    0.00) deg  degenerate pattern" in summary
        assert "beam 01: focal (theta   90.00, phi    5.73) deg  degenerate pattern" in summary
        assert not any(line.startswith("isotropy") for line in summary)
        report = read_meta(out / "metrics.txt")
        assert report["beam_00.hpbw_theta"] == "nan"
        assert report["beam_01.peak_capture"] == "0"
        assert not any(key.startswith("isotropy.") for key in report)

    def test_ring_run_sidecar_text(self, tmp_path):
        out = tmp_path / "run"
        assert run_scenario(parse_scenario(RING_FIXED), out) == 0
        assert (out / "beam_00.meta").read_text(encoding="utf-8") == (
            "kind = ring_saa\n"
            "radius = 0.5\n"
            "n_rings = 3\n"
            "ring_policy = fixed:5\n"
            "wavelength = 0.050000000000000003\n"
            "n_elements = 15\n"
            "sweep = angle\n"
            "theta_samples = 13\n"
            "phi_samples = 17\n"
            "eval_range = 10\n"
            "normalization = focal\n"
            "skipped = \n"
            "focal = 10, 0.78539816339744828, 0.78539816339744828\n"
            "peak_capture = 1\n"
        )

    def test_distance_run_writes_focus_files(self, tmp_path):
        s = parse_scenario(MINIMAL_DISTANCE)
        out = tmp_path / "run"
        assert run_scenario(s, out) == 0
        for name in ("geometry.csv", "scenario.cfg", "focus_00.csv", "focus_00.meta", "focus_metrics.csv", "metrics.txt", "summary.txt"):
            assert (out / name).is_file(), name

    def test_missing_output_directory_is_a_validation_error(self):
        s = parse_scenario(MINIMAL_ANGLE)
        with pytest.raises(ValidationError):
            run_scenario(s)

    def test_empty_out_key_is_rejected_before_writing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        s = parse_scenario(MINIMAL_ANGLE + "out = \n")
        with pytest.raises(ValidationError) as err:
            run_scenario(s)
        assert err.value.field == "out"
        assert list(tmp_path.iterdir()) == []

    def test_out_key_in_document_is_honored(self, tmp_path):
        target = tmp_path / "from_doc"
        s = parse_scenario(MINIMAL_ANGLE + f"out = {target}\n")
        assert run_scenario(s) == 0
        assert (target / "overlay.csv").is_file()
