from __future__ import annotations

import math

import pytest

from spherebeam.cli import _build_parser, main
from spherebeam.errors import ValidationError
from spherebeam.fileio import ANGULAR_HEADER, DISTANCE_HEADER, read_meta


def run_cli(*argv):
    return main(list(argv))


# a 10 x 20 degree grid steps over this beam's 0.6 degree main lobe
OFF_LATTICE_ARGS = (
    "pattern", "angle",
    "--kind", "spiral_saa", "--n", "64", "--radius", "0.5",
    "--wavelength", "0.01", "--focal", "10, 19pi/36, pi/18",
    "--theta-samples", "19", "--phi-samples", "19", "--eval-range", "10",
)

ANGLE_ARGS = (
    "pattern", "angle",
    "--kind", "spiral_saa", "--n", "16", "--radius", "0.3",
    "--wavelength", "0.05", "--focal", "10, pi/4, pi/4",
    "--theta-samples", "19", "--phi-samples", "19", "--eval-range", "10",
)


class TestTopLevel:
    def test_bare_invocation_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli()
        assert err.value.code == 2

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 2

    def test_preset_list(self, capsys):
        assert run_cli("preset", "list") == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["fig4_saa", "fig4_upa", "fig5_r05", "fig5_r1", "fig5_r2"]


class TestGeometryCommand:
    def test_writes_layout_csv(self, tmp_path, capsys):
        code = run_cli(
            "geometry", "--kind", "spiral_saa", "--n", "24", "--radius", "0.5",
            "--out", str(tmp_path / "geo"),
        )
        assert code == 0
        assert (tmp_path / "geo" / "geometry.csv").is_file()
        assert "24 elements" in capsys.readouterr().out

    def test_bad_kind_reports_error_and_exit_1(self, tmp_path, capsys):
        code = run_cli("geometry", "--kind", "pyramid", "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_empty_out_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run_cli("geometry", "--kind", "spiral_saa", "--n", "24", "--radius", "0.5", "--out", "")
        assert code == 1
        assert capsys.readouterr().err == "error: an output directory is required\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_ring_policy_reports_error(self, tmp_path, capsys):
        code = run_cli(
            "geometry", "--kind", "ring_saa", "--n-rings", "3", "--radius", "0.5",
            "--ring-policy", "fixed:abc", "--out", str(tmp_path),
        )
        assert code == 1
        assert "ring_policy" in capsys.readouterr().err


class TestPatternCommands:
    def test_angle_run_and_thread_count_stability(self, tmp_path):
        out1 = tmp_path / "t1"
        out2 = tmp_path / "t2"
        assert run_cli(*ANGLE_ARGS, "--threads", "1", "--out", str(out1)) == 0
        assert run_cli(*ANGLE_ARGS, "--threads", "2", "--out", str(out2)) == 0
        a = (out1 / "beam_00.csv").read_bytes()
        b = (out2 / "beam_00.csv").read_bytes()
        assert a == b
        assert (out1 / "overlay.csv").read_bytes() == (out2 / "overlay.csv").read_bytes()

    def test_empty_out_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*ANGLE_ARGS, "--out", "") == 1
        assert capsys.readouterr().err == "error: an output directory is required\n"
        assert list(tmp_path.iterdir()) == []

    def test_distance_run(self, tmp_path):
        out = tmp_path / "d"
        code = run_cli(
            "pattern", "distance",
            "--kind", "spiral_saa", "--n", "16", "--radius", "0.3",
            "--wavelength", "0.05", "--focal", "10, pi/4, pi/4",
            "--r-min", "2", "--r-max", "40", "--r-samples", "50",
            "--out", str(out),
        )
        assert code == 0
        assert (out / "focus_00.csv").is_file()
        assert (out / "focus_metrics.csv").is_file()

    def test_one_facing_element_gives_a_degenerate_distance_pattern(self, tmp_path, capsys):
        # one element's matched share is 1 at every range, so the normalized
        # power is flat to rounding and has no peak, focus or depth
        out = tmp_path / "one"
        assert run_cli(
            "pattern", "distance",
            "--kind", "spiral_saa", "--n", "1", "--radius", "0.3",
            "--wavelength", "0.05", "--focal", "10, pi/4, 0.5",
            "--r-min", "5", "--r-max", "20", "--r-samples", "16",
            "--out", str(out),
        ) == 0
        report = (out / "metrics.txt").read_text(encoding="utf-8").splitlines()
        assert report == [
            "focus_00.peak_r_m = nan",
            "focus_00.depth_of_focus_m = nan",
            "focus_00.focal_error_m = nan",
            "focus_00.one_sided = 0",
            "skipped = ",
        ]
        assert "focus 00: focal 10 m, degenerate pattern" in (out / "summary.txt").read_text(encoding="utf-8")
        capsys.readouterr()
        assert run_cli("metrics", str(out / "focus_00.csv")) == 0
        assert capsys.readouterr().out.splitlines() == [line[len("focus_00."):] for line in report[:-1]]

    def test_a_beam_that_lights_no_cell_is_a_degenerate_record_under_grid_max(self, tmp_path, capsys):
        # beam 01 aims at phi = pi, where no cell of the 3 x 2 grid lies, so
        # its raw grid is all zero and has no maximum to normalize by
        out = tmp_path / "unlit"
        assert run_cli(
            "pattern", "angle",
            "--kind", "ring_saa", "--n-rings", "1", "--radius", "0.3",
            "--wavelength", "0.05", "--focal", "10, pi/2, 0", "--focal", "10, pi/2, pi",
            "--theta-samples", "3", "--phi-samples", "2", "--eval-range", "10",
            "--out", str(out),
        ) == 0
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert "beam 01: focal (theta   90.00, phi  180.00) deg  degenerate pattern" in summary
        assert any(line.startswith("beam 00: focal (theta   90.00, phi    0.00) deg  err") for line in summary)
        report = [line for line in (out / "metrics.txt").read_text(encoding="utf-8").splitlines()
                  if line.startswith("beam_01.")]
        assert report == [
            "beam_01.peak_theta = nan",
            "beam_01.peak_phi = nan",
            "beam_01.pointing_err = nan",
            "beam_01.hpbw_theta = nan",
            "beam_01.hpbw_phi = nan",
            "beam_01.psl_db = nan",
            "beam_01.peak_capture = 0",
        ]
        capsys.readouterr()
        assert run_cli("metrics", str(out / "beam_01.csv")) == 0
        assert capsys.readouterr().out.splitlines() == [line[len("beam_01."):] for line in report]

    def test_infeasible_focals_yield_exit_2(self, tmp_path):
        code = run_cli(
            "pattern", "angle",
            "--kind", "upa", "--n", "16", "--spacing", "0.025",
            "--wavelength", "0.05",
            "--focal", "10, pi/4, pi/4", "--focal", "10, 3pi/4, pi/4",
            "--theta-samples", "19", "--phi-samples", "19", "--eval-range", "10",
            "--out", str(tmp_path / "mixed"),
        )
        assert code == 2

    def test_distance_run_with_only_rear_focals_exits_1(self, tmp_path, capsys):
        out = tmp_path / "rear"
        code = run_cli(
            "pattern", "distance",
            "--kind", "upa", "--n", "16", "--spacing", "0.025",
            "--wavelength", "0.05", "--focal", "10, 3pi/4, 0.5",
            "--r-min", "5", "--r-max", "20", "--r-samples", "16",
            "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == "error: every focal point was skipped, no distance pattern to emit\n"
        assert not out.exists()

    def test_angle_run_with_only_rear_focals_exits_1(self, tmp_path, capsys):
        out = tmp_path / "rear"
        code = run_cli(
            "pattern", "angle",
            "--kind", "upa", "--n", "16", "--spacing", "0.025",
            "--wavelength", "0.05", "--focal", "10, 3pi/4, 0.5",
            "--theta-samples", "19", "--phi-samples", "19", "--eval-range", "10",
            "--out", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == "error: all 1 focal points were skipped\n"
        assert not out.exists()

    def test_validation_failure_yields_exit_1(self, tmp_path, capsys):
        code = run_cli(
            "pattern", "angle",
            "--kind", "spiral_saa", "--n", "16", "--radius", "0.3",
            "--wavelength", "0.05", "--focal", "0.1, pi/4, pi/4",
            "--out", str(tmp_path / "bad"),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_overflowing_focal_range_exits_1(self, tmp_path, capsys):
        code = run_cli(*ANGLE_ARGS, "--focal", "1e300, 1, 1", "--out", str(tmp_path / "far"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "overflow" in err

    @pytest.mark.parametrize(
        "argv",
        [
            (*ANGLE_ARGS, "--eval-range", "1e300"),
            (
                "pattern", "distance",
                "--kind", "spiral_saa", "--n", "16", "--radius", "0.3",
                "--wavelength", "1e-300", "--focal", "10, pi/4, pi/4",
                "--r-min", "2", "--r-max", "40", "--r-samples", "50",
            ),
            (*ANGLE_ARGS, "--wavelength", "1e300"),
            (
                "pattern", "distance",
                "--kind", "spiral_saa", "--n", "16", "--radius", "0.3",
                "--wavelength", "1e300", "--focal", "10, pi/4, pi/4",
                "--r-min", "2", "--r-max", "40", "--r-samples", "50",
            ),
            # the focal channel energy is finite, but the powers at probes
            # nearer the array overflow
            (*ANGLE_ARGS, "--wavelength", "1e155", "--eval-range", "0.5"),
            (
                "pattern", "distance",
                "--kind", "spiral_saa", "--n", "16", "--radius", "0.3",
                "--wavelength", "1e155", "--focal", "10, pi/4, pi/4",
                "--r-min", "0.5", "--r-max", "40", "--r-samples", "50",
            ),
        ],
        ids=[
            "angle", "distance", "angle_energy_overflow", "distance_energy_overflow",
            "angle_probe_overflow", "distance_probe_overflow",
        ],
    )
    def test_failed_sweep_leaves_no_output_directory(self, tmp_path, capsys, argv):
        out = tmp_path / "nested" / "failed"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "nested").exists()

    # every separator str.splitlines() splits on
    LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
    def test_line_break_in_a_flag_value_cannot_add_scenario_lines(self, tmp_path, capsys, brk):
        injected = f"0.05{brk}focal = 10, pi/2, 1"
        out = tmp_path / "injected"
        assert run_cli(*ANGLE_ARGS, "--wavelength", injected, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: wavelength must be a single line, got {injected!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            ((*ANGLE_ARGS, "--wavelength", "0.05\u2028sweep = distance"), "wavelength"),
            ((*ANGLE_ARGS, "--focal", "10, pi/2, 1\nfocal = 10, 1, 1"), "focal"),
            ((*ANGLE_ARGS, "--kind", "upa\rspacing = 0.05"), "kind"),
            ((*ANGLE_ARGS, "--n", "16\x85"), "n"),
            ((*ANGLE_ARGS, "--theta-samples", "19\n"), "theta_samples"),
            ((*ANGLE_ARGS, "--normalization", "focal\f"), "normalization"),
            (
                (
                    "pattern", "distance",
                    "--kind", "spiral_saa", "--n", "16", "--radius", "0.3",
                    "--wavelength", "0.05", "--focal", "10, pi/4, pi/4", "--r-samples", "50\n",
                ),
                "r_samples",
            ),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_line_break_error_names_the_flag(self, tmp_path, argv, key):
        args = _build_parser().parse_args([*argv, "--out", str(tmp_path / "out")])
        with pytest.raises(ValidationError) as err:
            args.func(args)
        assert err.value.field == key
        assert not (tmp_path / "out").exists()


    def test_flag_error_cites_no_line_number(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*ANGLE_ARGS, "--n", "abc", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: n expects an integer, got 'abc'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            (*ANGLE_ARGS, "--threads", "1"),
            ("run", "--preset", "fig5_r2", "--threads", "1"),
            ("geometry", "--kind", "spiral_saa", "--n", "16", "--radius", "0.3"),
        ],
        ids=["pattern", "run", "geometry"],
    )
    def test_line_break_in_the_output_directory_is_rejected(self, tmp_path, argv):
        args = _build_parser().parse_args([*argv, "--out", str(tmp_path / "o\nfocal = 10, 1.5, 1")])
        with pytest.raises(ValidationError) as err:
            args.func(args)
        assert err.value.field == "out"
        assert list(tmp_path.iterdir()) == []


class TestFlagValues:
    # each command's words before the geometry flags; pattern adds a small angular run
    COMMANDS = {
        "geometry": ("geometry",),
        "pattern": (
            "pattern", "angle", "--wavelength", "0.05", "--focal", "10, pi/4, pi/4",
            "--theta-samples", "5", "--phi-samples", "5", "--eval-range", "10",
        ),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_geometry_and_pattern_take_the_same_values(self, tmp_path, capsys, command):
        def run(out, kind, n_rings, ring_policy):
            flags = ("--kind", kind, "--n-rings", n_rings, "--ring-policy", ring_policy, "--radius", "0.3")
            return run_cli(*self.COMMANDS[command], *flags, "--out", str(tmp_path / out))

        assert run("plain", "ring_saa", "3", "fixed:5") == 0
        assert run("padded", " ring_saa", "3", " fixed:5 ") == 0
        plain = (tmp_path / "plain" / "geometry.csv").read_bytes()
        assert (tmp_path / "padded" / "geometry.csv").read_bytes() == plain
        capsys.readouterr()

        assert run("broken", "ring_saa", "3\n", "fixed:5") == 1
        assert capsys.readouterr().err == "error: n_rings must be a single line, got '3\\n'\n"
        assert not (tmp_path / "broken").exists()


class TestRunCommand:
    def test_scenario_file(self, tmp_path):
        doc = (
            "kind = spiral_saa\nn = 16\nradius = 0.3\nwavelength = 0.05\n"
            "focal = 10, pi/4, pi/4\nsweep = angle\n"
            "theta_samples = 19\nphi_samples = 19\neval_range = 10\n"
        )
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(doc, encoding="utf-8")
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", str(cfg), "--out", str(out)) == 0
        assert (out / "summary.txt").is_file()

    @pytest.mark.parametrize("value", ["abc", "1.5", "1\n"])
    @pytest.mark.parametrize("argv", [ANGLE_ARGS, ("run", "--preset", "fig5_r2")], ids=["pattern", "run"])
    def test_non_integer_threads_exits_1_before_writing(self, tmp_path, capsys, argv, value):
        out = tmp_path / "threads"
        assert run_cli(*argv, "--threads", value, "--out", str(out)) == 1
        rule = "must be a single line" if "\n" in value else "expects an integer"
        assert capsys.readouterr().err == f"error: threads {rule}, got {value!r}\n"
        assert not out.exists()

    def test_zero_threads_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "zero"
        assert run_cli("run", "--preset", "fig5_r2", "--threads", "0", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "threads" in err
        assert not out.exists()

    def test_fig4_saa_warns_for_the_two_off_lattice_beams(self, tmp_path, capsys):
        out = tmp_path / "fig4"
        assert run_cli("run", "--preset", "fig4_saa", "--threads", "2", "--out", str(out)) == 0
        warned = capsys.readouterr().err.splitlines()
        assert len(warned) == 2
        assert warned[0].startswith("warning: focal (r=30 m, theta=120.000 deg, phi=135.000 deg)")
        assert warned[1].startswith("warning: focal (r=30 m, theta=135.000 deg, phi=45.000 deg)")
        report = read_meta(out / "metrics.txt")
        captures = [float(report[f"beam_{i:02d}.peak_capture"]) for i in range(8)]
        assert [c < 0.5 for c in captures] == [False, False, False, True, True, False, False, False]
        assert read_meta(out / "beam_03.meta")["peak_capture"] == report["beam_03.peak_capture"]
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        assert summary.count("main lobe not sampled") == 2

    # a preset is a name that ``preset list`` prints, not a path to a shipped file
    @pytest.mark.parametrize("name", ["fig0_never", "../presets/fig5_r1"])
    def test_unknown_preset_exits_1(self, tmp_path, capsys, name):
        code = run_cli("run", "--preset", name, "--out", str(tmp_path / "x"))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: unknown preset {name!r}, expected one of fig4_saa, ")
        assert list(tmp_path.iterdir()) == []

    def test_padded_preset_name_runs_that_preset(self, tmp_path):
        for out, name in (("plain", "fig5_r2"), ("padded", " fig5_r2 ")):
            assert run_cli("run", "--preset", name, "--threads", "1", "--out", str(tmp_path / out)) == 0
        plain = (tmp_path / "plain" / "focus_00.csv").read_bytes()
        assert (tmp_path / "padded" / "focus_00.csv").read_bytes() == plain

    def test_missing_scenario_file_exits_1(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_undecodable_scenario_file_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "scene.cfg"
        cfg.write_bytes(b"kind = spiral_saa\n\xff\xfe\x00\n")
        out = tmp_path / "x"
        assert run_cli("run", "--scenario", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {cfg} is not UTF-8 text: invalid start byte\n"
        assert not out.exists()

    def test_preset_and_scenario_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--preset", "fig4_saa", "--scenario", "x.cfg", "--out", str(tmp_path))
        assert err.value.code == 2

    def test_blocked_output_path_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("in the way\n", encoding="utf-8")
        doc = (
            "kind = spiral_saa\nn = 16\nradius = 0.3\nwavelength = 0.05\n"
            "focal = 10, pi/4, pi/4\nsweep = angle\n"
            "theta_samples = 19\nphi_samples = 19\neval_range = 10\n"
        )
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(doc, encoding="utf-8")
        code = run_cli("run", "--scenario", str(cfg), "--out", str(blocker))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestMetricsCommand:
    @pytest.fixture()
    def angular_run(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*ANGLE_ARGS, "--out", str(out)) == 0
        return out

    def test_sidecar_supplies_the_focal(self, angular_run, capsys):
        assert run_cli("metrics", str(angular_run / "beam_00.csv")) == 0
        lines = dict(
            line.split(" = ") for line in capsys.readouterr().out.splitlines()
        )
        report = read_meta(angular_run / "metrics.txt")
        for short, collected in (
            ("peak_theta", "beam_00.peak_theta"),
            ("peak_phi", "beam_00.peak_phi"),
            ("pointing_err", "beam_00.pointing_err"),
            ("hpbw_theta", "beam_00.hpbw_theta"),
            ("hpbw_phi", "beam_00.hpbw_phi"),
        ):
            got = float(lines[short])
            want = float(report[collected])
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_missing_sidecar_requires_focal_flag(self, angular_run, tmp_path, capsys):
        lone = tmp_path / "lone.csv"
        lone.write_bytes((angular_run / "beam_00.csv").read_bytes())
        assert run_cli("metrics", str(lone)) == 1
        assert "focal" in capsys.readouterr().err
        assert run_cli("metrics", str(lone), "--focal", "10, pi/4,\npi/4") == 1
        assert capsys.readouterr().err.startswith("error: focal must be a single line")
        assert run_cli("metrics", str(lone), "--focal", "10, pi/4, pi/4") == 0
        assert "hpbw_theta" in capsys.readouterr().out

    def test_peak_capture_comes_from_the_sidecar(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(*OFF_LATTICE_ARGS, "--threads", "1", "--out", str(out)) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning:") and "main lobe" in err
        report = read_meta(out / "metrics.txt")
        assert float(report["beam_00.peak_capture"]) < 0.5

        assert run_cli("metrics", str(out / "beam_00.csv")) == 0
        captured = capsys.readouterr()
        lines = dict(line.split(" = ") for line in captured.out.splitlines())
        assert lines["peak_capture"] == report["beam_00.peak_capture"]
        assert captured.err.startswith("warning:")

        lone = tmp_path / "lone.csv"
        lone.write_bytes((out / "beam_00.csv").read_bytes())
        assert run_cli("metrics", str(lone), "--focal", "10, 19pi/36, pi/18") == 0
        captured = capsys.readouterr()
        assert "peak_capture" not in captured.out
        assert captured.err == ""

    def test_distance_metrics(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli(
            "pattern", "distance",
            "--kind", "spiral_saa", "--n", "16", "--radius", "0.3",
            "--wavelength", "0.05", "--focal", "10, pi/4, pi/4",
            "--r-min", "2", "--r-max", "40", "--r-samples", "200",
            "--out", str(out),
        ) == 0
        capsys.readouterr()
        assert run_cli("metrics", str(out / "focus_00.csv")) == 0
        text = capsys.readouterr().out
        assert "peak_r_m = " in text
        assert "depth_of_focus_m = " in text

    def test_undecodable_csv_exits_1(self, tmp_path, capsys):
        odd = tmp_path / "odd.csv"
        odd.write_bytes(b"\xff\xfe\x00\n")
        assert run_cli("metrics", str(odd), "--focal", "10, 1, 1") == 1
        assert capsys.readouterr().err == f"error: {odd} is not UTF-8 text: invalid start byte\n"

    def test_undecodable_sidecar_exits_1(self, angular_run, capsys):
        sidecar = angular_run / "beam_00.meta"
        sidecar.write_bytes(b"focal = 10, 1, 1\n\xff\xfe\x00\n")
        assert run_cli("metrics", str(angular_run / "beam_00.csv")) == 1
        assert capsys.readouterr().err == f"error: {sidecar} is not UTF-8 text: invalid start byte\n"

    def test_flat_pattern_prints_the_run_figures(self, tmp_path, capsys):
        # one element on the equator, a 2 x 2 grid that samples only the
        # poles: the run records both beams as degenerate and exits 0
        scenario = tmp_path / "flat.cfg"
        scenario.write_text(
            "kind = spiral_saa\nn = 1\nradius = 0.3\nwavelength = 0.02\n"
            "focal = 10, pi/2, 0\nfocal = 10, pi/2, 0.1\n"
            "sweep = angle\ntheta_samples = 2\nphi_samples = 2\neval_range = 10\nnormalization = focal\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        assert run_cli("run", "--scenario", str(scenario), "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli("metrics", str(out / "beam_00.csv")) == 0
        report = (out / "metrics.txt").read_text(encoding="utf-8").splitlines()
        expected = [line[len("beam_00."):] for line in report if line.startswith("beam_00.")]
        assert capsys.readouterr().out.splitlines() == expected

    @pytest.mark.parametrize(
        "header, rows, message",
        [
            (ANGULAR_HEADER, ["0,0,-3", "0,1,4000"], "line 3: power_db '4000' overflows linear power"),
            (ANGULAR_HEADER, ["0,0,-3", "0,1,inf"], "line 3: not every field of '0,1,inf' is a finite number"),
            (DISTANCE_HEADER, ["1,-3", "2,4000"], "line 3: power_db '4000' overflows linear power"),
            (DISTANCE_HEADER, ["1,-3", "nan,-1"], "line 3: not every field of 'nan,-1' is a finite number"),
        ],
        ids=["angular_overflow", "angular_inf", "distance_overflow", "distance_nan_range"],
    )
    def test_non_finite_or_overflowing_csv_field_exits_1(self, tmp_path, capsys, header, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert run_cli("metrics", str(path), "--focal", "10, 1, 1") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    # the sidecar's scenario keys follow the scenario's rules; peak_capture,
    # which is no scenario key, has a finite-number rule of its own
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("eval_range", "inf", "eval_range must be positive and finite, got inf"),
            ("eval_range", "abc", "eval_range expects a number, got 'abc'"),
            ("eval_range", "-1", "eval_range must be positive and finite, got -1.0"),
            ("normalization", "loudest", "normalization must be 'grid_max' or 'focal', got 'loudest'"),
            ("peak_capture", "nan", "sidecar peak_capture is not a finite number: 'nan'"),
            ("peak_capture", "abc", "sidecar peak_capture is not a finite number: 'abc'"),
        ],
        ids=[
            "eval_range-inf", "eval_range-abc", "eval_range-negative", "normalization-loudest", "peak_capture-nan",
            "peak_capture-abc",
        ],
    )
    def test_non_finite_sidecar_number_exits_1(self, angular_run, capsys, key, value, message):
        sidecar = angular_run / "beam_00.meta"
        sidecar.write_text(sidecar.read_text(encoding="utf-8") + f"{key} = {value}\n", encoding="utf-8")
        assert run_cli("metrics", str(angular_run / "beam_00.csv")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "rows, focal, expected",
        [
            # the endpoint column phi = 2pi holds the peak, above column 0
            (
                ["0.5,0,-10", "0.5,3.1415926535897931,-10", "0.5,6.2831853071795862,0",
                 "1,0,-20", "1,3.1415926535897931,-20", "1,6.2831853071795862,-20"],
                "10, 0.5, 0",
                {"peak_phi": "6.2831853071795862", "psl_db": "-300"},
            ),
            # the sidelobe to peak ratio underflows to zero
            (
                ["0.5,0,-250", "0.5,1,-299", "0.5,2,3000", "0.5,3,-299", "0.5,4,-250"],
                "10, 0.5, 2",
                {"peak_phi": "2", "psl_db": "-300"},
            ),
        ],
        ids=["endpoint_column_peak", "sidelobe_ratio_underflow"],
    )
    def test_hand_made_grid_is_measured(self, tmp_path, capsys, rows, focal, expected):
        path = tmp_path / "grid.csv"
        path.write_text("\n".join([ANGULAR_HEADER, *rows]) + "\n", encoding="utf-8")
        assert run_cli("metrics", str(path), "--focal", focal) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert {key: printed[key] for key in expected} == expected

    def test_unrecognized_csv_exits_1(self, tmp_path, capsys):
        odd = tmp_path / "odd.csv"
        odd.write_text("a,b\n1,2\n", encoding="utf-8")
        assert run_cli("metrics", str(odd), "--focal", "10, 1, 1") == 1
        assert "error:" in capsys.readouterr().err
