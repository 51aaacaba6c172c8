from __future__ import annotations

import math

import pytest

from spherebeam.cli import main
from spherebeam.fileio import read_meta


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

    def test_unknown_preset_exits_1(self, tmp_path, capsys):
        code = run_cli("run", "--preset", "fig0_never", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_scenario_file_exits_1(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

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
        capsys.readouterr()
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

    def test_unrecognized_csv_exits_1(self, tmp_path, capsys):
        odd = tmp_path / "odd.csv"
        odd.write_text("a,b\n1,2\n", encoding="utf-8")
        assert run_cli("metrics", str(odd), "--focal", "10, 1, 1") == 1
        assert "error:" in capsys.readouterr().err
