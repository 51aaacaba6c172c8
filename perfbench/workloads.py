"""The four benchmark workloads: their inputs, operations and output checks.

Each workload builds its inputs in ``__init__`` (the set-up the benchmark
times as ``setup_s``), returns one round of operations from
``operations``, and checks a round's outputs in ``check_round``. Every
operation calls the program through module attributes, so the tracer's
wrappers see the calls. All sweeps run at ``threads=1``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
from pathlib import Path

import numpy as np

from spherebeam import cli, fileio, metrics, scenario, sweep

import oracle
from oracle import require


def _focal_text(r: float, theta: float, phi: float) -> str:
    return f"{r!r}, {theta!r}, {phi!r}"


def _read_csv(path) -> np.ndarray:
    """Numeric body of a CSV the program wrote, parsed without the program."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_keyed(path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in Path(path).read_text(encoding="utf-8").splitlines() if line)
    return {k: v for k, v in pairs}


def _db_to_power(db: np.ndarray) -> np.ndarray:
    return np.where(db <= -300.0, 0.0, 10.0 ** (db / 10.0))


def _read_angular(path, shape):
    """(theta_axis, phi_axis, power, db) of a pattern CSV, with its grid checked."""
    body = _read_csv(path)
    require(body.shape == (shape[0] * shape[1], 3), f"{path.name}: {body.shape[0]} rows, expected {shape}")
    theta = body[:, 0].reshape(shape)
    phi = body[:, 1].reshape(shape)
    require(bool(np.all(theta == theta[:, :1]) and np.all(phi == phi[:1, :])),
            f"{path.name}: rows are not a theta-major grid")
    require(theta[0, 0] == 0.0 and theta[-1, 0] == math.pi and phi[0, 0] == 0.0 and phi[0, -1] == 2 * math.pi,
            f"{path.name}: grid does not span [0, pi] x [0, 2pi]")
    db = body[:, 2].reshape(shape)
    return theta[:, 0], phi[0, :], _db_to_power(db), db


class OverlaySaa8:
    """The shipped ``fig4_saa`` preset run end to end (the paper's Fig. 4)."""

    name = "overlay_saa8"

    def __init__(self, seed: int, workdir: Path):
        self.spec = scenario.load_preset("fig4_saa")
        self.geometry = scenario.build_geometry(self.spec)
        self.out = workdir / self.name
        self.rng = np.random.default_rng(seed)

    def operations(self):
        return [lambda: scenario.run_scenario(self.spec, self.out, threads=1)]

    def check_round(self, results) -> None:
        (code,) = results
        if code is None:
            return
        require(code == 0, f"{self.name}: run_scenario returned {code}")
        s = self.spec
        shape = (s.theta_samples, s.phi_samples)
        overlay_db = None
        for index, focal in enumerate(s.focals):
            stem = self.out / f"beam_{index:02d}"
            theta, phi, power, db = _read_angular(stem.with_suffix(".csv"), shape)
            capture = float(_read_keyed(stem.with_suffix(".meta"))["peak_capture"])
            oracle.check_angular_beam(
                f"{self.name} beam {index:02d}", theta, phi, power, capture,
                (focal.r, focal.theta, focal.phi), s.eval_range,
                self.geometry.positions, self.geometry.normals, s.wavelength, self.rng,
            )
            overlay_db = db if overlay_db is None else np.maximum(overlay_db, db)
        _, _, _, db = _read_angular(self.out / "overlay.csv", shape)
        require(bool(np.array_equal(db, overlay_db)), f"{self.name}: overlay is not the per-cell maximum of its beams")


class DenseSingleBeam:
    """One beam of a 360-element spherical array over the default 181 x 181 grid."""

    name = "dense_single_beam"
    n = 360
    grid = 181

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.rng = rng
        # The focal direction is drawn on a grid node, where peak_capture must be 1.
        theta = float(np.linspace(0.0, math.pi, self.grid)[rng.integers(10, self.grid - 10)])
        phi = float(np.linspace(0.0, 2 * math.pi, self.grid)[rng.integers(0, self.grid - 1)])
        doc = (
            f"kind = spiral_saa\nn = {self.n}\nradius = 0.5\nwavelength = 0.01\n"
            f"focal = {_focal_text(30.0, theta, phi)}\nsweep = angle\n"
            f"theta_samples = {self.grid}\nphi_samples = {self.grid}\neval_range = 30\n"
        )
        self.spec = scenario.parse_scenario(doc)
        self.geometry = scenario.build_geometry(self.spec)
        self.sweep_spec = sweep.AngularSweepSpec(
            theta_samples=self.spec.theta_samples,
            phi_samples=self.spec.phi_samples,
            eval_range_m=self.spec.eval_range,
        )

    def operations(self):
        s = self.spec
        return [lambda: sweep.angular_sweep(self.geometry, s.wavelength, s.focals[0], self.sweep_spec, threads=1)]

    def check_round(self, results) -> None:
        (grid,) = results
        if grid is None:
            return
        focal = self.spec.focals[0]
        oracle.check_angular_beam(
            self.name, grid.theta_axis, grid.phi_axis, grid.power, grid.peak_capture,
            (focal.r, focal.theta, focal.phi), self.spec.eval_range,
            self.geometry.positions, self.geometry.normals, self.spec.wavelength, self.rng,
        )


class FocusLong:
    """The Fig. 5 depth-of-focus study, scaled up: three radii by three focal
    ranges, 1000 elements, 4000 range samples, one focal sweep per run."""

    name = "focus_long"
    radii = (1.0, 1.5, 2.0)
    ranges = (8.0, 12.0, 16.0)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.cases = []
        geometries = {}
        for radius in self.radii:
            for r in self.ranges:
                theta = math.acos(rng.uniform(-0.9, 0.9))
                phi = rng.uniform(0.0, 2 * math.pi)
                doc = (
                    f"kind = spiral_saa\nn = 1000\nradius = {radius!r}\nwavelength = 0.01\n"
                    f"focal = {_focal_text(r, theta, phi)}\nsweep = distance\n"
                    f"r_min = 5\nr_max = 60\nr_samples = 4000\n"
                )
                spec = scenario.parse_scenario(doc)
                if radius not in geometries:
                    geometries[radius] = scenario.build_geometry(spec)
                out = workdir / self.name / f"R{radius:g}_r{r:g}"
                self.cases.append((spec, geometries[radius], out))

    def operations(self):
        return [
            lambda spec=spec, out=out: scenario.run_scenario(spec, out, threads=1)
            for spec, _, out in self.cases
        ]

    def check_round(self, results) -> None:
        law = []
        for code, (spec, geometry, out) in zip(results, self.cases):
            if code is None:
                continue
            label = f"{self.name} R={spec.radius:g} r={spec.focals[0].r:g}"
            require(code == 0, f"{label}: run_scenario returned {code}")
            body = _read_csv(out / "focus_00.csv")
            f = spec.focals[0]
            dof = oracle.check_focus(
                label, body[:, 0], _db_to_power(body[:, 1]), (f.r, f.theta, f.phi),
                geometry.positions, geometry.normals, spec.wavelength, self.rng,
            )
            reported = _read_csv(out / "focus_metrics.csv")[0]
            require(oracle.close(float(reported[3]), dof, 1e-9),
                    f"{label}: focus_metrics.csv depth of focus {reported[3]!r}, recomputed {dof!r}")
            law.append((dof, spec.wavelength, f.r, spec.radius))
        if law:
            oracle.check_dof_law(self.name, law)


class RereadMetrics:
    """``spherebeam metrics`` over every beam CSV of an 8-beam angular run of
    16 elements; the run is made in set-up."""

    name = "reread_metrics"

    def __init__(self, seed: int, workdir: Path):
        self.spec = dataclasses.replace(scenario.load_preset("fig4_saa"), n=16)
        out = workdir / self.name
        # Keep the grids the run computes, which are the ones it writes.
        overlays = []
        sweep_overlay = scenario.multi_focal_overlay

        def keep(*args, **kwargs):
            overlays.append(sweep_overlay(*args, **kwargs))
            return overlays[-1]

        scenario.multi_focal_overlay = keep
        try:
            scenario.run_scenario(self.spec, out, threads=1)
        finally:
            scenario.multi_focal_overlay = sweep_overlay
        self.beams = [
            (out / f"beam_{i:02d}.csv", grid, metrics.angular_metrics(grid))
            for i, grid in enumerate(overlays[0].beams)
        ]

    @staticmethod
    def _metrics_command(path):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["metrics", str(path)])
        return code, stdout.getvalue()

    def operations(self):
        return [lambda path=path: self._metrics_command(path) for path, _, _ in self.beams]

    def check_round(self, results) -> None:
        for result, (path, grid, m) in zip(results, self.beams):
            if result is None:
                continue
            code, text = result
            label = f"{self.name} {path.name}"
            require(code == 0, f"{label}: exit code {code}")
            _, _, power = fileio.read_angular_csv(path)
            diff = np.abs(power - grid.power)
            require(bool(np.all(diff <= 1e-12 * grid.power)), f"{label}: grid read back differs by {diff.max()!r}")
            printed = dict(line.split(" = ", 1) for line in text.splitlines())
            exact = {"peak_theta": m.peak_theta, "peak_phi": m.peak_phi,
                     "pointing_err": m.pointing_error_rad, "peak_capture": m.peak_capture}
            for key, value in exact.items():
                require(float(printed[key]) == value, f"{label}: printed {key} {printed[key]}, in memory {value!r}")
            for key, value in (("hpbw_theta", m.hpbw_theta), ("hpbw_phi", m.hpbw_phi)):
                require(oracle.close(float(printed[key]), value, 1e-9),
                        f"{label}: printed {key} {printed[key]}, in memory {value!r}")
            require(abs(float(printed["psl_db"]) - m.peak_sidelobe_db) <= 1e-9,
                    f"{label}: printed psl_db {printed['psl_db']}, in memory {m.peak_sidelobe_db!r}")


WORKLOADS = {w.name: w for w in (OverlaySaa8, DenseSingleBeam, FocusLong, RereadMetrics)}
