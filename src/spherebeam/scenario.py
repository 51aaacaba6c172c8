"""Scenario documents: parsing, validation, emission, and full runs.

A scenario is a flat ``key = value`` text document. Keys are strict
(unknown keys are rejected), ``focal`` is the only repeatable key, and
angle tokens accept ``pi`` fractions like ``2pi/3`` so configurations can
state angles exactly. Each value meets the rule on its key's ``Scenario``
field as its line is parsed, and the rules across keys run after. Parsing
resolves every default, so emitting a parsed scenario and parsing it again
yields an equal value.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields, replace
from importlib import resources
from pathlib import Path

from . import fileio
from .errors import (
    AllBeamsInfeasible,
    NoVisibleElements,
    ParseError,
    ValidationError,
    require_choice,
    require_clearance,
    require_count,
    require_output_dir,
    require_positive,
    require_square,
    require_window,
)
from .geometry import ArrayGeometry, ArrayKind, SphericalPoint, kind_table
from .metrics import MIN_PEAK_CAPTURE, figures, isotropy_report, measure
from .sweep import _NORMALIZATIONS, AngularSweepSpec, distance_sweep, multi_focal_overlay

# the geometry fields a kind may leave out, with the value they then take
_GEOMETRY_DEFAULTS = {"ring_policy": "proportional"}

_PI_RE = re.compile(r"^([0-9]*\.?[0-9]+)?\s*pi\s*(?:/\s*([0-9]*\.?[0-9]+))?$")


def _parse_int(key: str, token: str, lineno: int | None) -> int:
    """The count rule: an integer of at least the key's minimum (see ``errors``)."""
    try:
        count = int(token)
    except ValueError:
        raise ParseError(f"{key} expects an integer, got {token!r}", line=lineno) from None
    return require_count(count, key)


def _parse_float(key: str, token: str, lineno: int | None) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{key} expects a number, got {token!r}", line=lineno) from None


def _parse_positive(key: str, token: str, lineno: int | None) -> float:
    return require_positive(_parse_float(key, token, lineno), key)


def _parse_text(key: str, token: str, lineno: int | None) -> str:
    return token


def _parse_ring_policy(key: str, value: str, lineno: int | None):
    if value == "proportional":
        return "proportional"
    if value.startswith("fixed:"):
        return _parse_int(key, value[len("fixed:") :].strip(), lineno)
    raise ValidationError(f"{key} must be 'proportional' or 'fixed:<count>', got {value!r}", field=key)


def _key(rule, flag_help: str | None = None, default=MISSING):
    """A scenario key's field: the rule ``rule(key, token, lineno)`` its text
    meets as its line is parsed, and the help text of its flag."""
    return field(default=default, metadata={"rule": rule, "help": flag_help})


@dataclass(frozen=True)
class Scenario:
    """Fully validated run configuration with every default resolved."""

    kind: str = _key(_parse_text)
    wavelength: float = _key(_parse_positive)
    focals: tuple[SphericalPoint, ...]
    # SWEEPS is read at call time, as it is defined below
    sweep: str = _key(lambda key, token, lineno: require_choice(token, SWEEPS, key))
    n: int | None = _key(_parse_int, "element count", None)
    radius: float | None = _key(_parse_positive, "sphere radius in meters", None)
    spacing: float | None = _key(_parse_positive, "planar lattice pitch in meters", None)
    n_rings: int | None = _key(_parse_int, "latitude ring count", None)
    ring_policy: str | int | None = _key(_parse_ring_policy, "'proportional' or 'fixed:<count>'", None)
    subdivision: int | None = _key(_parse_int, "icosahedron subdivision level", None)
    turns: float | None = _key(_parse_positive, "spiral curve turn count", None)
    theta_samples: int | None = _key(_parse_int, "theta sample count", None)
    phi_samples: int | None = _key(_parse_int, "phi sample count", None)
    eval_range: float | None = _key(_parse_positive, "probe range in meters", None)
    r_min: float | None = _key(_parse_positive, "sweep window start in meters", None)
    r_max: float | None = _key(_parse_positive, "sweep window end in meters", None)
    r_samples: int | None = _key(_parse_int, "range sample count", None)
    normalization: str = _key(
        lambda key, token, lineno: require_choice(token, _NORMALIZATIONS, key), "grid_max (default) or focal", "grid_max"
    )
    out: str | None = _key(_parse_text, default=None)


# each scalar key's field metadata: its value ``rule`` and its flag's ``help``
KEYS = {f.name: f.metadata for f in dataclass_fields(Scenario) if f.metadata}

# the keys some array kind takes, in field order
GEOMETRY_KEYS = tuple(key for key in KEYS if any(key in names for _, names in kind_table().values()))


def _parse_angle(token: str, lineno: int | None) -> float:
    """A plain number or a pi fraction like ``pi/6``, ``2pi/3``, ``0.5pi``."""
    token = token.strip()
    m = _PI_RE.match(token)
    if m is not None:
        divisor = float(m.group(2) or 1.0)
        if divisor == 0.0:
            raise ParseError(f"focal angle {token!r} divides by zero", line=lineno)
        return float(m.group(1) or 1.0) * math.pi / divisor
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"focal expects a number or pi fraction, got {token!r}", line=lineno) from None


def parse_focal_text(value: str, lineno: int | None = None) -> SphericalPoint:
    """Parse an ``r, theta, phi`` triple; angles accept pi fractions."""
    parts = value.split(",")
    if len(parts) != 3:
        raise ParseError(f"focal needs 'r, theta, phi', got {value!r}", line=lineno)
    r = _parse_float("focal", parts[0].strip(), lineno)
    theta = _parse_angle(parts[1], lineno)
    phi = _parse_angle(parts[2], lineno)
    try:
        return SphericalPoint(r, theta, phi)
    except ValueError as exc:
        raise ValidationError(str(exc), field="focal") from None


def parse_field(key: str, token: str, lineno: int | None = None):
    """Parse and check the value of one scalar scenario key by its field's rule."""
    if key not in KEYS:
        raise ParseError(f"unknown key {key!r}", line=lineno)
    return KEYS[key]["rule"](key, token, lineno)


def scenario_from_pairs(pairs) -> Scenario:
    """Parse and fully validate ``(lineno, key, value)`` triples; ``lineno`` is None for flags."""
    fields: dict[str, object] = {}
    focals: list[SphericalPoint] = []
    for lineno, key, value in pairs:
        if key == "focal":
            focals.append(parse_focal_text(value, lineno))
            continue
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        fields[key] = parse_field(key, value, lineno)
    if not fields and not focals:
        raise ParseError("empty scenario document")
    return _build_scenario(fields, tuple(focals))


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    return scenario_from_pairs(fileio.key_values(text.splitlines()))


def _validate_geometry_fields(fields: dict) -> tuple:
    """Check the kind and that exactly its fields are set, filling in defaults; return its ``kind_table`` row."""
    kinds = kind_table()
    kind = fields.get("kind")
    if kind is None:
        raise ValidationError("kind is required", field="kind")
    if kind not in kinds:
        raise ValidationError(f"unknown kind {kind!r}, expected one of {', '.join(kinds)}", field="kind")
    constructor, params = kinds[kind]
    for name in params:
        if fields.get(name) is None:
            fields[name] = _GEOMETRY_DEFAULTS.get(name)
        if fields[name] is None:
            raise ValidationError(f"kind {kind!r} requires {name}", field=name)
    for name in GEOMETRY_KEYS:
        if name not in params and fields.get(name) is not None:
            raise ValidationError(f"{name} is not used by kind {kind!r}", field=name)
    return constructor, params


def _build_scenario(fields: dict, focals: tuple[SphericalPoint, ...]) -> Scenario:
    """Cross-field checks and defaults; ``parse_field`` has checked each value alone."""
    _validate_geometry_fields(fields)
    if fields["kind"] == ArrayKind.UPA.value:
        require_square(fields["n"], "n")
    radius = fields.get("radius")

    if fields.get("wavelength") is None:
        raise ValidationError("wavelength is required", field="wavelength")

    if not focals:
        raise ValidationError("at least one focal point is required", field="focal")
    for point in focals:
        require_clearance(point.r, radius, "focal")

    sweep = fields.get("sweep")
    if sweep is None:
        raise ValidationError("sweep is required", field="sweep")
    run = SWEEPS[sweep]()
    for other in SWEEPS.values():
        for key in other.keys:
            if key in fields and key not in run.keys:
                raise ValidationError(f"{key} applies only to {other.noun} sweeps", field=key)
    fields = {**run.keys, **fields}
    run.check(fields, focals, radius)
    return Scenario(focals=focals, **fields)


def geometry_from_fields(kind: str, **fields) -> ArrayGeometry:
    """Build a geometry from loose ``GEOMETRY_KEYS`` fields with scenario-level validation.

    The constructors check each value; every error is a ``ValidationError``.
    """
    unknown = set(fields) - set(GEOMETRY_KEYS)
    if unknown:
        raise TypeError(f"unknown geometry fields: {', '.join(sorted(unknown))}")
    fields["kind"] = kind
    constructor, params = _validate_geometry_fields(fields)
    return constructor(*(fields[name] for name in params))


def build_geometry(scenario: Scenario) -> ArrayGeometry:
    return geometry_from_fields(scenario.kind, **{key: getattr(scenario, key) for key in GEOMETRY_KEYS})


def _entries(scenario: Scenario, keys) -> list[tuple[str, str]]:
    """Text pairs of the set fields among ``keys``, in order: floats through
    ``fileio.fmt``, a fixed ring count as ``fixed:<n>``, the rest through ``str``."""
    entries = []
    for key in keys:
        value = getattr(scenario, key)
        if value is None:
            continue
        if key == "ring_policy" and value != "proportional":
            value = f"fixed:{value}"
        elif isinstance(value, float):
            value = fileio.fmt(value)
        entries.append((key, str(value)))
    return entries


def _scalar_entries(scenario: Scenario) -> list[tuple[str, str]]:
    return _entries(scenario, ("kind", *GEOMETRY_KEYS, "wavelength"))


def _sweep_entries(scenario: Scenario) -> list[tuple[str, str]]:
    return _entries(scenario, ("sweep", *SWEEPS[scenario.sweep].keys, "normalization"))


def _focal_text(point: SphericalPoint) -> str:
    return f"{fileio.fmt(point.r)}, {fileio.fmt(point.theta)}, {fileio.fmt(point.phi)}"


def emit_scenario(scenario: Scenario) -> str:
    """Canonical text form; parsing it back reproduces the scenario."""
    entries = [
        *_scalar_entries(scenario),
        *(("focal", _focal_text(point)) for point in scenario.focals),
        *_sweep_entries(scenario),
        *_entries(scenario, ("out",)),
    ]
    return "".join(f"{k} = {v}\n" for k, v in entries)


def _preset_files() -> dict:
    """The ``.cfg`` files shipped with the package, by preset name."""
    root = resources.files("spherebeam") / "presets"
    return {entry.name[: -len(".cfg")]: entry for entry in root.iterdir() if entry.name.endswith(".cfg")}


def preset_names() -> tuple[str, ...]:
    """Names of the scenario presets shipped with the package."""
    return tuple(sorted(_preset_files()))


def load_preset(name: str) -> Scenario:
    """Parse a shipped preset by name, one of ``preset_names``; no path is built from ``name``."""
    files = _preset_files()
    if name not in files:
        raise ValidationError(f"unknown preset {name!r}, expected one of {', '.join(sorted(files))}")
    return parse_scenario(files[name].read_text(encoding="utf-8"))


class _AngleRun:
    """The parts of an angular run: one shared sweep for every beam, a
    ``beam_NN`` file pair per beam, then the overlay and the isotropy figures.
    ``sweep`` keeps the overlay grid for ``finish``."""

    _spec = AngularSweepSpec()
    keys = {"theta_samples": _spec.theta_samples, "phi_samples": _spec.phi_samples, "eval_range": _spec.eval_range_m}
    noun = "angular"
    help = "theta x phi sweep at a fixed probe range"
    stem = "beam"
    counted = "beams"

    def check(self, fields: dict, focals, radius) -> None:
        require_clearance(fields["eval_range"], radius, "eval_range")

    def sweep(self, s: Scenario, geometry: ArrayGeometry, threads) -> list[tuple[int, object]]:
        spec = AngularSweepSpec(theta_samples=s.theta_samples, phi_samples=s.phi_samples, eval_range_m=s.eval_range)
        self.overlay = multi_focal_overlay(
            geometry, s.wavelength, s.focals, spec, normalization=s.normalization, threads=threads
        )
        kept = [i for i, focal in enumerate(s.focals) if focal not in self.overlay.skipped]
        return list(zip(kept, self.overlay.beams))

    def step(self, out: Path, stem: str, beam, meta: dict):
        fileio.write_angular_csv(out / f"{stem}.csv", beam)
        meta["peak_capture"] = fileio.fmt(beam.peak_capture)
        fileio.write_meta(out / f"{stem}.meta", meta)
        m = measure(beam)
        text = f"(theta {math.degrees(beam.focal.theta):7.2f}, phi {math.degrees(beam.focal.phi):7.2f}) deg"
        if m.degenerate:
            text += "  degenerate pattern"
        else:
            text += (
                f"  err {math.degrees(m.pointing_error_rad):6.3f} deg"
                f"  hpbw ({math.degrees(m.hpbw_theta):6.3f}, {math.degrees(m.hpbw_phi):6.3f}) deg"
                f"  psl {m.peak_sidelobe_db:7.2f} dB"
                f"  capture {m.peak_capture:5.3f}"
                + ("  (main lobe not sampled)" if m.peak_capture < MIN_PEAK_CAPTURE else "")
            )
        return m, text

    def finish(self, s: Scenario, out: Path, meta: dict, rows, measured):
        fileio.write_angular_csv(out / "overlay.csv", self.overlay)
        overlay_meta = dict(meta)
        for index, focal in enumerate(s.focals):
            overlay_meta[f"focal_{index}"] = _focal_text(focal)
        fileio.write_meta(out / "overlay.meta", overlay_meta)
        fileio.write_metrics_csv(out / "metrics.csv", rows)
        usable = [m for m in measured if not m.degenerate]
        if len(usable) < 2:
            return [], []
        iso = isotropy_report(usable)
        entries = [(f"isotropy.{key}", value) for key, value in fileio.metric_entries(iso)]
        line = (
            f"isotropy: hpbw_theta ratio {iso.hpbw_theta_ratio:.4f}, "
            f"hpbw_phi ratio {iso.hpbw_phi_ratio:.4f}, "
            f"sidelobe spread {iso.sidelobe_spread_db:.2f} dB over {iso.n_beams} beams"
        )
        return entries, ["", line]

    def describe(self, s: Scenario, skipped) -> tuple[str, str]:
        return (
            f"angle, {s.theta_samples} x {s.phi_samples} cells, "
            f"probe range {fileio.fmt(s.eval_range)} m, normalization {s.normalization}",
            "; ".join(f"#{i} (theta {math.degrees(s.focals[i].theta):.1f} deg)" for i in skipped),
        )


class _DistanceRun:
    """The parts of a distance run: one range sweep per focal point and a
    ``focus_NN`` file pair per pattern."""

    _args = inspect.signature(distance_sweep).parameters
    keys = {"r_min": _args["r_min"].default, "r_max": _args["r_max"].default, "r_samples": _args["samples"].default}
    noun = "distance"
    help = "range sweep along the focal direction"
    stem = "focus"
    counted = "patterns"

    def check(self, fields: dict, focals, radius) -> None:
        if fields.get("normalization") == "focal":
            raise ValidationError("normalization 'focal' applies only to angular sweeps", field="normalization")
        require_window(fields["r_min"], fields["r_max"], *(point.r for point in focals))
        require_clearance(fields["r_min"], radius, "r_min")

    def sweep(self, s: Scenario, geometry: ArrayGeometry, threads) -> list[tuple[int, object]]:
        patterns = []
        for index, focal in enumerate(s.focals):
            try:
                pattern = distance_sweep(geometry, s.wavelength, focal, s.r_min, s.r_max, s.r_samples, threads=threads)
            except NoVisibleElements:
                continue
            patterns.append((index, pattern))
        if not patterns:
            raise AllBeamsInfeasible("every focal point was skipped, no distance pattern to emit")
        return patterns

    def step(self, out: Path, stem: str, pattern, meta: dict):
        fileio.write_distance_csv(out / f"{stem}.csv", pattern)
        fileio.write_meta(out / f"{stem}.meta", meta)
        m = measure(pattern)
        if m.degenerate:
            text = f"{fileio.fmt(pattern.focal.r)} m, degenerate pattern"
        else:
            text = (
                f"{fileio.fmt(pattern.focal.r)} m"
                f"  peak {m.peak_r_m:.3f} m  err {m.focal_error_m:.3f} m"
                f"  depth {m.depth_of_focus_m:.3f} m" + (" (one-sided)" if m.one_sided else "")
            )
        return m, text

    def finish(self, s: Scenario, out: Path, meta: dict, rows, measured):
        fileio.write_focus_csv(out / "focus_metrics.csv", rows)
        return [], []

    def describe(self, s: Scenario, skipped) -> tuple[str, str]:
        return (
            f"distance, window [{fileio.fmt(s.r_min)}, {fileio.fmt(s.r_max)}] m, {s.r_samples} samples",
            ", ".join(f"#{i}" for i in skipped),
        )


# each sweep kind's one record, its run class: its scenario keys in order with
# the library's defaults, its noun in messages, its subcommand's help, its
# range rule and run stages
SWEEPS = {"angle": _AngleRun, "distance": _DistanceRun}


def _start_output(scenario: Scenario, geometry: ArrayGeometry, out: Path) -> None:
    """Create the output directory with ``geometry.csv`` and ``scenario.cfg``.

    Called only once the sweep has succeeded, so that a failed sweep
    leaves no partial directory.
    """
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_geometry_csv(out / "geometry.csv", geometry)
    # every line of the emitted text ends with LF, so the last piece is empty
    lines = emit_scenario(replace(scenario, out=str(out))).split("\n")[:-1]
    fileio.write_lines(out / "scenario.cfg", lines)


def _geometry_blurb(scenario: Scenario, geometry: ArrayGeometry) -> str:
    bits = [f"{scenario.kind}, {geometry.n} elements"]
    if geometry.radius_m is not None:
        bits.append(f"radius {fileio.fmt(geometry.radius_m)} m")
    if geometry.spacing_m is not None:
        bits.append(f"spacing {fileio.fmt(geometry.spacing_m)} m")
    return ", ".join(bits)


def run_scenario(scenario: Scenario, out_dir=None, *, threads: int | None = None) -> int:
    """Run a scenario end to end, emitting all files into the output directory.

    The stages run in order: geometry, sweep, output directory, one
    write-and-measure step per evaluated focal point, the metrics table
    with any run-level files, then ``metrics.txt`` and ``summary.txt``.
    The sweep kind's run class in ``SWEEPS`` supplies ``sweep``, ``step``,
    ``finish`` and ``describe``; the rest is shared.

    Returns 0 when every focal point produced a pattern and 2 when some were
    skipped for lacking visible elements. Hard failures raise; a failure in
    the sweep leaves no output directory behind.
    """
    out = Path(require_output_dir(out_dir if out_dir is not None else scenario.out))
    if threads is not None:
        require_count(threads, "threads")
    run = SWEEPS[scenario.sweep]()

    geometry = build_geometry(scenario)
    patterns = run.sweep(scenario, geometry, threads)
    _start_output(scenario, geometry, out)

    evaluated = {index for index, _ in patterns}
    skipped = [i for i in range(len(scenario.focals)) if i not in evaluated]
    skipped_entry = ("skipped", ",".join(str(i) for i in skipped))
    meta = [*_scalar_entries(scenario), ("n_elements", str(geometry.n)), *_sweep_entries(scenario), skipped_entry]
    per_focal, rows, lines = [], [], []
    for index, pattern in patterns:
        focal = pattern.focal
        stem = f"{run.stem}_{index:02d}"
        m, text = run.step(out, stem, pattern, dict(meta, focal=_focal_text(focal)))
        per_focal.append((index, m))
        rows.append((focal.theta, focal.phi, *(getattr(m, name) for _, name in figures(m))))
        lines.append(f"{run.stem} {index:02d}: focal {text}")

    extra, extra_lines = run.finish(scenario, out, meta, rows, [m for _, m in per_focal])

    report = [
        (f"{run.stem}_{index:02d}.{key}", value)
        for index, m in per_focal
        for key, value in fileio.metric_entries(m)
    ]
    report.extend(extra)
    report.append(skipped_entry)
    fileio.write_meta(out / "metrics.txt", dict(report))
    sweep_text, skipped_text = run.describe(scenario, skipped)
    fileio.write_lines(
        out / "summary.txt",
        [
            "spherebeam run summary",
            "======================",
            f"geometry: {_geometry_blurb(scenario, geometry)}",
            f"wavelength: {fileio.fmt(scenario.wavelength)} m",
            f"sweep: {sweep_text}",
            (
                f"{run.counted}: {len(scenario.focals)} requested, {len(per_focal)} evaluated, "
                f"{len(skipped)} skipped"
            ),
            "",
            *lines,
            *extra_lines,
            "",
            f"skipped focals: {skipped_text or 'none'}",
        ],
    )
    return 2 if skipped else 0
