"""Scenario documents: parsing, validation, emission, and full runs.

A scenario is a flat ``key = value`` text document. Keys are strict
(unknown keys are rejected), ``focal`` is the only repeatable key, and
angle tokens accept ``pi`` fractions like ``2pi/3`` so configurations can
state angles exactly. Parsing resolves every default, so emitting a
parsed scenario and parsing it again yields an equal value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from . import fileio
from .errors import (
    AllBeamsInfeasible,
    DegeneratePattern,
    NoVisibleElements,
    ParseError,
    ValidationError,
    require_clearance,
    require_count,
    require_positive,
    require_square,
    require_window,
)
from .geometry import (
    ArrayGeometry,
    ArrayKind,
    SphericalPoint,
    golden_spiral_saa,
    polyhedral_saa,
    ring_saa,
    spiral_curve_saa,
    upa,
)
from .metrics import (
    MIN_PEAK_CAPTURE,
    BeamMetrics,
    FocusMetrics,
    angular_metrics,
    focus_metrics,
    isotropy_report,
)
from .sweep import AngularSweepSpec, distance_sweep, multi_focal_overlay

NAN = float("nan")

_KINDS = tuple(k.value for k in ArrayKind)

_KIND_PARAMS = {
    ArrayKind.UPA.value: ("n", "spacing"),
    ArrayKind.SPIRAL.value: ("n", "radius"),
    ArrayKind.RING.value: ("n_rings", "radius"),
    ArrayKind.POLYHEDRAL.value: ("subdivision", "radius"),
    ArrayKind.SPIRAL_CURVE.value: ("n", "turns", "radius"),
}

GEOMETRY_KEYS = ("n", "radius", "spacing", "n_rings", "ring_policy", "subdivision", "turns")

# integer keys with their smallest allowed value; every float key must be
# positive and finite
_INT_KEYS = {
    "n": 1, "n_rings": 1, "subdivision": 0, "theta_samples": 2, "phi_samples": 2, "r_samples": 2,
}
_FLOAT_KEYS = frozenset({"radius", "spacing", "turns", "wavelength", "eval_range", "r_min", "r_max"})
_STR_KEYS = frozenset({"kind", "sweep", "normalization", "out"})

_ANGLE_KEYS = ("theta_samples", "phi_samples", "eval_range")
_DISTANCE_KEYS = ("r_min", "r_max", "r_samples")

_PI_RE = re.compile(r"^([0-9]*\.?[0-9]+)?\s*pi\s*(?:/\s*([0-9]*\.?[0-9]+))?$")


@dataclass(frozen=True)
class Scenario:
    """Fully validated run configuration with every default resolved."""

    kind: str
    wavelength: float
    focals: tuple[SphericalPoint, ...]
    sweep: str
    n: int | None = None
    radius: float | None = None
    spacing: float | None = None
    n_rings: int | None = None
    ring_policy: str | int | None = None
    subdivision: int | None = None
    turns: float | None = None
    theta_samples: int | None = None
    phi_samples: int | None = None
    eval_range: float | None = None
    r_min: float | None = None
    r_max: float | None = None
    r_samples: int | None = None
    normalization: str = "grid_max"
    out: str | None = None


def _parse_int(key: str, token: str, lineno: int | None) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{key} expects an integer, got {token!r}", line=lineno) from None


def _parse_float(key: str, token: str, lineno: int | None) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{key} expects a number, got {token!r}", line=lineno) from None


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


def _parse_focal(value: str, lineno: int | None) -> SphericalPoint:
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


def _parse_ring_policy(value: str, lineno: int | None):
    if value == "proportional":
        return "proportional"
    if value.startswith("fixed:"):
        count = _parse_int("ring_policy", value[len("fixed:") :].strip(), lineno)
        return require_count(count, "ring_policy")
    raise ValidationError(
        f"ring_policy must be 'proportional' or 'fixed:<count>', got {value!r}",
        field="ring_policy",
    )


def parse_field(key: str, token: str, lineno: int | None = None):
    """Parse and check the value of one scalar scenario key."""
    if key in _INT_KEYS:
        return require_count(_parse_int(key, token, lineno), key, _INT_KEYS[key])
    if key in _FLOAT_KEYS:
        return require_positive(_parse_float(key, token, lineno), key)
    if key in _STR_KEYS:
        return token
    if key == "ring_policy":
        return _parse_ring_policy(token, lineno)
    raise ParseError(f"unknown key {key!r}", line=lineno)


def parse_focal_text(text: str) -> SphericalPoint:
    """Parse an ``r, theta, phi`` triple; angles accept pi fractions."""
    return _parse_focal(text, None)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    fields: dict[str, object] = {}
    focals: list[SphericalPoint] = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        saw_content = True
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "focal":
            focals.append(_parse_focal(value, lineno))
            continue
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        fields[key] = parse_field(key, value, lineno)
    if not saw_content:
        raise ParseError("empty scenario document")
    return _build_scenario(fields, tuple(focals))


def _validate_geometry_fields(fields: dict) -> str:
    kind = fields.get("kind")
    if kind is None:
        raise ValidationError("kind is required", field="kind")
    if kind not in _KINDS:
        raise ValidationError(
            f"unknown kind {kind!r}, expected one of {', '.join(_KINDS)}", field="kind"
        )
    required = _KIND_PARAMS[kind]
    allowed = set(required)
    if kind == ArrayKind.RING.value:
        allowed.add("ring_policy")
    for name in required:
        if fields.get(name) is None:
            raise ValidationError(f"kind {kind!r} requires {name}", field=name)
    for name in GEOMETRY_KEYS:
        if name not in allowed and fields.get(name) is not None:
            raise ValidationError(f"{name} is not used by kind {kind!r}", field=name)
    return kind


def _build_scenario(fields: dict, focals: tuple[SphericalPoint, ...]) -> Scenario:
    """Cross-field checks; ``parse_field`` has checked each value alone."""
    kind = _validate_geometry_fields(fields)
    if kind == ArrayKind.UPA.value:
        require_square(fields["n"], "n")
    radius = fields.get("radius")

    wavelength = fields.get("wavelength")
    if wavelength is None:
        raise ValidationError("wavelength is required", field="wavelength")

    if not focals:
        raise ValidationError("at least one focal point is required", field="focal")
    for point in focals:
        require_clearance(point.r, radius, "focal")

    sweep = fields.get("sweep")
    if sweep is None:
        raise ValidationError("sweep is required", field="sweep")
    if sweep not in ("angle", "distance"):
        raise ValidationError(
            f"sweep must be 'angle' or 'distance', got {sweep!r}", field="sweep"
        )

    normalization = fields.get("normalization", "grid_max")
    if normalization not in ("grid_max", "focal"):
        raise ValidationError(
            f"normalization must be 'grid_max' or 'focal', got {normalization!r}",
            field="normalization",
        )

    if sweep == "angle":
        for key in _DISTANCE_KEYS:
            if fields.get(key) is not None:
                raise ValidationError(f"{key} applies only to distance sweeps", field=key)
        eval_range = fields.get("eval_range", 30.0)
        require_clearance(eval_range, radius, "eval_range")
        angle_values = (fields.get("theta_samples", 181), fields.get("phi_samples", 181), eval_range)
        distance_values = (None, None, None)
    else:
        if normalization == "focal":
            raise ValidationError(
                "normalization 'focal' applies only to angular sweeps", field="normalization"
            )
        for key in _ANGLE_KEYS:
            if fields.get(key) is not None:
                raise ValidationError(f"{key} applies only to angular sweeps", field=key)
        r_min = fields.get("r_min", 5.0)
        r_max = fields.get("r_max", 100.0)
        require_window(r_min, r_max, *(point.r for point in focals))
        require_clearance(r_min, radius, "r_min")
        angle_values = (None, None, None)
        distance_values = (r_min, r_max, fields.get("r_samples", 960))

    ring_policy = fields.get("ring_policy")
    if kind == ArrayKind.RING.value and ring_policy is None:
        ring_policy = "proportional"

    return Scenario(
        kind=kind,
        wavelength=wavelength,
        focals=focals,
        sweep=sweep,
        n=fields.get("n"),
        radius=radius,
        spacing=fields.get("spacing"),
        n_rings=fields.get("n_rings"),
        ring_policy=ring_policy,
        subdivision=fields.get("subdivision"),
        turns=fields.get("turns"),
        theta_samples=angle_values[0],
        phi_samples=angle_values[1],
        eval_range=angle_values[2],
        r_min=distance_values[0],
        r_max=distance_values[1],
        r_samples=distance_values[2],
        normalization=normalization,
        out=fields.get("out"),
    )


def geometry_from_fields(
    kind: str,
    *,
    n: int | None = None,
    radius: float | None = None,
    spacing: float | None = None,
    n_rings: int | None = None,
    ring_policy: str | int | None = None,
    subdivision: int | None = None,
    turns: float | None = None,
) -> ArrayGeometry:
    """Build a geometry from loose fields with scenario-level validation.

    The constructors check each value; every error is a ``ValidationError``.
    """
    fields = {
        "kind": kind,
        "n": n,
        "radius": radius,
        "spacing": spacing,
        "n_rings": n_rings,
        "ring_policy": ring_policy,
        "subdivision": subdivision,
        "turns": turns,
    }
    _validate_geometry_fields(fields)
    if kind == ArrayKind.UPA.value:
        return upa(n, spacing)
    if kind == ArrayKind.SPIRAL.value:
        return golden_spiral_saa(n, radius)
    if kind == ArrayKind.RING.value:
        return ring_saa(n_rings, ring_policy if ring_policy is not None else "proportional", radius)
    if kind == ArrayKind.POLYHEDRAL.value:
        return polyhedral_saa(subdivision, radius)
    return spiral_curve_saa(n, turns, radius)


def build_geometry(scenario: Scenario) -> ArrayGeometry:
    return geometry_from_fields(
        scenario.kind,
        n=scenario.n,
        radius=scenario.radius,
        spacing=scenario.spacing,
        n_rings=scenario.n_rings,
        ring_policy=scenario.ring_policy,
        subdivision=scenario.subdivision,
        turns=scenario.turns,
    )


def _format_value(key: str, value) -> str:
    if key in _INT_KEYS or isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fileio.fmt(value)
    return str(value)


def _scalar_entries(scenario: Scenario) -> list[tuple[str, str]]:
    """Ordered scalar key/value text pairs, omitting unset fields."""
    entries: list[tuple[str, str]] = [("kind", scenario.kind)]
    for key in GEOMETRY_KEYS:
        value = getattr(scenario, key)
        if value is None:
            continue
        if key == "ring_policy":
            entries.append((key, value if value == "proportional" else f"fixed:{value}"))
        else:
            entries.append((key, _format_value(key, value)))
    entries.append(("wavelength", fileio.fmt(scenario.wavelength)))
    return entries


def _sweep_entries(scenario: Scenario) -> list[tuple[str, str]]:
    entries: list[tuple[str, str]] = [("sweep", scenario.sweep)]
    keys = _ANGLE_KEYS if scenario.sweep == "angle" else _DISTANCE_KEYS
    for key in keys:
        entries.append((key, _format_value(key, getattr(scenario, key))))
    entries.append(("normalization", scenario.normalization))
    return entries


def _focal_text(point: SphericalPoint) -> str:
    return f"{fileio.fmt(point.r)}, {fileio.fmt(point.theta)}, {fileio.fmt(point.phi)}"


def emit_scenario(scenario: Scenario) -> str:
    """Canonical text form; parsing it back reproduces the scenario."""
    lines = [f"{k} = {v}" for k, v in _scalar_entries(scenario)]
    for point in scenario.focals:
        lines.append(f"focal = {_focal_text(point)}")
    lines.extend(f"{k} = {v}" for k, v in _sweep_entries(scenario))
    if scenario.out is not None:
        lines.append(f"out = {scenario.out}")
    return "\n".join(lines) + "\n"


def preset_names() -> tuple[str, ...]:
    """Names of the scenario presets shipped with the package."""
    root = resources.files("spherebeam") / "presets"
    names = sorted(
        entry.name[: -len(".cfg")]
        for entry in root.iterdir()
        if entry.name.endswith(".cfg")
    )
    return tuple(names)


def load_preset(name: str) -> Scenario:
    """Parse a shipped preset by name (see ``preset_names``)."""
    path = resources.files("spherebeam") / "presets" / f"{name}.cfg"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        known = ", ".join(preset_names())
        raise ValidationError(f"unknown preset {name!r}, expected one of {known}") from None
    return parse_scenario(text)


def _meta_entries(scenario: Scenario, geometry: ArrayGeometry, skipped_indices) -> list[tuple[str, str]]:
    entries = _scalar_entries(scenario)
    entries.append(("n_elements", str(geometry.n)))
    entries.extend(_sweep_entries(scenario))
    entries.append(("skipped", ",".join(str(i) for i in skipped_indices)))
    return entries


def _beam_metrics_or_degenerate(grid, focal) -> BeamMetrics:
    try:
        return angular_metrics(grid, focal)
    except DegeneratePattern:
        return BeamMetrics(
            NAN, NAN, NAN, NAN, NAN, NAN, degenerate=True, peak_capture=grid.peak_capture
        )


def _focus_metrics_or_degenerate(pattern) -> FocusMetrics:
    try:
        return focus_metrics(pattern)
    except DegeneratePattern:
        return FocusMetrics(NAN, NAN, NAN, one_sided=False)


def run_scenario(scenario: Scenario, out_dir=None, *, threads: int | None = None) -> int:
    """Run a scenario end to end, emitting all files into the output directory.

    Returns 0 when every focal point produced a beam and 2 when some were
    skipped for lacking visible elements. Hard failures raise; a failure in
    the sweep leaves no output directory behind.
    """
    target = out_dir if out_dir is not None else scenario.out
    if target is None:
        raise ValidationError("an output directory is required", field="out")
    if threads is not None:
        require_count(threads, "threads")
    out = Path(target)
    geometry = build_geometry(scenario)
    if scenario.sweep == "angle":
        skipped_indices = _run_angular(scenario, geometry, out, threads)
    else:
        skipped_indices = _run_distance(scenario, geometry, out, threads)
    return 2 if skipped_indices else 0


def _start_output(scenario: Scenario, geometry: ArrayGeometry, out: Path) -> None:
    """Create the output directory with ``geometry.csv`` and ``scenario.cfg``.

    Called only once the sweep has succeeded, so that a failed sweep
    leaves no partial directory.
    """
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_geometry_csv(out / "geometry.csv", geometry)
    effective = replace(scenario, out=str(out))
    with open(out / "scenario.cfg", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(emit_scenario(effective))


def _run_angular(scenario: Scenario, geometry: ArrayGeometry, out: Path, threads) -> list[int]:
    spec = AngularSweepSpec(
        theta_samples=scenario.theta_samples,
        phi_samples=scenario.phi_samples,
        eval_range_m=scenario.eval_range,
    )
    overlay = multi_focal_overlay(
        geometry,
        scenario.wavelength,
        scenario.focals,
        spec,
        normalization=scenario.normalization,
        threads=threads,
    )
    _start_output(scenario, geometry, out)
    skipped = set(overlay.skipped)
    skipped_indices = [i for i, f in enumerate(scenario.focals) if f in skipped]

    meta = _meta_entries(scenario, geometry, skipped_indices)
    beams = iter(overlay.beams)
    rows = []
    per_beam: list[tuple[int, BeamMetrics]] = []
    lines = []
    for index, focal in enumerate(scenario.focals):
        if index in skipped_indices:
            continue
        beam = next(beams)
        stem = f"beam_{index:02d}"
        fileio.write_angular_csv(out / f"{stem}.csv", beam)
        beam_meta = dict(meta)
        beam_meta["focal"] = _focal_text(focal)
        beam_meta["peak_capture"] = fileio.fmt(beam.peak_capture)
        fileio.write_meta(out / f"{stem}.meta", beam_meta)
        m = _beam_metrics_or_degenerate(beam, focal)
        per_beam.append((index, m))
        rows.append(
            (focal.theta, focal.phi, m.peak_theta, m.peak_phi,
             m.pointing_error_rad, m.hpbw_theta, m.hpbw_phi, m.peak_sidelobe_db)
        )
        if m.degenerate:
            lines.append(
                f"beam {index:02d}: focal theta {math.degrees(focal.theta):.2f} deg, degenerate pattern"
            )
            continue
        lines.append(
            f"beam {index:02d}: focal (theta {math.degrees(focal.theta):7.2f},"
            f" phi {math.degrees(focal.phi):7.2f}) deg"
            f"  err {math.degrees(m.pointing_error_rad):6.3f} deg"
            f"  hpbw ({math.degrees(m.hpbw_theta):6.3f}, {math.degrees(m.hpbw_phi):6.3f}) deg"
            f"  psl {m.peak_sidelobe_db:7.2f} dB"
            f"  capture {m.peak_capture:5.3f}"
            + ("  (main lobe not sampled)" if m.peak_capture < MIN_PEAK_CAPTURE else "")
        )

    fileio.write_angular_csv(out / "overlay.csv", overlay)
    overlay_meta = dict(meta)
    for index, focal in enumerate(scenario.focals):
        overlay_meta[f"focal_{index}"] = _focal_text(focal)
    fileio.write_meta(out / "overlay.meta", overlay_meta)

    fileio.write_metrics_csv(out / "metrics.csv", rows)

    extra = []
    usable = [m for _, m in per_beam if not m.degenerate]
    if len(usable) >= 2:
        iso = isotropy_report(usable)
        extra = [
            ("isotropy.hpbw_theta_ratio", fileio.fmt(iso.hpbw_theta_ratio)),
            ("isotropy.hpbw_phi_ratio", fileio.fmt(iso.hpbw_phi_ratio)),
            ("isotropy.sidelobe_spread_db", fileio.fmt(iso.sidelobe_spread_db)),
        ]
        lines.append("")
        lines.append(
            f"isotropy: hpbw_theta ratio {iso.hpbw_theta_ratio:.4f}, "
            f"hpbw_phi ratio {iso.hpbw_phi_ratio:.4f}, "
            f"sidelobe spread {iso.sidelobe_spread_db:.2f} dB over {iso.n_beams} beams"
        )
    _write_reports(
        scenario, geometry, out,
        stem="beam",
        per_focal=per_beam,
        extra=extra,
        sweep=(
            f"angle, {scenario.theta_samples} x {scenario.phi_samples} cells, "
            f"probe range {fileio.fmt(scenario.eval_range)} m, normalization {scenario.normalization}"
        ),
        counted="beams",
        lines=lines,
        skipped_indices=skipped_indices,
        skipped="; ".join(
            f"#{i} (theta {math.degrees(scenario.focals[i].theta):.1f} deg)" for i in skipped_indices
        ),
    )
    return skipped_indices


def _run_distance(scenario: Scenario, geometry: ArrayGeometry, out: Path, threads) -> list[int]:
    patterns: list[tuple[int, object]] = []
    skipped_indices: list[int] = []
    for index, focal in enumerate(scenario.focals):
        try:
            pattern = distance_sweep(
                geometry,
                scenario.wavelength,
                focal,
                scenario.r_min,
                scenario.r_max,
                scenario.r_samples,
                threads=threads,
            )
        except NoVisibleElements:
            skipped_indices.append(index)
            continue
        patterns.append((index, pattern))
    if not patterns:
        raise AllBeamsInfeasible("every focal point was skipped, no distance pattern to emit")
    _start_output(scenario, geometry, out)

    meta = _meta_entries(scenario, geometry, skipped_indices)
    rows = []
    per_focal: list[tuple[int, FocusMetrics]] = []
    lines = []
    for index, pattern in patterns:
        focal = scenario.focals[index]
        stem = f"focus_{index:02d}"
        fileio.write_distance_csv(out / f"{stem}.csv", pattern)
        pattern_meta = dict(meta)
        pattern_meta["focal"] = _focal_text(focal)
        fileio.write_meta(out / f"{stem}.meta", pattern_meta)
        m = _focus_metrics_or_degenerate(pattern)
        per_focal.append((index, m))
        rows.append(
            (focal.theta, focal.phi, m.peak_r_m, m.depth_of_focus_m, m.focal_error_m,
             m.one_sided)
        )
        if math.isnan(m.peak_r_m):
            lines.append(f"focus {index:02d}: focal {fileio.fmt(focal.r)} m, degenerate pattern")
            continue
        side = " (one-sided)" if m.one_sided else ""
        lines.append(
            f"focus {index:02d}: focal {fileio.fmt(focal.r)} m"
            f"  peak {m.peak_r_m:.3f} m  err {m.focal_error_m:.3f} m"
            f"  depth {m.depth_of_focus_m:.3f} m{side}"
        )

    fileio.write_focus_csv(out / "focus_metrics.csv", rows)

    _write_reports(
        scenario, geometry, out,
        stem="focus",
        per_focal=per_focal,
        extra=[],
        sweep=(
            f"distance, window [{fileio.fmt(scenario.r_min)}, {fileio.fmt(scenario.r_max)}] m, "
            f"{scenario.r_samples} samples"
        ),
        counted="patterns",
        lines=lines,
        skipped_indices=skipped_indices,
        skipped=", ".join("#" + str(i) for i in skipped_indices),
    )
    return skipped_indices


def _geometry_blurb(scenario: Scenario, geometry: ArrayGeometry) -> str:
    bits = [f"{scenario.kind}, {geometry.n} elements"]
    if geometry.radius_m is not None:
        bits.append(f"radius {fileio.fmt(geometry.radius_m)} m")
    if geometry.spacing_m is not None:
        bits.append(f"spacing {fileio.fmt(geometry.spacing_m)} m")
    return ", ".join(bits)


def _write_reports(
    scenario, geometry, out: Path, *,
    stem, per_focal, extra, sweep, counted, lines, skipped_indices, skipped,
) -> None:
    """``metrics.txt`` and ``summary.txt`` for either sweep kind.

    ``per_focal`` pairs each evaluated focal index with its metrics, which
    ``metrics.txt`` lists under ``<stem>_NN.``; ``extra`` adds entries
    after them. ``summary.txt`` names the ``sweep`` and the ``counted``
    patterns, then holds ``lines`` and the ``skipped`` focals.
    """
    report = [
        (f"{stem}_{index:02d}.{key}", value)
        for index, m in per_focal
        for key, value in fileio.metric_entries(m)
    ]
    report.extend(extra)
    report.append(("skipped", ",".join(str(i) for i in skipped_indices)))
    fileio.write_meta(out / "metrics.txt", dict(report))
    fileio.write_lines(
        out / "summary.txt",
        [
            "spherebeam run summary",
            "======================",
            f"geometry: {_geometry_blurb(scenario, geometry)}",
            f"wavelength: {fileio.fmt(scenario.wavelength)} m",
            f"sweep: {sweep}",
            (
                f"{counted}: {len(scenario.focals)} requested, {len(per_focal)} evaluated, "
                f"{len(skipped_indices)} skipped"
            ),
            "",
            *lines,
            "",
            f"skipped focals: {skipped or 'none'}",
        ],
    )
