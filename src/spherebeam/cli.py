"""Command line entry point.

Subcommands: ``geometry`` emits a layout CSV, ``pattern angle`` and
``pattern distance`` run sweeps, ``metrics`` recomputes figures from an
emitted pattern CSV, ``run`` executes a preset or scenario file, and
``preset list`` names the shipped configurations. Emitting commands all
require ``--out``. Every flag value but a path is one line, then stripped
(``_flag_pairs``). Flags and the scenario keys of a ``.meta`` sidecar go
to the scenario's value parser as key-value pairs, not as text, so
angle-valued flags accept pi fractions like ``2pi/3``.
Warnings raised while a command runs are printed to stderr as
``warning:`` lines and leave the exit code unchanged.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import fileio
from .errors import MainLobeMissed, ParseError, SpherebeamError, ValidationError, require_output_dir, require_single_line
from .metrics import measure
from .scenario import (
    GEOMETRY_KEYS,
    KEYS,
    SWEEPS,
    _parse_int,
    geometry_from_fields,
    load_preset,
    parse_field,
    parse_focal_text,
    parse_scenario,
    preset_names,
    run_scenario,
    scenario_from_pairs,
)
from .sweep import AngularPatternGrid, DistancePattern


def _add_key_flags(parser: argparse.ArgumentParser, keys) -> None:
    """One flag per scenario key, with its field's help, kept as text for the key's rule."""
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", help=KEYS[key]["help"])


def _add_geometry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, help="array layout family")
    _add_key_flags(parser, GEOMETRY_KEYS)


def _add_beam_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--wavelength", required=True, help="carrier wavelength in meters")
    parser.add_argument(
        "--focal",
        action="append",
        required=True,
        metavar="R,THETA,PHI",
        help="focal point triple, repeatable; angles accept pi fractions",
    )
    _add_key_flags(parser, ("normalization",))
    parser.add_argument("--threads", help="sweep worker threads (default: all cores)")
    parser.add_argument("--out", required=True, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherebeam",
        description="Spherical and planar antenna array beam pattern simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="emit an element layout CSV")
    _add_geometry_flags(g)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=_cmd_geometry)

    pat = sub.add_parser("pattern", help="run a beam pattern sweep")
    pat_sub = pat.add_subparsers(dest="sweep", required=True)
    for name, run in SWEEPS.items():
        sweep = pat_sub.add_parser(name, help=run.help)
        _add_geometry_flags(sweep)
        _add_beam_flags(sweep)
        _add_key_flags(sweep, run.keys)
        sweep.set_defaults(func=_cmd_pattern)

    m = sub.add_parser("metrics", help="recompute metrics from an emitted pattern CSV")
    m.add_argument("pattern", help="path to a pattern CSV")
    m.add_argument(
        "--focal",
        metavar="R,THETA,PHI",
        help="focal point; replaces the .meta sidecar's, and is needed without one",
    )
    m.set_defaults(func=_cmd_metrics)

    r = sub.add_parser("run", help="run a preset or scenario file end to end")
    src = r.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="name of a shipped preset")
    src.add_argument("--scenario", help="path to a scenario file")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--threads", help="sweep worker threads (default: all cores)")
    r.set_defaults(func=_cmd_run)

    p = sub.add_parser("preset", help="inspect shipped presets")
    p_sub = p.add_subparsers(dest="preset_action", required=True)
    pl = p_sub.add_parser("list", help="list preset names")
    pl.set_defaults(func=_cmd_preset_list)

    return parser


def _flag_pairs(args, keys) -> list[tuple[None, str, str]]:
    """``(None, key, value)`` per value given to ``keys``, one line each and stripped as in a scenario."""
    pairs = []
    for key in keys:
        value = getattr(args, key)
        for item in value if isinstance(value, list) else [value]:
            if item is not None:
                pairs.append((None, key, require_single_line(item, key).strip()))
    return pairs


def _flag_value(args, key: str, default=None):
    """The value of the one-valued flag ``key`` as ``_flag_pairs`` passes it on; ``default`` when not given."""
    return next((value for _, _, value in _flag_pairs(args, (key,))), default)


def _threads(args) -> int | None:
    """``--threads`` under the integer rule of every count flag; None when not given."""
    threads = _flag_value(args, "threads")
    return None if threads is None else _parse_int("threads", threads, None)


def _cmd_geometry(args) -> int:
    out = Path(require_output_dir(args.out))
    pairs = _flag_pairs(args, ("kind", *GEOMETRY_KEYS))
    geometry = geometry_from_fields(**{key: parse_field(key, value) for _, key, value in pairs})
    out.mkdir(parents=True, exist_ok=True)
    path = out / "geometry.csv"
    fileio.write_geometry_csv(path, geometry)
    print(f"wrote {path} ({geometry.n} elements)")
    return 0


def _cmd_pattern(args) -> int:
    threads = _threads(args)
    keys = ("kind", *GEOMETRY_KEYS, "wavelength", "focal", "sweep", *SWEEPS[args.sweep].keys, "normalization")
    scenario = scenario_from_pairs(_flag_pairs(args, keys))
    return run_scenario(scenario, out_dir=args.out, threads=threads)


def _meta_float(meta: dict, key: str):
    if key not in meta:
        return None
    try:
        value = float(meta[key])
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ParseError(f"sidecar {key} is not a finite number: {meta[key]!r}")


def _cmd_metrics(args) -> int:
    path = Path(args.pattern)
    with fileio.open_text(path) as fh:
        header = fh.readline().strip()
    sidecar = path.with_suffix(".meta")
    meta = fileio.read_meta(sidecar) if sidecar.exists() else {}
    focal_text = _flag_value(args, "focal", meta.get("focal"))
    if focal_text is None:
        raise ValidationError(
            "no focal point available; pass --focal or keep the .meta sidecar next to the CSV",
            field="focal",
        )
    focal = parse_focal_text(focal_text)

    if header == fileio.ANGULAR_HEADER:
        m = measure(AngularPatternGrid(
            *fileio.read_angular_csv(path),
            focal=focal,
            eval_range_m=parse_field("eval_range", meta["eval_range"]) if "eval_range" in meta else focal.r,
            normalization=parse_field("normalization", meta.get("normalization", "grid_max")),
            peak_capture=_meta_float(meta, "peak_capture"),
        ))
    elif header == fileio.DISTANCE_HEADER:
        m = measure(DistancePattern(*fileio.read_distance_csv(path), focal))
    else:
        raise ValidationError(f"unrecognized pattern CSV header {header!r}")
    for key, value in fileio.metric_entries(m):
        print(f"{key} = {value}")
    return 0


def _cmd_run(args) -> int:
    threads = _threads(args)
    if args.scenario is None:
        scenario = load_preset(_flag_value(args, "preset"))
    else:
        with fileio.open_text(args.scenario) as fh:
            scenario = parse_scenario(fh.read())
    return run_scenario(scenario, out_dir=args.out, threads=threads)


def _cmd_preset_list(args) -> int:
    for name in preset_names():
        print(name)
    return 0


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always", MainLobeMissed)
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (SpherebeamError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
