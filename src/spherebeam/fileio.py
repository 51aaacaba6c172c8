"""CSV and sidecar emission with round-trip-safe float formatting.

All files are written with LF line endings and 17-significant-digit
decimals, enough to reconstruct every double exactly. Pattern CSVs carry
power in dB with exact zeros pinned at the floor value; readers map
anything at or below the floor back to linear 0.

Writers format plain Python floats from ``.tolist()``. The angular writer
fills one ``%`` row template per grid and writes one string per theta row,
so no more than a row of text is held at a time. The pattern readers parse
the body in chunks of about ``READ_CHUNK_BYTES`` of whole lines through one
``numpy`` conversion per chunk, which calls the same parser as ``float``.
A chunk that does not convert is parsed again line by line, so a
``ParseError`` names the first bad line exactly.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from pathlib import Path

import numpy as np

from .beamforming import DB_FLOOR, to_db
from .errors import ParseError
from .geometry import ArrayGeometry
from .metrics import FocusMetrics
from .sweep import AngularPatternGrid, DistancePattern

GEOMETRY_HEADER = "index,x,y,z,nx,ny,nz"
ANGULAR_HEADER = "theta_rad,phi_rad,power_db"
DISTANCE_HEADER = "r_m,power_db"
METRICS_HEADER = "focal_theta,focal_phi,peak_theta,peak_phi,pointing_err,hpbw_theta,hpbw_phi,psl_db"
FOCUS_HEADER = "focal_theta,focal_phi,peak_r_m,depth_of_focus_m,focal_error_m,one_sided"

READ_CHUNK_BYTES = 1 << 16
"""Text the pattern readers parse at once, which bounds their working set."""


def fmt(x: float) -> str:
    """Decimal text with 17 significant digits."""
    return format(float(x), ".17g")


@contextlib.contextmanager
def open_text(path):
    """Open a text file for reading as UTF-8; every reader of outside text
    goes through here, so undecodable bytes raise ``ParseError``."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def write_lines(path, lines) -> None:
    """Text file of ``lines``, each ended by LF."""
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_geometry_csv(path, geometry: ArrayGeometry) -> None:
    """One row per element: index, position, outward normal."""
    rows = (
        f"{k},{','.join(map(fmt, p))},{','.join(map(fmt, n))}"
        for k, (p, n) in enumerate(zip(geometry.positions.tolist(), geometry.normals.tolist()))
    )
    write_lines(path, itertools.chain([GEOMETRY_HEADER], rows))


def write_angular_csv(path, grid: AngularPatternGrid) -> None:
    """Full grid in dB, theta outer loop, phi inner loop.

    Each theta row is converted to dB on its own, so no dB copy of the
    whole grid is held.
    """
    # one "%" template per grid; NUL stands for the theta text of a row
    template = "\n".join(f"\0,{fmt(ph)},%.17g" for ph in grid.phi_axis.tolist())
    rows = (
        template.replace("\0", fmt(th)) % tuple(to_db(row).tolist())
        for th, row in zip(grid.theta_axis.tolist(), grid.power)
    )
    write_lines(path, itertools.chain([ANGULAR_HEADER], rows))


def write_distance_csv(path, pattern: DistancePattern) -> None:
    """One row per range sample: range, power in dB."""
    rows = (f"{fmt(r)},{fmt(db)}" for r, db in zip(pattern.r_axis.tolist(), to_db(pattern.power).tolist()))
    write_lines(path, itertools.chain([DISTANCE_HEADER], rows))


def write_meta(path, entries: dict) -> None:
    """Sidecar of ``key = value`` lines, in insertion order."""
    lines = [f"{key} = {value}" for key, value in entries.items()]
    write_lines(path, lines)


def metric_entries(m) -> list[tuple[str, str]]:
    """Text ``key = value`` pairs of a ``BeamMetrics`` or ``FocusMetrics``.

    ``metrics.txt`` lists them per pattern and ``spherebeam metrics`` prints
    them; ``peak_capture`` is left out when the beam does not carry it.
    """
    if isinstance(m, FocusMetrics):
        return [
            ("peak_r_m", fmt(m.peak_r_m)),
            ("depth_of_focus_m", fmt(m.depth_of_focus_m)),
            ("focal_error_m", fmt(m.focal_error_m)),
            ("one_sided", str(int(m.one_sided))),
        ]
    entries = [
        ("peak_theta", fmt(m.peak_theta)),
        ("peak_phi", fmt(m.peak_phi)),
        ("pointing_err", fmt(m.pointing_error_rad)),
        ("hpbw_theta", fmt(m.hpbw_theta)),
        ("hpbw_phi", fmt(m.hpbw_phi)),
        ("psl_db", fmt(m.peak_sidelobe_db)),
    ]
    if m.peak_capture is not None:
        entries.append(("peak_capture", fmt(m.peak_capture)))
    return entries


def key_values(lines):
    """``(lineno, key, value)`` of each ``key = value`` line of a scenario
    document or sidecar; blank lines and ``#`` comments are skipped."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key = key.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        yield lineno, key, value.strip()


def read_meta(path) -> dict:
    """Parse a sidecar back into an ordered string-to-string mapping."""
    with open_text(path) as fh:
        return {key: value for _, key, value in key_values(fh)}


def write_metrics_csv(path, rows) -> None:
    """Angular metrics table, one row of eight floats per focal point."""
    lines = (",".join(map(fmt, row)) for row in rows)
    write_lines(path, itertools.chain([METRICS_HEADER], lines))


def write_focus_csv(path, rows) -> None:
    """Range metrics table; the last column is the one-sided flag (0/1)."""
    lines = (",".join([*map(fmt, floats), str(int(one_sided))]) for *floats, one_sided in rows)
    write_lines(path, itertools.chain([FOCUS_HEADER], lines))


def _split_csv_line(line: str, expected: int, lineno: int):
    """Fields of one body line, with the last one, power in dB, made linear."""
    parts = line.split(",")
    if len(parts) != expected:
        raise ParseError(f"expected {expected} fields, got {len(parts)}", line=lineno)
    try:
        values = [float(p) for p in parts]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"not every field of {line!r} is a finite number")
        values[-1] = _db_to_linear(values[-1])
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno) from None
    except OverflowError:
        raise ParseError(f"power_db {parts[-1]!r} overflows linear power", line=lineno) from None
    return values


def _db_to_linear(db: float) -> float:
    if db <= DB_FLOOR:
        return 0.0
    return 10.0 ** (db / 10.0)


def _parse_chunk(chunk, expected: int, lineno: int) -> np.ndarray:
    """Non-blank lines of ``chunk`` as a ``(rows, expected)`` float array
    whose last column, power in dB in the file, is linear power.

    The first line of the chunk is line ``lineno`` of the file. When every
    line has ``expected`` fields, the fields convert in one call; if one of
    them does not, is not finite, or overflows linear power, the lines are
    split one by one, which raises the ``ParseError`` of the first bad line.
    """
    lines = [line for line in map(str.strip, chunk) if line]
    if lines and all(line.count(",") == expected - 1 for line in lines):
        try:
            rows = np.array(",".join(lines).split(","), dtype=np.float64).reshape(-1, expected)
            if np.isfinite(rows).all():
                rows[:, -1] = [_db_to_linear(db) for db in rows[:, -1].tolist()]
                return rows
        except (ValueError, OverflowError):
            pass
    rows = [
        _split_csv_line(line, expected, n)
        for n, line in enumerate(map(str.strip, chunk), start=lineno)
        if line
    ]
    return np.array(rows, dtype=np.float64).reshape(-1, expected)


def _read_rows(path, header: str, expected: int) -> np.ndarray:
    """Body of a pattern CSV as a ``(rows, expected)`` float array with
    linear power last, read in chunks of about ``READ_CHUNK_BYTES``; blank
    lines are skipped."""
    parts = []
    with open_text(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ParseError(f"expected header {header!r}, got {first!r}", line=1)
        lineno = 2
        while chunk := fh.readlines(READ_CHUNK_BYTES):
            parts.append(_parse_chunk(chunk, expected, lineno))
            lineno += len(chunk)
    rows = np.concatenate(parts) if parts else np.empty((0, expected))
    if not rows.size:
        raise ParseError("no data rows")
    return rows


def read_angular_csv(path):
    """Reconstruct (theta_axis, phi_axis, linear power) from a pattern CSV."""
    rows = _read_rows(path, ANGULAR_HEADER, 3)
    th = rows[:, 0]
    # a theta row starts wherever theta differs from the line before
    starts = np.flatnonzero(np.concatenate(([True], th[1:] != th[:-1])))
    t_n = starts.size
    p_n = int(starts[1]) if t_n > 1 else th.size
    if t_n * p_n != th.size or np.any(starts != np.arange(t_n) * p_n):
        raise ParseError(f"grid is ragged: {t_n} thetas x {p_n} phis != {th.size} rows")
    phi = rows[:, 1].reshape(t_n, p_n)
    if np.any(phi != phi[0]):
        raise ParseError("a theta row does not repeat the first row's phi values")
    if np.any(np.diff(th[starts]) <= 0.0):
        raise ParseError("theta values are not strictly increasing")
    return th[starts], phi[0].copy(), rows[:, 2].reshape(t_n, p_n).copy()


def read_distance_csv(path):
    """Reconstruct (r_axis, linear power) from a distance CSV."""
    rows = _read_rows(path, DISTANCE_HEADER, 2)
    return rows[:, 0].copy(), rows[:, 1].copy()
