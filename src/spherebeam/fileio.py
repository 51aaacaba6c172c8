"""CSV and sidecar emission with round-trip-safe float formatting.

All files are written with LF line endings and 17-significant-digit
decimals, enough to reconstruct every double exactly. Pattern CSVs carry
power in dB with exact zeros pinned at the floor value; readers map
anything at or below the floor back to linear 0.

Sidecars, summaries and axis texts format single Python floats with
``fmt``. The CSV writers format their values in numpy instead, at most
``WRITE_BLOCK_CELLS`` values per call, through ``_number_words``, which
gives the bytes of ``"%.17g" % v`` for every double; each block of lines
is written as one ``bytes`` object, so no more than a block of text is
held at a time. The geometry, range pattern and metrics table CSVs share
one loop over blocks of whole rows, ``_write_rows``; the angular pattern
CSV lays its blocks out in a line buffer of its own. The pattern readers
parse the body in chunks of about ``READ_CHUNK_BYTES`` of whole lines
through one ``numpy`` conversion per chunk, which calls the same parser
as ``float``; each distinct axis text of a chunk is converted once. A
chunk that does not convert is parsed again line by line, so a
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
from .metrics import BeamMetrics, FocusMetrics, figures
from .sweep import AngularPatternGrid, DistancePattern

GEOMETRY_HEADER = "index,x,y,z,nx,ny,nz"
ANGULAR_HEADER = "theta_rad,phi_rad,power_db"
DISTANCE_HEADER = "r_m,power_db"


def _table_header(record) -> str:
    """Header of a metrics table: the focal direction, then the record's figure keys."""
    return ",".join(["focal_theta", "focal_phi", *(key for key, _ in figures(record))])


METRICS_HEADER = _table_header(BeamMetrics)
FOCUS_HEADER = _table_header(FocusMetrics)

READ_CHUNK_BYTES = 1 << 16
"""Text the pattern readers parse at once, which bounds their working set."""


WRITE_BLOCK_CELLS = 4096
"""Values the CSV writers format at once. Each ``_number_words`` call
makes about 70 numpy calls, so larger blocks spread that cost over more
values. A pattern CSV's line buffer holds one block of 88-byte lines, about
360 KB, and the formatter's temporaries reach 160 KB each, above the
128 KiB that every array of 1024-value blocks stayed below. The benchmark's
``overlay_saa8`` ``peak_rss_mb`` read 42.80-42.96 MB with 4096-value blocks
against 42.74-43.01 MB with 1024 (20 runs each, 2 CPUs, numpy 2.4.6)."""


def fmt(x: float) -> str:
    """Decimal text with 17 significant digits."""
    return format(float(x), ".17g")


# A formatted number is five NUL-padded 8-byte words: a head and four
# groups of four digits. Every digit is followed by a "." candidate, so
# the text of "%.17g" is the head and digit bytes that a per-(exponent,
# digit count, sign) byte mask keeps, with NULs deleted; the separator
# takes the place of the point after the last digit, which is never kept.
#   head  "-0.000d." : sign, "0." and up to three zeros of 0.000ddd, the
#                      leading digit d and its point
#   group "d.d.d.d." : digits 1-4, 5-8, 9-12 and 13-16 of the 17
_HEAD = 10_000
"""Index of the head word of leading digit 0 in ``_GROUP_WORDS``."""


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The head and group words, and the trailing zeros of each group."""
    group = np.arange(_HEAD)
    words = np.full((_HEAD + 10, 8), ord("."), np.uint8)
    words[_HEAD:, :6] = np.frombuffer(b"-0.000", np.uint8)
    words[_HEAD:, 6] = np.arange(10) + ord("0")
    zeros = np.zeros(_HEAD, np.intp)
    trailing = np.ones(_HEAD, bool)
    for k, place in enumerate((1, 10, 100, 1000)):
        digit = group // place % 10
        words[:_HEAD, 6 - 2 * k] = digit + ord("0")
        trailing &= digit == 0
        zeros += trailing
    return words.view(np.uint64).ravel(), zeros


_GROUP_WORDS, _TRAILING_ZEROS = _group_tables()


def _keep_masks() -> np.ndarray:
    """Byte masks (0xFF kept, 0 dropped) of the five head and digit words,
    one row per ``(s * 17 + zeros) * 2 + sign`` for the decimal exponent
    ``x = 16 - s`` in [-4, 16] and the trailing zeros of the 17 digits."""
    s, zeros, sign, byte = np.ix_(range(21), range(17), range(2), range(40))
    x, digits = 16 - s, 17 - zeros
    shown = np.where(x < 0, digits, np.maximum(digits, x + 1))
    keep = (
        ((byte == 0) & (sign == 1))  # -
        | ((x < 0) & (byte >= 1) & (byte < 2 - x))  # 0.[0..0] before the digits
        | ((byte >= 6) & (byte % 2 == 0) & (byte < 6 + 2 * shown))  # digits
        | ((x >= 0) & (digits > x + 1) & (byte == 7 + 2 * x))  # point of ddd.ddd
    )
    return (keep * np.uint8(0xFF)).reshape(-1, 40).view(np.uint64)


_KEEP_WORDS = _keep_masks()
_SPLITTER = 134217729.0
"""2**27 + 1, which splits a double into two 26-bit halves (Veltkamp)."""


def _split(v):
    c = _SPLITTER * v
    hi = c - (c - v)
    return hi, v - hi


_POW10 = np.array([float(10**k) for k in range(23)])
"""Exact doubles 1e0 .. 1e22."""
_POW10_HI, _POW10_LO = _split(_POW10)


def _round_scaled(a, s):
    """``a * 10**s``, which must lie below ``2**62``, rounded to an
    integer, half to even, where it is at least ``2**53``; below, the
    result is within 1 of it.

    Dekker's product gives the exact value as ``p + err``. A double ``p``
    of at least ``2**53`` is an even integer, so rounding ``err`` half to
    even rounds the sum half to even.
    """
    p = a * _POW10[s]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _number_words(x, sep: bytes) -> np.ndarray:
    """``(len(x), 5)`` words whose bytes, NULs deleted, are ``"%.17g" % v``
    and ``sep`` for every value ``v`` of ``x``.

    Values with ``1e-4 <= |v| < 1e16``, whose text is in fixed notation,
    are formatted here in numpy; the others (zeros, tiny, huge and
    non-finite values) go one at a time through ``fmt``.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a[slow] = 1.0
    # the 17 significant digits are a * 10**s rounded, for s = 16 - X and
    # the decimal exponent X; log10 can miss X by one near a power of ten
    # (log10 of the double below 1000 is 3.0), which leaves d outside
    # [1e16, 1e17). Those values are rounded again from a at the next
    # scale, never by rescaling d, which would round twice.
    s = (16 - np.floor(np.log10(a))).astype(np.intp)
    d = _round_scaled(a, s)
    shift = (d < 10**16).astype(np.intp) - (d >= 10**17)
    redo = np.flatnonzero(shift)
    if redo.size:
        s[redo] += shift[redo]
        d[redo] = _round_scaled(a[redo], s[redo])
    groups = np.empty((5, x.size), np.intp)
    for k, place in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(d, place, out=groups[k])
        d -= groups[k] * place
    groups[4] = d
    g1, g2, g3, g4 = _TRAILING_ZEROS[groups[1:]]
    zeros = g4 + (groups[4] == 0) * (g3 + (groups[3] == 0) * (g2 + (groups[2] == 0) * g1))
    groups[0] += _HEAD
    code = (s * 17 + zeros) * 2 + np.signbit(x)
    words = _GROUP_WORDS[groups.T]
    words &= _KEEP_WORDS[code]
    words[:, 4] |= np.frombuffer(b"\0" * 7 + sep, np.uint64)
    if slow.size:
        words[slow] = _text_words([fmt(v) + sep.decode() for v in x[slow].tolist()], 5)
    return words


def _text_words(texts, width: int = 0) -> np.ndarray:
    """ASCII ``texts`` as rows of at least ``width`` NUL-padded 8-byte words."""
    data = np.array([t.encode() for t in texts], dtype=bytes)
    size = max(data.dtype.itemsize, 8 * width)
    return data.astype(f"S{-(-size // 8) * 8}").view(np.uint64).reshape(len(texts), -1)


def _pack(words: np.ndarray) -> bytes:
    """Bytes of ``words`` with the NUL padding deleted."""
    return words.tobytes().translate(None, b"\0")


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
        fh.writelines(f"{line}\n" for line in lines)


def _write_rows(path, header: str, columns, db: bool = False) -> None:
    """CSV of ``header`` and a line per row of the table whose columns are
    ``columns``, every value with the bytes of ``fmt``; with ``db`` the last
    column, linear power, is written in dB. A block of ``WRITE_BLOCK_CELLS
    // (columns - 1)`` rows, at least one, takes one ``_number_words`` call
    for its leading columns and one for its last. An index column is exact,
    as ``"%.17g" % k`` is ``str(k)`` for every ``k`` below ``10**16``."""
    table = np.reshape(np.asarray(columns, dtype=np.float64), (header.count(",") + 1, -1))
    rows = max(1, WRITE_BLOCK_CELLS // (len(table) - 1))
    with open(Path(path), "wb") as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, table.shape[1], rows):
            block = table[:, start : start + rows]
            last = to_db(block[-1]) if db else block[-1]
            words = _number_words(block[:-1].T.ravel(), b",").reshape(block.shape[1], -1)
            fh.write(_pack(np.concatenate([words, _number_words(last, b"\n")], axis=1)))


def write_geometry_csv(path, geometry: ArrayGeometry) -> None:
    """One row per element: index, position, outward normal."""
    _write_rows(path, GEOMETRY_HEADER, [np.arange(geometry.n), *geometry.positions.T, *geometry.normals.T])


def write_angular_csv(path, grid: AngularPatternGrid) -> None:
    """Full grid in dB, theta outer loop, phi inner loop.

    A block is a run of whole theta rows, or one segment of a row longer
    than a block, and is converted to dB and formatted on its own, so no
    dB or text copy of the whole grid is held. The lines are laid out in
    one word buffer per call: the phi words are copied in once (per
    segment when a row is split) and each block's theta words broadcast.
    """
    theta = _text_words([fmt(th) + "," for th in grid.theta_axis.tolist()])
    phi = _text_words([fmt(ph) + "," for ph in grid.phi_axis.tolist()])
    t, m = grid.power.shape
    step = min(m, WRITE_BLOCK_CELLS)
    rows = WRITE_BLOCK_CELLS // step
    tw = theta.shape[1]
    lines = np.empty((rows, step, tw + phi.shape[1] + 5), np.uint64)
    lines[:, :, tw:-5] = phi[:step]
    with open(Path(path), "wb") as fh:
        fh.write(f"{ANGULAR_HEADER}\n".encode())
        for r0 in range(0, t, rows):
            r1 = min(r0 + rows, t)
            for j0 in range(0, m, step):
                j1 = min(j0 + step, m)
                block = lines[: r1 - r0, : j1 - j0]
                if step < m:
                    block[:, :, tw:-5] = phi[j0:j1]
                block[:, :, :tw] = theta[r0:r1, None, :]
                db = to_db(grid.power[r0:r1, j0:j1].ravel())
                block[:, :, -5:] = _number_words(db, b"\n").reshape(r1 - r0, j1 - j0, 5)
                fh.write(_pack(block))


def write_distance_csv(path, pattern: DistancePattern) -> None:
    """One row per range sample: range, power in dB."""
    _write_rows(path, DISTANCE_HEADER, [pattern.r_axis, pattern.power], db=True)


def write_meta(path, entries: dict) -> None:
    """Sidecar of ``key = value`` lines, in insertion order."""
    lines = [f"{key} = {value}" for key, value in entries.items()]
    write_lines(path, lines)


def metric_entries(m) -> list[tuple[str, str]]:
    """Text ``key = value`` pairs of the figures of a metrics record (see
    ``metrics.figures``), then its ``peak_capture`` when it carries one.

    ``metrics.txt`` lists them per pattern and ``spherebeam metrics`` prints
    them; a flag is written ``1`` or ``0``.
    """
    entries = [(key, fmt(getattr(m, name))) for key, name in figures(m)]
    if getattr(m, "peak_capture", None) is not None:
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
    """Angular metrics table, one row of ``METRICS_HEADER`` values per focal point."""
    _write_rows(path, METRICS_HEADER, np.transpose(rows))


def write_focus_csv(path, rows) -> None:
    """Range metrics table; the last column is the one-sided flag (0/1)."""
    _write_rows(path, FOCUS_HEADER, np.transpose(rows))


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
    line has ``expected`` fields, the fields convert in bulk: each distinct
    text of a leading (axis) column once, the power column in one call. If
    a field does not convert, is not finite, or overflows linear power, the
    lines are split one by one, which raises the ``ParseError`` of the
    first bad line.
    """
    lines = [line for line in map(str.strip, chunk) if line]
    if {*map(str.count, lines, itertools.repeat(","))} == {expected - 1}:
        fields = ",".join(lines).split(",")
        n = len(lines)
        rows = np.empty((n, expected))
        try:
            for k in range(expected - 1):
                column = fields[k::expected]
                # texts map to indices: a dict of float objects per chunk
                # raised the peak RSS of repeated reads by about 0.7 MB
                index = dict(zip(dict.fromkeys(column), itertools.count()))
                values = np.array(list(index), dtype=np.float64)
                rows[:, k] = values[np.fromiter(map(index.__getitem__, column), np.intp, n)]
            db = np.array(fields[expected - 1 :: expected], dtype=np.float64)
            rows[:, -1] = db
            if np.isfinite(rows).all():
                # math.pow calls the same libm pow as the scalar 10.0 ** q
                rows[:, -1] = np.fromiter(map(math.pow, itertools.repeat(10.0), (db / 10.0).tolist()), np.float64, n)
                rows[db <= DB_FLOOR, -1] = 0.0
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
    if np.any(np.diff(phi[0]) < 0.0):
        raise ParseError("phi values decrease along a theta row")
    return th[starts], phi[0].copy(), rows[:, 2].reshape(t_n, p_n).copy()


def read_distance_csv(path):
    """Reconstruct (r_axis, linear power) from a distance CSV."""
    rows = _read_rows(path, DISTANCE_HEADER, 2)
    if np.any(np.diff(rows[:, 0]) < 0.0):
        raise ParseError("r values decrease")
    return rows[:, 0].copy(), rows[:, 1].copy()
