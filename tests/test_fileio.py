from __future__ import annotations

import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_rotation

from spherebeam import (
    AngularPatternGrid,
    ArrayGeometry,
    ArrayKind,
    AngularSweepSpec,
    DistancePattern,
    ParseError,
    SphericalPoint,
    angular_sweep,
    distance_sweep,
    golden_spiral_saa,
    load_preset,
    parse_scenario,
    polyhedral_saa,
    ring_saa,
    rotate,
    run_scenario,
    spiral_curve_saa,
    upa,
)
from spherebeam import fileio
from spherebeam.beamforming import DB_FLOOR, to_db
from spherebeam.fileio import (
    ANGULAR_HEADER,
    DISTANCE_HEADER,
    FOCUS_HEADER,
    GEOMETRY_HEADER,
    METRICS_HEADER,
    READ_CHUNK_BYTES,
    WRITE_BLOCK_CELLS,
    _number_words,
    _pack,
    _split_csv_line,
    fmt,
    metric_entries,
    read_angular_csv,
    read_distance_csv,
    read_meta,
    write_angular_csv,
    write_distance_csv,
    write_focus_csv,
    write_geometry_csv,
    write_meta,
    write_metrics_csv,
)
from spherebeam.metrics import BeamMetrics, FocusMetrics, IsotropyReport, figures

FOCAL = SphericalPoint(30.0, math.pi / 6, math.pi / 6)


def per_cell_angular_text(grid) -> str:
    """Reference writer: every cell formatted on its own, line by line."""
    db = to_db(grid.power)
    lines = [ANGULAR_HEADER]
    for i, th in enumerate(grid.theta_axis):
        for j, ph in enumerate(grid.phi_axis):
            lines.append(f"{format(float(th), '.17g')},{format(float(ph), '.17g')},{format(float(db[i, j]), '.17g')}")
    return "".join(line + "\n" for line in lines)


def per_value_text(header, rows) -> str:
    """Reference writer: every float formatted on its own, line by line."""
    lines = [header]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row))
    return "".join(line + "\n" for line in lines)


def recorded_sizes(monkeypatch) -> list[int]:
    """The value count of every ``_number_words`` call the writers make from now on."""
    sizes = []

    def recording(x, sep):
        sizes.append(np.size(x))
        return _number_words(x, sep)

    monkeypatch.setattr(fileio, "_number_words", recording)
    return sizes


def random_grid(rng, theta_samples, phi_samples) -> AngularPatternGrid:
    """Grid with exact zeros (the dB floor), subnormal and tiny cells, and 1."""
    power = rng.random((theta_samples, phi_samples)) ** 8
    power[rng.random(power.shape) < 0.2] = 0.0
    power.flat[rng.integers(0, power.size, 5)] = 5e-324
    power.flat[rng.integers(0, power.size, 5)] = 1e-31
    power.flat[0] = 1.0
    power.flat[-1] = 0.0
    return AngularPatternGrid(
        theta_axis=np.linspace(0.0, math.pi, theta_samples),
        phi_axis=np.linspace(0.0, 2.0 * math.pi, phi_samples),
        power=power,
        focal=FOCAL,
        eval_range_m=30.0,
    )


def exponent_axes_grid() -> AngularPatternGrid:
    """Grid whose theta and phi texts are all in exponent form, such as
    1.0000000000000001e-05."""
    grid = random_grid(np.random.default_rng(3), 5, 6)
    grid = replace(grid, theta_axis=np.linspace(1e-5, 3e-5, 5), phi_axis=np.linspace(1.5e-5, 9.5e-5, 6))
    assert all("e-05" in fmt(v) for v in [*grid.theta_axis, *grid.phi_axis])
    return grid


def pole_rows_grid() -> AngularPatternGrid:
    """Grid whose first row is one constant and whose last row is dark."""
    grid = random_grid(np.random.default_rng(4), 9, 12)
    power = grid.power.copy()
    power[0] = 0.25
    power[-1] = 0.0
    return replace(grid, power=power)


def swept_2x2_grid() -> AngularPatternGrid:
    """UPA sweep on a 2 x 2 grid: the theta = 0 row is one point for every
    phi, and the rear row is dark."""
    spec = AngularSweepSpec(theta_samples=2, phi_samples=2)
    return angular_sweep(upa(16, 0.005), 0.01, FOCAL, spec)


def focal_normalized_grid() -> AngularPatternGrid:
    """Grid normalized to a focal response below its maximum, so some
    cells are above 0 dB, with floor cells."""
    grid = random_grid(np.random.default_rng(6), 11, 14)
    return replace(grid, power=grid.power * 37.5, normalization="focal")


def expected_linear(grid) -> np.ndarray:
    """What reading the written dB text back must give, computed per cell."""
    out = []
    for v in to_db(grid.power).ravel():
        db = float(format(float(v), ".17g"))
        out.append(0.0 if db <= DB_FLOOR else 10.0 ** (db / 10.0))
    return np.asarray(out).reshape(grid.power.shape)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert_array_equal(np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


class TestFmt:
    def test_round_trips_doubles_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            assert float(fmt(x)) == x
        assert fmt(0.0) == "0"
        assert float(fmt(math.pi)) == math.pi


def percent_text(values, sep="\n") -> bytes:
    """Reference: ``"%.17g" % v`` of each value, one Python call per value."""
    return "".join("%.17g%s" % (v, sep) for v in values).encode()


def numpy_text(values, sep=b"\n") -> bytes:
    return _pack(_number_words(np.array(values, dtype=np.float64), sep))


def powers_of_ten_and_neighbours() -> list[float]:
    """Every power of ten from 1e-5 to 1e17 with two doubles on each side,
    and their negatives; log10 rounds some of the lower ones up to the
    exponent, so the first digit estimate falls a decade short."""
    values = []
    for e in range(-5, 18):
        p = float(f"1e{e}")
        below = [np.nextafter(p, 0.0), np.nextafter(np.nextafter(p, 0.0), 0.0)]
        above = [np.nextafter(p, np.inf), np.nextafter(np.nextafter(p, np.inf), np.inf)]
        values += [p, *map(float, below + above)]
    assert np.log10(np.nextafter(1000.0, 0.0)) == 3.0
    return values + [-v for v in values]


def ties() -> list[float]:
    """Doubles whose exact decimal expansion has 18 significant digits, the
    last a 5, in every decade [10**X, 10**(X+1)) of X = -4 .. 15: "%.17g"
    rounds each half to even. k * 2**-j with odd k has j decimals ending in
    5, so j = 17 - X gives X + 1 + j = 18 significant digits."""
    values = []
    for x in range(-4, 16):
        j = 17 - x
        k0 = int(10.0**x * 2.0**j) | 1
        for k in range(k0, k0 + 400, 2):
            v = k * 2.0**-j
            if 10.0**x <= v < 10.0 ** (x + 1):
                assert len(Decimal(v).as_tuple().digits) == 18 and Decimal(v).as_tuple().digits[-1] == 5
                values.append(v)
    return values


class TestNumberWords:
    """The numpy formatter of the pattern writers gives the bytes of "%.17g"."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(min_value=-1e17, max_value=1e17),
                st.floats(min_value=-300.0, max_value=40.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_every_finite_double_gives_the_percent_bytes(self, values):
        assert numpy_text(values) == percent_text(values)

    @pytest.mark.parametrize(
        "values",
        [
            powers_of_ten_and_neighbours(),
            ties(),
            [100.000030517578125, 0.000100000000000000005, 1.0000000000000001e16],
            [1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0), -1e-4, -np.nextafter(1e16, 0.0)],
            [0.0, -0.0, -300.0, 300.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308],
            [1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.5, 9.5, 99.5, 15.741],
        ],
        ids=["powers_of_ten", "ties", "edge_texts", "fast_domain_edges", "zeros_floor_subnormals", "extremes"],
    )
    def test_fixed_cases(self, values):
        assert numpy_text(values) == percent_text(values)
        assert numpy_text(values, b",") == percent_text(values, ",")

    def test_tie_rounds_half_to_even(self):
        assert numpy_text([100.000030517578125]) == b"100.00003051757812\n"
        assert len(ties()) > 2000

    def test_uniform_db_values(self):
        db = -300.0 * np.random.default_rng(12).random(50_000)
        assert numpy_text(db) == percent_text(db.tolist())

    def test_non_finite_values_take_the_fallback(self):
        values = [math.nan, math.inf, -math.inf, -3.0]
        assert numpy_text(values) == b"nan\ninf\n-inf\n-3\n"


class TestGeometryCsv:
    def test_layout_and_line_endings(self, tmp_path):
        g = golden_spiral_saa(12, 0.5)
        path = tmp_path / "geometry.csv"
        write_geometry_csv(path, g)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == GEOMETRY_HEADER
        assert len(lines) == 13
        first = lines[1].split(",")
        assert first[0] == "0"
        assert [float(v) for v in first[1:4]] == list(g.positions[0])
        assert [float(v) for v in first[4:7]] == list(g.normals[0])

    @pytest.mark.parametrize("g", [
        golden_spiral_saa(1000, 0.7),
        upa(25, 0.005),
        # more elements than one write block
        golden_spiral_saa(WRITE_BLOCK_CELLS + 476, 0.7),
        ring_saa(6, "proportional", 0.4),
        polyhedral_saa(2, 0.3),
        spiral_curve_saa(200, 5.0, 0.5),
        rotate(upa(16, 0.025), random_rotation(np.random.default_rng(3))),
        # zeros of both signs
        ArrayGeometry(ArrayKind.UPA, -upa(9, 0.025).positions, -upa(9, 0.025).normals),
    ], ids=["spiral", "upa", "spiral_two_blocks", "ring", "polyhedral", "spiral_curve", "rotated_upa", "signed_zeros"])
    def test_bytes_equal_per_value_formatting(self, tmp_path, g):
        path = tmp_path / "geometry.csv"
        write_geometry_csv(path, g)
        rows = ([str(k), *g.positions[k], *g.normals[k]] for k in range(g.n))
        assert path.read_bytes() == per_value_text(GEOMETRY_HEADER, rows).encode("utf-8")

    # a block is the rows whose six leading values fit WRITE_BLOCK_CELLS:
    # one row per block, two, three, all 17 but one, all 17 in one block
    # exactly, and the shipped size
    @pytest.mark.parametrize("block", [6, 12, 18, 96, 102, WRITE_BLOCK_CELLS])
    def test_bytes_at_the_block_boundaries(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(fileio, "WRITE_BLOCK_CELLS", block)
        sizes = recorded_sizes(monkeypatch)
        g = rotate(golden_spiral_saa(17, 0.5), random_rotation(np.random.default_rng(block)))
        path = tmp_path / "geometry.csv"
        write_geometry_csv(path, g)
        rows = ([str(k), *g.positions[k], *g.normals[k]] for k in range(g.n))
        assert path.read_bytes() == per_value_text(GEOMETRY_HEADER, rows).encode("utf-8")
        assert sum(sizes) == 7 * g.n
        assert max(sizes) <= block


class TestAngularCsv:
    def test_round_trip_preserves_zeros_and_values(self, tmp_path):
        g = golden_spiral_saa(25, 0.5)
        spec = AngularSweepSpec(theta_samples=13, phi_samples=17)
        grid = angular_sweep(g, 0.01, FOCAL, spec)
        path = tmp_path / "beam.csv"
        write_angular_csv(path, grid)

        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == ANGULAR_HEADER

        theta_axis, phi_axis, power = read_angular_csv(path)
        assert_array_equal(theta_axis, grid.theta_axis)
        assert_array_equal(phi_axis, grid.phi_axis)
        # exact zeros survive the dB round trip exactly, positive values
        # only up to the 10**(log10(x)) rounding
        assert_array_equal(power == 0.0, grid.power == 0.0)
        pos = grid.power > 0.0
        assert_allclose(power[pos], grid.power[pos], rtol=1e-13)

    def test_reader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope,nope\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_angular_csv(path)
        assert err.value.line == 1

    def test_reader_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(ANGULAR_HEADER + "\n0,0,-3\n0,1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_angular_csv(path)
        assert err.value.line == 3

    def test_reader_rejects_ragged_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [ANGULAR_HEADER, "0,0,-3", "0,1,-3", "1,0,-3"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_angular_csv(path)

    @pytest.mark.parametrize("body", ["", "\n \n\n"], ids=["header_only", "blank_lines"])
    def test_reader_rejects_empty_table(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(ANGULAR_HEADER + "\n" + body, encoding="utf-8")
        with pytest.raises(ParseError, match="^no data rows$"):
            read_angular_csv(path)

    def test_reader_rejects_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(ANGULAR_HEADER + "\n0,0,banana\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_angular_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1,nan", "finite number"),
            ("1,1,inf", "finite number"),
            ("1,1,-inf", "finite number"),
            ("1,nan,-3", "finite number"),
            ("1,1,4000", "power_db '4000' overflows linear power"),
        ],
    )
    def test_reader_rejects_non_finite_and_overflowing_fields(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([ANGULAR_HEADER, "0,0,-3", "0,1,-3", "1,0,-3", row]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message) as err:
            read_angular_csv(path)
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,0,-3", "0,1,-3", "1,5,-3", "1,6,-3"], "phi values"),
            (["0,0,-3", "0,1,-3", "1,0,-3", "1,1,-3", "0,0,-3", "0,1,-3"], "strictly increasing"),
            (["0,1,-3", "0,0,-3", "1,1,-3", "1,0,-3"], "phi values decrease"),
            # theta runs of 2, 1 and 3 rows over a phi axis that repeats
            (["0,0,-3", "0,1,-3", "1,0,-3", "2,1,-3", "2,0,-3", "2,1,-3"], "ragged"),
        ],
    )
    def test_reader_rejects_malformed_grids(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([ANGULAR_HEADER, *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            read_angular_csv(path)


class TestAngularCsvBulk:
    """Row-wise writing and chunked reading give the per-cell bytes and values."""

    # a block is a run of whole theta rows: (100, 50) takes a full block of
    # 81 rows and a last one of 19, (3, 2500) one row per block, and the
    # rows of (3, WRITE_BLOCK_CELLS + 905) are longer than a block, so each
    # is written in two segments
    @pytest.mark.parametrize(
        "shape", [(2, 2), (7, 13), (31, 9), (45, 50), (100, 50), (3, 2500), (3, WRITE_BLOCK_CELLS + 905)]
    )
    def test_writer_bytes_equal_per_cell_formatting(self, tmp_path, shape):
        grid = random_grid(np.random.default_rng(sum(shape)), *shape)
        assert np.any(grid.power == 0.0)
        path = tmp_path / "beam.csv"
        write_angular_csv(path, grid)
        assert path.read_bytes() == per_cell_angular_text(grid).encode("utf-8")
        assert b",-300\n" in path.read_bytes()

    # with 7-cell blocks: rows shorter than a block, whose count is not a
    # multiple of the rows per block, rows of exactly one block, rows one
    # cell longer, and rows of several whole and partial segments
    @pytest.mark.parametrize("phi_samples", [2, 3, 6, 7, 8, 15, 22])
    def test_writer_bytes_at_the_block_boundaries(self, tmp_path, monkeypatch, phi_samples):
        monkeypatch.setattr(fileio, "WRITE_BLOCK_CELLS", 7)
        grid = random_grid(np.random.default_rng(phi_samples), 5, phi_samples)
        path = tmp_path / "beam.csv"
        write_angular_csv(path, grid)
        assert path.read_bytes() == per_cell_angular_text(grid).encode("utf-8")

    @pytest.mark.parametrize(
        "block, shape", [(7, (5, 3)), (7, (4, 7)), (7, (3, 22)), (None, (100, 50)), (None, (3, WRITE_BLOCK_CELLS + 905))]
    )
    def test_writer_formats_at_most_one_block_of_values_at_once(self, tmp_path, monkeypatch, block, shape):
        if block is not None:
            monkeypatch.setattr(fileio, "WRITE_BLOCK_CELLS", block)
        sizes = recorded_sizes(monkeypatch)
        write_angular_csv(tmp_path / "beam.csv", random_grid(np.random.default_rng(5), *shape))
        assert sum(sizes) == shape[0] * shape[1]
        assert max(sizes) <= fileio.WRITE_BLOCK_CELLS

    @pytest.mark.parametrize(
        "make",
        [exponent_axes_grid, pole_rows_grid, swept_2x2_grid, focal_normalized_grid],
        ids=["exponent_axes", "pole_rows", "swept_2x2", "focal_normalized"],
    )
    def test_writer_bytes_on_edge_grids(self, tmp_path, make):
        grid = make()
        assert np.any(grid.power == 0.0)
        path = tmp_path / "beam.csv"
        write_angular_csv(path, grid)
        assert path.read_bytes() == per_cell_angular_text(grid).encode("utf-8")
        assert b",-300\n" in path.read_bytes()

    def test_writer_bytes_on_a_non_contiguous_power_array(self, tmp_path):
        grid = random_grid(np.random.default_rng(13), 40, 30)
        grid = replace(grid, power=np.asfortranarray(grid.power))
        assert not grid.power.flags.c_contiguous
        path = tmp_path / "beam.csv"
        write_angular_csv(path, grid)
        assert path.read_bytes() == per_cell_angular_text(grid).encode("utf-8")

    def test_writer_bytes_on_a_swept_grid_with_a_dark_rear(self, tmp_path):
        spec = AngularSweepSpec(theta_samples=19, phi_samples=23)
        grid = angular_sweep(upa(16, 0.005), 0.01, FOCAL, spec)
        path = tmp_path / "beam.csv"
        write_angular_csv(path, grid)
        assert path.read_bytes() == per_cell_angular_text(grid).encode("utf-8")
        assert b",-300\n" in path.read_bytes()

    @pytest.fixture()
    def large(self, tmp_path):
        grid = random_grid(np.random.default_rng(11), 60, 70)
        path = tmp_path / "large.csv"
        write_angular_csv(path, grid)
        assert path.stat().st_size > 3 * READ_CHUNK_BYTES
        return grid, path

    def test_multi_chunk_round_trip_is_bitwise(self, large):
        grid, path = large
        theta_axis, phi_axis, power = read_angular_csv(path)
        assert_bits_equal(theta_axis, grid.theta_axis)
        assert_bits_equal(phi_axis, grid.phi_axis)
        assert_bits_equal(power, expected_linear(grid))

    def test_blank_lines_are_skipped_across_chunks(self, large):
        grid, path = large
        lines = path.read_text(encoding="utf-8").splitlines()
        padded = [lines[0]]
        for k, line in enumerate(lines[1:]):
            padded.append(line)
            if k % 97 == 0:
                padded.extend(["", "   ", "\t"])
        path.write_text("\n".join(padded) + "\n\n", encoding="utf-8")
        theta_axis, phi_axis, power = read_angular_csv(path)
        assert_bits_equal(theta_axis, grid.theta_axis)
        assert_bits_equal(phi_axis, grid.phi_axis)
        assert_bits_equal(power, expected_linear(grid))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (["0,0,banana"], "could not convert"),
            (["0,1"], "expected 3 fields, got 2"),
            (["0,1,2,3", "0,1"], "expected 3 fields, got 4"),
            (["0,,-3"], "could not convert"),
            (["0,0,nan"], "finite number"),
            (["0,0,4000"], "overflows linear power"),
        ],
    )
    def test_bad_row_in_a_later_chunk_reports_its_line(self, large, bad, message):
        _, path = large
        lines = path.read_text(encoding="utf-8").splitlines()
        target = len(lines) // 2
        assert sum(len(line) + 1 for line in lines[:target]) > READ_CHUNK_BYTES
        # blank lines before the bad row, in its chunk and in the first one,
        # still count toward its number
        lines[3] = lines[target - 5] = ""
        lines[target : target + len(bad)] = bad
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message) as err:
            read_angular_csv(path)
        assert err.value.line == target + 1


    def test_reader_matches_the_line_by_line_parse(self, large):
        grid, path = large
        lines = path.read_text(encoding="utf-8").splitlines()
        # some axis values written a second way, as 0.50 next to 0.5
        rewritten = 0
        for k in range(1, len(lines), 3):
            th, ph, db = lines[k].split(",")
            if "." in th and "e" not in th:
                th += "0"
            if "." in ph and "e" not in ph and k % 2:
                ph += "00"
            rewritten += f"{th},{ph},{db}" != lines[k]
            lines[k] = f"{th},{ph},{db}"
        assert rewritten > 1000
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        parsed = np.array([_split_csv_line(line, 3, n) for n, line in enumerate(lines[1:], start=2)])
        theta_axis, phi_axis, power = read_angular_csv(path)
        t_n, p_n = grid.power.shape
        assert_bits_equal(np.repeat(theta_axis, p_n), parsed[:, 0])
        assert_bits_equal(np.tile(phi_axis, t_n), parsed[:, 1])
        assert_bits_equal(power.ravel(), parsed[:, 2])
        assert_bits_equal(power, expected_linear(grid))


class TestDistanceCsv:
    def test_round_trip(self, tmp_path):
        g = golden_spiral_saa(30, 0.5)
        pattern = distance_sweep(g, 0.01, SphericalPoint(30.0, 1.0, 1.0), samples=64)
        path = tmp_path / "focus.csv"
        write_distance_csv(path, pattern)
        assert path.read_text(encoding="utf-8").splitlines()[0] == DISTANCE_HEADER
        r_axis, power = read_distance_csv(path)
        assert_array_equal(r_axis, pattern.r_axis)
        assert_allclose(power, pattern.power, rtol=1e-13)

    def test_reader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(ANGULAR_HEADER + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_distance_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan,-3", "finite number"),
            ("2,inf", "finite number"),
            ("2,4000", "power_db '4000' overflows linear power"),
        ],
    )
    def test_reader_rejects_non_finite_and_overflowing_fields(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([DISTANCE_HEADER, "1,-3", row, "3,-3"]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message) as err:
            read_distance_csv(path)
        assert err.value.line == 3

    def test_reader_rejects_a_backward_r_axis_and_accepts_ties(self, tmp_path):
        path = tmp_path / "focus.csv"
        path.write_text("\n".join([DISTANCE_HEADER, "5,-3", "4,-3", "6,-3"]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="r values decrease"):
            read_distance_csv(path)
        path.write_text("\n".join([DISTANCE_HEADER, "5,-3", "5,-2", "6,-3"]) + "\n", encoding="utf-8")
        r_axis, _ = read_distance_csv(path)
        assert r_axis.tolist() == [5.0, 5.0, 6.0]

    def test_writer_bytes_equal_per_value_formatting(self, tmp_path):
        swept = distance_sweep(golden_spiral_saa(30, 0.5), 0.01, SphericalPoint(30.0, 1.0, 1.0), samples=64)
        power = np.random.default_rng(8).random(4000) ** 8
        power[::7] = 0.0
        power[1::11] = 5e-324
        floored = DistancePattern(
            r_axis=np.linspace(5.0, 100.0, 4000), power=power, focal=SphericalPoint(30.0, 1.0, 1.0)
        )
        for pattern in (swept, floored):
            path = tmp_path / "focus.csv"
            write_distance_csv(path, pattern)
            rows = zip(pattern.r_axis, to_db(pattern.power))
            assert path.read_bytes() == per_value_text(DISTANCE_HEADER, rows).encode("utf-8")
        assert b",-300\n" in path.read_bytes()


    # a block is WRITE_BLOCK_CELLS samples: one per block, two, all 23 but
    # one, all 23 in one block exactly, and the shipped size
    @pytest.mark.parametrize("block", [1, 2, 22, 23, WRITE_BLOCK_CELLS])
    def test_writer_bytes_at_the_block_boundaries(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(fileio, "WRITE_BLOCK_CELLS", block)
        sizes = recorded_sizes(monkeypatch)
        power = np.random.default_rng(block).random(23) ** 8
        power[::5] = 0.0
        pattern = DistancePattern(
            r_axis=np.linspace(5.0, 100.0, 23), power=power, focal=SphericalPoint(30.0, 1.0, 1.0)
        )
        path = tmp_path / "focus.csv"
        write_distance_csv(path, pattern)
        rows = zip(pattern.r_axis, to_db(pattern.power))
        assert path.read_bytes() == per_value_text(DISTANCE_HEADER, rows).encode("utf-8")
        assert sum(sizes) == 2 * 23
        assert max(sizes) <= block

    def test_multi_chunk_reader_matches_the_line_by_line_parse(self, tmp_path):
        power = np.random.default_rng(9).random(6000) ** 8
        power[::13] = 0.0
        pattern = DistancePattern(
            r_axis=np.linspace(5.0, 100.0, 6000), power=power, focal=SphericalPoint(30.0, 1.0, 1.0)
        )
        path = tmp_path / "focus.csv"
        write_distance_csv(path, pattern)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(path.read_bytes()) > 3 * READ_CHUNK_BYTES
        parsed = np.array([_split_csv_line(line, 2, n) for n, line in enumerate(lines[1:], start=2)])
        r_axis, linear = read_distance_csv(path)
        assert_bits_equal(r_axis, parsed[:, 0])
        assert_bits_equal(linear, parsed[:, 1])

        # an overflowing dB value in a later chunk names its own line
        target = len(lines) - 7
        lines[target] = lines[target].split(",")[0] + ",4000"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="overflows linear power") as err:
            read_distance_csv(path)
        assert err.value.line == target + 1


class TestPlatformDeterminism:
    """The pattern readers convert dB to linear power with ``math.pow(10.0,
    q)``; the line-by-line parse uses the scalar ``10.0 ** q``. Both call
    libm ``pow``, so they must agree on every value the presets write."""

    def test_math_pow_equals_scalar_power_on_every_preset(self, tmp_path):
        checked = 0
        for name in ("fig4_saa", "fig4_upa", "fig5_r05", "fig5_r1", "fig5_r2"):
            out = tmp_path / name
            run_scenario(load_preset(name), out, threads=1)
            for path in sorted(out.glob("*.csv")):
                lines = path.read_text(encoding="utf-8").splitlines()
                if lines[0] not in (ANGULAR_HEADER, DISTANCE_HEADER):
                    continue
                for line in lines[1:]:
                    db = float(line.rpartition(",")[2])
                    if db > DB_FLOOR:
                        q = db / 10.0
                        assert math.pow(10.0, q) == 10.0**q, (path.name, line)
                        checked += 1
        assert checked > 350_000


class TestMeta:
    def test_round_trip_and_comments(self, tmp_path):
        path = tmp_path / "run.meta"
        write_meta(path, {"kind": "spiral_saa", "n": 100, "radius": 0.5, "skipped": ""})
        text = path.read_text(encoding="utf-8")
        assert "kind = spiral_saa" in text
        got = read_meta(path)
        assert got == {"kind": "spiral_saa", "n": "100", "radius": "0.5", "skipped": ""}

    def test_reader_skips_blanks_and_comments(self, tmp_path):
        path = tmp_path / "run.meta"
        path.write_text("# comment\n\nalpha = 1\n  # indented comment\nbeta = two words\n", encoding="utf-8")
        assert read_meta(path) == {"alpha": "1", "beta": "two words"}

    @pytest.mark.parametrize(
        "reader, header",
        [(read_meta, ""), (read_angular_csv, ANGULAR_HEADER + "\n"), (read_distance_csv, DISTANCE_HEADER + "\n")],
        ids=["meta", "angular", "distance"],
    )
    def test_undecodable_bytes_are_a_parse_error(self, tmp_path, reader, header):
        path = tmp_path / "bad.txt"
        path.write_bytes(header.encode("utf-8") + b"\xff\xfe\x00\n")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            reader(path)

    def test_reader_flags_malformed_lines(self, tmp_path):
        path = tmp_path / "run.meta"
        path.write_text("alpha = 1\nno separator here\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_meta(path)
        assert err.value.line == 2

        path.write_text("= orphan value\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_meta(path)
        assert err.value.line == 1


def _read_text_meta(tmp_path, text):
    path = tmp_path / "run.meta"
    path.write_text(text, encoding="utf-8")
    return read_meta(path)


class TestKeyValueLines:
    @pytest.mark.parametrize(
        "reader",
        [_read_text_meta, lambda tmp_path, text: parse_scenario(text)],
        ids=["read_meta", "parse_scenario"],
    )
    @pytest.mark.parametrize("line", ["no separator here", "= 5"], ids=["no_equals", "empty_key"])
    def test_malformed_line_is_a_parse_error_naming_its_line(self, tmp_path, reader, line):
        with pytest.raises(ParseError) as err:
            reader(tmp_path, f"# header comment\nkind = spiral_saa\n\n{line}\n")
        assert err.value.line == 4


def fmt_lines_text(header, rows) -> bytes:
    """Reference table writer: each row's values through ``fmt``, joined by commas."""
    return "".join(line + "\n" for line in [header, *(",".join(map(fmt, row)) for row in rows)]).encode()


NAN, INF = math.nan, math.inf
# rows of METRICS_HEADER: a measured beam, a degenerate (NaN) beam, signed
# zeros, infinities, values at the ends of the exponent range, no rows, and
# more rows than one block
METRICS_ROWS = {
    "measured": [(0.5, 0.5, 0.5, 0.5, 0.0, 0.1, 0.2, -12.5)],
    "degenerate": [(0.5, 0.5, NAN, NAN, NAN, NAN, NAN, NAN), (0.7, 0.1, 0.7, 0.1, 0.0, 0.02, 0.03, -8.0)],
    "signed_zeros": [(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0)],
    "infinite": [(INF, -INF, 1.0, -1.0, INF, -INF, 0.0, -INF)],
    "extreme": [(1e-300, 1e300, -1e-300, -1e300, 5e-324, 1.7976931348623157e308, 1e-5, 1e16)],
    "empty": [],
    "past_one_block": [tuple(row) for row in np.random.default_rng(6).normal(0.0, 10.0, (700, 8))],
}
# rows of FOCUS_HEADER, whose last column is the one-sided flag
FOCUS_ROWS = {
    "measured": [(0.5, 0.5, 30.0, 4.0, 0.01, True), (0.7, 0.1, 29.0, 3.0, 0.02, False)],
    "degenerate": [(0.5, 0.5, NAN, NAN, NAN, False), (0.7, 0.1, 29.0, 3.0, -0.0, True)],
    "signed_zeros": [(-0.0, 0.0, 30.0, -0.0, 0.0, False)],
    "infinite": [(0.5, 0.5, INF, -INF, INF, True)],
    "extreme": [(1e-300, 1e300, 5e-324, 1e-4, 9.999999999999999e15, False)],
    "empty": [],
}


class TestRowTables:
    @pytest.mark.parametrize("case", list(METRICS_ROWS))
    def test_metrics_table_shape(self, tmp_path, case):
        rows = METRICS_ROWS[case]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        assert path.read_bytes() == fmt_lines_text(METRICS_HEADER, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == len(rows) + 1
        values = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert_array_equal(np.reshape(values, (-1, 8)), np.reshape(rows, (-1, 8)))

    @pytest.mark.parametrize("case", list(FOCUS_ROWS))
    def test_focus_table_flag_column(self, tmp_path, case):
        rows = FOCUS_ROWS[case]
        path = tmp_path / "focus.csv"
        write_focus_csv(path, rows)
        assert path.read_bytes() == fmt_lines_text(FOCUS_HEADER, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == FOCUS_HEADER
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["1" if row[-1] else "0" for row in rows]


def _keys(record):
    return [key for key, _ in figures(record)]


class TestFigureKeys:
    # every output names a figure by the key declared on its metrics field

    def test_table_columns_after_the_focal_pair_are_the_figure_keys(self):
        for header, record in ((METRICS_HEADER, BeamMetrics), (FOCUS_HEADER, FocusMetrics)):
            columns = header.split(",")
            assert columns[:2] == ["focal_theta", "focal_phi"]
            assert columns[2:] == _keys(record)

    def test_metric_entries_are_the_figure_keys_then_peak_capture(self):
        beam = BeamMetrics(*(0.5,) * 6)
        assert [key for key, _ in metric_entries(beam)] == _keys(BeamMetrics)
        captured = replace(beam, peak_capture=0.9)
        assert [key for key, _ in metric_entries(captured)] == [*_keys(BeamMetrics), "peak_capture"]
        focus = FocusMetrics(1.0, 2.0, 0.0, one_sided=True)
        assert metric_entries(focus) == [*zip(_keys(FocusMetrics), ["1", "2", "0", "1"])]

    def test_isotropy_entries_of_a_two_beam_run_are_the_report_figure_keys(self, tmp_path):
        text = (
            "kind = spiral_saa\nn = 16\nradius = 0.3\nwavelength = 0.05\n"
            "focal = 10, pi/4, pi/4\nfocal = 10, pi/3, 1\n"
            "sweep = angle\ntheta_samples = 19\nphi_samples = 19\neval_range = 10\n"
        )
        out = tmp_path / "run"
        assert run_scenario(parse_scenario(text), out) == 0
        report = read_meta(out / "metrics.txt")
        isotropy = [key.removeprefix("isotropy.") for key in report if key.startswith("isotropy.")]
        assert isotropy == _keys(IsotropyReport) == ["hpbw_theta_ratio", "hpbw_phi_ratio", "sidelobe_spread_db"]
