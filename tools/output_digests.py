"""Digest every output of a fixed set of ``spherebeam`` runs.

Runs ``python -m spherebeam.cli`` from the ``src/`` of one checkout in a
fresh temporary working directory, with relative ``--out`` names, so no
path differs between two runs. Prints, sorted, ``sha256  path`` for every
file the runs leave, then ``exit  sha256(stdout)  sha256(stderr)  name``
for every command. Two checkouts print the same lines when every file,
message and exit code agrees byte for byte:

    git worktree add ../parent HEAD~1
    python tools/output_digests.py --src ../parent > parent.txt
    python tools/output_digests.py > change.txt
    diff parent.txt change.txt

The runs: every preset at 1 and 2 threads, a ``geometry`` run of every
array kind and one of 10242 elements, more rows than one write block of
``fileio.WRITE_BLOCK_CELLS`` values, edge runs (a planar array with a
front and a rear focal point, with both twice, in an angular and in a
distance sweep, so each copy is written or skipped under its own index,
and with a rear one alone, whose angular sweep skips it and fails, fixed
rings with focal normalization, one element in an angular and in a
distance sweep, a distance sweep with and without a visible focal point, a
two-ring-element run at ``grid_max`` whose second beam lights no grid
cell, two beams of a 64-element spiral at 2 threads whose focal points lie
in one hemisphere, so together they weight 36 of the 64 elements, a
one-beam 3 x 569 grid of that spiral whose beam weights 30 elements, so
its 1707 cells make blocks of 853, 853 and one probe, and the last block
takes the one-target sum, a 3 x 4500 grid whose phi rows are longer than
one write block of ``fileio.WRITE_BLOCK_CELLS`` values, a distance sweep
of 9000 samples, more than one write block, a distance sweep of a
162-element polyhedral array at 2 threads whose ray only 80 of the
elements can face, a distance window narrower than the spacing of doubles
near its range, so its CSV repeats ``r`` values), ``metrics`` on emitted
CSVs (the unlit beam's and the narrow window's among them) and on two CSVs
whose ``r`` or ``phi`` axis runs backwards, ``--help`` of ``geometry``,
``pattern angle`` and ``pattern distance`` at 80 columns, and runs that
fail on an unknown kind, on a bad value, on a rule across keys or, in
either sweep kind, on probe powers that overflow although the focal
channel energy does not, and runs that must exit 1 and leave no file: a
``geometry`` run whose ``--out`` holds a line break, a ``run`` whose
``--threads`` does, ``metrics`` on an emitted CSV with a line-broken
``--focal``, and ``run --preset ../presets/fig5_r1``, a path where a preset
name belongs, and ``metrics`` on four small angular CSVs that the reader
parses line by line or whose line ends differ from the writer's: one with
CRLF line ends, one padded with blank and whitespace-only lines, one
without a final line break, and one whose lines ``0,1,2,3`` and ``0,1``
hold as many commas as two good lines, which must exit 1 naming its line.
The input files that runs read are written into the working directory
first.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("fig4_saa", "fig4_upa", "fig5_r05", "fig5_r1", "fig5_r2")

UPA = ("--kind", "upa", "--n", "16", "--spacing", "0.025", "--wavelength", "0.05")
SMALL_GRID = ("--theta-samples", "19", "--phi-samples", "19", "--eval-range", "10")
WINDOW = ("--r-min", "5", "--r-max", "20")
FRONT, REAR = "10, pi/4, 0.5", "10, 3pi/4, 0.5"
REPEATED = ("--focal", FRONT, "--focal", REAR) * 2
# the focal channel energy of this array is finite at this wavelength, the
# powers at probes 0.5 m out are not
PROBE_OVERFLOW = (
    "--kind", "spiral_saa", "--n", "16", "--radius", "0.3", "--wavelength", "1e155", "--focal", "10, pi/4, pi/4",
)

# file name -> text, written into the working directory before the runs
INPUTS = {
    "distance_theta_samples.cfg": (
        "kind = upa\nn = 16\nspacing = 0.025\nwavelength = 0.05\nfocal = 10, pi/4, 0.5\n"
        "sweep = distance\nr_min = 5\nr_max = 20\nr_samples = 16\ntheta_samples = 19\n"
    ),
    "backward_r.csv": "r_m,power_db\n5,-3\n4,-1\n6,-6\n",
    "backward_phi.csv": "theta_rad,phi_rad,power_db\n0,1,-3\n0,0,-1\n1,1,-6\n1,0,-2\n",
    "crlf.csv": "theta_rad,phi_rad,power_db\r\n0,0,-3\r\n0,1,-1\r\n1,0,-6\r\n1,1,-2\r\n",
    "padded.csv": "theta_rad,phi_rad,power_db\n\n0,0,-3\n   \n0,1,-1\n\t\n1,0,-6\n1,1,-2\n \n\n",
    "no_final_line_break.csv": "theta_rad,phi_rad,power_db\n0,0,-3\n0,1,-1\n1,0,-6\n1,1,-2",
    "compensating_commas.csv": "theta_rad,phi_rad,power_db\n0,0,-3\n0,1,2,3\n0,1\n1,1,-2\n",
}

# (name, arguments); a run that writes files and gives no --out names its
# --out after itself, and runs may read what earlier runs wrote
RUNS = [
    *(
        (f"{preset}_t{threads}", ("run", "--preset", preset, "--threads", str(threads)))
        for preset in PRESETS
        for threads in (1, 2)
    ),
    *(
        (f"geometry_{kind}", ("geometry", "--kind", kind, *flags))
        for kind, flags in (
            ("upa", ("--n", "16", "--spacing", "0.025")),
            ("spiral_saa", ("--n", "64", "--radius", "0.3")),
            ("ring_saa", ("--n-rings", "6", "--radius", "0.3")),
            ("polyhedral_saa", ("--subdivision", "1", "--radius", "0.3")),
            ("spiral_curve_saa", ("--n", "40", "--turns", "5", "--radius", "0.3")),
        )
    ),
    ("geometry_past_one_block", ("geometry", "--kind", "polyhedral_saa", "--subdivision", "5", "--radius", "0.3")),
    ("upa_front_rear", ("pattern", "angle", *UPA, "--focal", FRONT, "--focal", REAR, *SMALL_GRID)),
    (
        "ring_fixed_focal",
        (
            "pattern", "angle", "--kind", "ring_saa", "--n-rings", "4", "--ring-policy", "fixed:5",
            "--radius", "0.3", "--wavelength", "0.05", "--focal", "10, pi/3, pi/4",
            "--normalization", "focal", "--theta-samples", "19", "--phi-samples", "37", "--eval-range", "10",
        ),
    ),
    (
        "spiral_one_element",
        (
            "pattern", "angle", "--kind", "spiral_saa", "--n", "1", "--radius", "0.3", "--wavelength", "0.02",
            "--focal", "10, pi/4, pi/4", "--theta-samples", "2", "--phi-samples", "2", "--normalization", "focal",
        ),
    ),
    (
        "ring_unlit_beam",
        (
            "pattern", "angle", "--kind", "ring_saa", "--n-rings", "1", "--radius", "0.3", "--wavelength", "0.05",
            "--focal", "10, pi/2, 0", "--focal", "10, pi/2, pi", "--theta-samples", "3", "--phi-samples", "2",
            "--eval-range", "10",
        ),
    ),
    (
        "spiral_partial_beams",
        (
            "pattern", "angle", "--kind", "spiral_saa", "--n", "64", "--radius", "0.3", "--wavelength", "0.05",
            "--focal", "10, pi/4, pi/4", "--focal", "10, pi/3, pi/2", "--theta-samples", "37",
            "--phi-samples", "73", "--eval-range", "10", "--threads", "2",
        ),
    ),
    (
        "spiral_one_probe_last_block",
        (
            "pattern", "angle", "--kind", "spiral_saa", "--n", "64", "--radius", "0.3", "--wavelength", "0.05",
            "--focal", "10, pi/4, pi/4", "--theta-samples", "3", "--phi-samples", "569", "--eval-range", "10",
            "--threads", "1",
        ),
    ),
    (
        "spiral_long_phi_rows",
        (
            "pattern", "angle", "--kind", "spiral_saa", "--n", "16", "--radius", "0.3", "--wavelength", "0.05",
            "--focal", "10, pi/4, pi/4", "--theta-samples", "3", "--phi-samples", "4500", "--eval-range", "10",
        ),
    ),
    ("upa_angle_rear", ("pattern", "angle", *UPA, "--focal", REAR, *SMALL_GRID)),
    ("upa_angle_repeated", ("pattern", "angle", *UPA, *REPEATED, *SMALL_GRID)),
    ("upa_distance_repeated", ("pattern", "distance", *UPA, *REPEATED, *WINDOW, "--r-samples", "16")),
    ("upa_distance", ("pattern", "distance", *UPA, "--focal", FRONT, *WINDOW, "--r-samples", "64")),
    ("distance_past_one_block", ("pattern", "distance", *UPA, "--focal", FRONT, *WINDOW, "--r-samples", "9000")),
    ("upa_distance_rear", ("pattern", "distance", *UPA, "--focal", REAR, *WINDOW, "--r-samples", "16")),
    (
        "spiral_one_element_distance",
        (
            "pattern", "distance", "--kind", "spiral_saa", "--n", "1", "--radius", "0.3", "--wavelength", "0.05",
            "--focal", FRONT, *WINDOW, "--r-samples", "16",
        ),
    ),
    (
        "polyhedral_distance",
        (
            "pattern", "distance", "--kind", "polyhedral_saa", "--subdivision", "2", "--radius", "0.3",
            "--wavelength", "0.05", "--focal", FRONT, *WINDOW, "--r-samples", "64", "--threads", "2",
        ),
    ),
    (
        "upa_distance_narrow",
        (
            "pattern", "distance", *UPA, "--focal", "5, pi/4, 0.5",
            "--r-min", "5", "--r-max", "5.00000000000001", "--r-samples", "64",
        ),
    ),
    ("metrics_fig4_saa_beam_00", ("metrics", "fig4_saa_t1/beam_00.csv")),
    ("metrics_fig4_saa_beam_03", ("metrics", "fig4_saa_t1/beam_03.csv")),
    ("metrics_fig5_r1_focus_00", ("metrics", "fig5_r1_t1/focus_00.csv")),
    ("metrics_ring_unlit_beam_01", ("metrics", "ring_unlit_beam/beam_01.csv")),
    ("metrics_upa_distance_narrow_focus_00", ("metrics", "upa_distance_narrow/focus_00.csv")),
    ("metrics_backward_r", ("metrics", "backward_r.csv", "--focal", FRONT)),
    ("metrics_backward_phi", ("metrics", "backward_phi.csv", "--focal", FRONT)),
    *(
        (f"metrics_{stem}", ("metrics", f"{stem}.csv", "--focal", FRONT))
        for stem in ("crlf", "padded", "no_final_line_break", "compensating_commas")
    ),
    ("help_geometry", ("geometry", "--help")),
    ("help_pattern_angle", ("pattern", "angle", "--help")),
    ("help_pattern_distance", ("pattern", "distance", "--help")),
    ("error_unknown_kind", ("geometry", "--kind", "nonagon", "--n", "9")),
    ("error_radius", ("geometry", "--kind", "spiral_saa", "--n", "16", "--radius", "-1")),
    ("error_normalization", ("pattern", "angle", *UPA, "--focal", FRONT, "--normalization", "loud")),
    ("error_subdivision", ("geometry", "--kind", "polyhedral_saa", "--subdivision", "-1", "--radius", "0.3")),
    ("error_r_samples", ("pattern", "distance", *UPA, "--focal", FRONT, *WINDOW, "--r-samples", "1")),
    ("error_distance_theta_samples", ("run", "--scenario", "distance_theta_samples.cfg")),
    (
        "error_distance_focal_normalization",
        ("pattern", "distance", *UPA, "--focal", FRONT, *WINDOW, "--normalization", "focal"),
    ),
    (
        "error_eval_range_clearance",
        (
            "pattern", "angle", "--kind", "spiral_saa", "--n", "16", "--radius", "0.3", "--wavelength", "0.05",
            "--focal", FRONT, "--eval-range", "0.2",
        ),
    ),
    ("error_window_misses_focal", ("pattern", "distance", *UPA, "--focal", FRONT, "--r-min", "12", "--r-max", "20")),
    ("angle_probe_overflow", ("pattern", "angle", *PROBE_OVERFLOW, *SMALL_GRID[:4], "--eval-range", "0.5")),
    (
        "distance_probe_overflow",
        ("pattern", "distance", *PROBE_OVERFLOW, "--r-min", "0.5", "--r-max", "40", "--r-samples", "50"),
    ),
    (
        "error_out_line_break",
        ("geometry", "--kind", "spiral_saa", "--n", "16", "--radius", "0.3", "--out", "error_out\nline_break"),
    ),
    ("error_threads_line_break", ("run", "--preset", "fig5_r2", "--threads", "1\n")),
    ("error_focal_line_break", ("metrics", "fig5_r1_t1/focus_00.csv", "--focal", "10, pi/4,\npi/4")),
    ("error_preset_path", ("run", "--preset", "../presets/fig5_r1")),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(src: Path) -> list[str]:
    """The sorted file lines, then the sorted command lines, of every run."""
    # argparse wraps help to the terminal width
    env = dict(os.environ, PYTHONPATH=str(src / "src"), PYTHONDONTWRITEBYTECODE="1", COLUMNS="80")
    files, commands = [], []
    with tempfile.TemporaryDirectory(prefix="spherebeam-digests-") as work:
        for file_name, text in INPUTS.items():
            Path(work, file_name).write_text(text, encoding="utf-8")
        for name, args in RUNS:
            out = () if args[0] == "metrics" or "--help" in args or "--out" in args else ("--out", name)
            done = subprocess.run(
                [sys.executable, "-m", "spherebeam.cli", *args, *out],
                cwd=work, env=env, capture_output=True, check=False,
            )
            commands.append(f"{done.returncode}  {_sha(done.stdout)}  {_sha(done.stderr)}  {name}")
        for path in Path(work).rglob("*"):
            if path.is_file():
                files.append(f"{_sha(path.read_bytes())}  {path.relative_to(work).as_posix()}")
    return sorted(files) + sorted(commands)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ to run (default: the one holding this script)",
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "src" / "spherebeam" / "cli.py").is_file():
        parser.error(f"{src} has no src/spherebeam/cli.py")
    print("\n".join(digest_lines(src)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
