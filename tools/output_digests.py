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

The runs: every preset at 1 and 2 threads, edge runs (a planar array with
a rear focal point, fixed rings with focal normalization, one element in
an angular and in a distance sweep, a distance sweep with and without a
visible focal point, a two-ring-element run at ``grid_max`` whose second
beam lights no grid cell, two beams of a 64-element spiral at 2 threads
whose focal points lie in one hemisphere, so together they weight 36 of
the 64 elements, a one-beam 3 x 569 grid of that spiral whose beam
weights 30 elements, so its 1707 cells make blocks of 853, 853 and one
probe, and the last block takes the one-target sum, a 3 x 4500 grid
whose phi rows are longer than one write block of
``fileio.WRITE_BLOCK_CELLS`` values, a distance sweep of
a 162-element polyhedral array at 2 threads whose ray only 80 of the
elements can face, a distance window narrower than the spacing of
doubles near its range, so its CSV repeats ``r`` values), ``metrics`` on emitted CSVs (the unlit beam's and the
narrow window's among them) and on two CSVs whose ``r`` or ``phi`` axis
runs backwards, ``--help`` of
``geometry``, ``pattern angle`` and ``pattern distance`` at 80 columns,
and runs that fail on a bad value or on a rule across keys. The input
files that runs read are written into the working directory first.
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

# file name -> text, written into the working directory before the runs
INPUTS = {
    "distance_theta_samples.cfg": (
        "kind = upa\nn = 16\nspacing = 0.025\nwavelength = 0.05\nfocal = 10, pi/4, 0.5\n"
        "sweep = distance\nr_min = 5\nr_max = 20\nr_samples = 16\ntheta_samples = 19\n"
    ),
    "backward_r.csv": "r_m,power_db\n5,-3\n4,-1\n6,-6\n",
    "backward_phi.csv": "theta_rad,phi_rad,power_db\n0,1,-3\n0,0,-1\n1,1,-6\n1,0,-2\n",
}

# (name, arguments); a run that writes files names its --out after itself,
# and runs may read what earlier runs wrote
RUNS = [
    *(
        (f"{preset}_t{threads}", ("run", "--preset", preset, "--threads", str(threads)))
        for preset in PRESETS
        for threads in (1, 2)
    ),
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
    ("upa_distance", ("pattern", "distance", *UPA, "--focal", FRONT, *WINDOW, "--r-samples", "64")),
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
    ("help_geometry", ("geometry", "--help")),
    ("help_pattern_angle", ("pattern", "angle", "--help")),
    ("help_pattern_distance", ("pattern", "distance", "--help")),
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
            out = () if args[0] == "metrics" or "--help" in args else ("--out", name)
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
