"""Benchmark of spherebeam: wall time, peak memory and set-up time of four workloads.

    python3 perfbench/run.py --workload overlay_saa8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own worker process at ``threads=1`` (see
``worker.py``), and every output it produces is checked. With ``--trace 0``
the last line of standard output is a JSON object holding ``correct``,
``attempted``, ``failed`` and the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it holds the per-layer metrics instead. ``setup_s`` is
the median over two set-up-only workers and the measuring worker. With
``--workload all`` the metrics are keyed ``<workload>.<metric>``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0


def worker(workload: str, seed: int, seconds: float, deadline: float, *flags: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, "--seed", str(seed), "--seconds", str(seconds), *flags]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    if trace:
        return worker(workload, seed, seconds, deadline, "--trace")
    probes = [worker(workload, seed, seconds, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    result = worker(workload, seed, seconds, deadline)
    result["setup_s"] = statistics.median(probes + [result["setup_s"]])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "spherebeam" / "__init__.py").is_file():
        print(f"error: no spherebeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}, expected one of {', '.join(names)}", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else [args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in chosen:
        result = measure(name, args.seed, args.seconds, bool(args.trace), time.monotonic() + TIME_LIMIT_S)
        for problem in result["problems"]:
            print(f"{name}: check failed: {problem}", file=sys.stderr)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        print(f"{name}: {result['attempted']} operations attempted, {result['failed']} failed, "
              f"{result['timed_ops']} timed ({result['op_s_range'][0]:.4g} to {result['op_s_range'][1]:.4g} s), "
              f"outputs {'correct' if result['correct'] else 'WRONG'}")
        for metric in wanted:
            key = metric["name"] if len(chosen) == 1 else f"{name}.{metric['name']}"
            summary["metrics"][key] = {"value": result[metric["name"]], "unit": metric["unit"]}
            print(f"  {metric['name']} = {result[metric['name']]:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
