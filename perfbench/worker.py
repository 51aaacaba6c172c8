"""Run one workload in this process and print its figures as one JSON line.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S [--trace] [--setup-only]

``run.py`` starts one of these per workload, so that peak RSS is the
workload's own. Set-up time counts from before numpy and the package are
imported. After one warm-up round, rounds of the workload's operations run
until ``--seconds`` have passed. Each round's outputs are checked outside
the timed region; a failed operation reaches the check as ``None``. With
``--trace`` untraced and traced rounds alternate, which gives the
per-layer figures and the tracer's own overhead.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


class Runner:
    """Runs whole rounds of a workload's operations and keeps the tally."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def round(self, times: list, tracer=None, labels=None) -> None:
        results = []
        for op in self.workload.operations():
            self.attempted += 1
            label = f"op{self.attempted}"
            if tracer is not None:
                tracer.label = label
            start = time.perf_counter()
            try:
                result = op()
            except Exception:
                self.failed += 1
                traceback.print_exc()
                result = None
            else:
                times.append(time.perf_counter() - start)
                if labels is not None:
                    labels.append(label)
            finally:
                if tracer is not None:
                    tracer.label = None
            results.append(result)
        try:
            self.workload.check_round(results)
        except Exception as exc:
            self.problems.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc()

    def run_for(self, seconds: float, plain: list, tracer=None, traced=None, labels=None) -> None:
        """Whole rounds while the next one is expected to end within ``seconds``.

        Without a tracer every round is timed into ``plain``. With one, rounds
        alternate between untraced (into ``plain``) and traced (into
        ``traced``), so a drift in machine speed affects both alike.
        """
        start = time.perf_counter()
        end = start + seconds
        rounds = 0
        while True:
            if tracer is not None and rounds % 2:
                tracer.install()
                try:
                    self.round(traced, tracer, labels)
                finally:
                    tracer.uninstall()
            else:
                self.round(plain)
            rounds += 1
            now = time.perf_counter()
            if now + (now - start) / rounds > end and (tracer is None or rounds >= 2):
                return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import spherebeam

    if Path(spherebeam.__file__).resolve().parent != SRC / "spherebeam":
        print(f"error: imported spherebeam from {spherebeam.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    # fig4_saa warns for its two off-lattice beams on every run.
    warnings.simplefilter("ignore", spherebeam.MainLobeMissed)

    (STATE / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE / "work"))
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.label = "setup"
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            tracer.label = None
            tracer.uninstall()

        runner = Runner(workload)
        runner.round([])
        plain: list[float] = []
        traced: list[float] = []
        labels: list[str] = []
        runner.run_for(args.seconds, plain, tracer, traced, labels)
        if not plain or (tracer is not None and not traced):
            print("error: every timed operation failed", file=sys.stderr)
            return 1
        out = {}
        if tracer is not None:
            (STATE / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(STATE / "traces" / f"{args.workload}-seed{args.seed}.json")
            out = tracer.layer_metrics(labels)
            out["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        out.update(
            correct=not runner.problems,
            attempted=runner.attempted,
            failed=runner.failed,
            problems=runner.problems,
            setup_s=setup_s,
            wall_s=statistics.median(plain),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            timed_ops=len(plain),
            op_s_range=[min(plain), max(plain)],
        )
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
