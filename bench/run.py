"""rotavg benchmark: one workload, one process, one JSON result.

    python3 bench/run.py --workload average-r5 --seed 1 --seconds 20 --trace 0

Runs the workload's fixed item set (its rounds, scaled by --seconds / 20)
through `rotavg.cli.main` in this single-threaded process, checks every
output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 the same items run with every layer wrapped (bench/layers.py,
bench/spans.py) and the metrics are per layer. Times are corrected for the
host's speed (bench/hostclock.py). The line before it records the host, the
thread settings, the sample counts and the uncorrected times. Exits 1 if
any output is wrong, 2 if the source tree is missing. See bench/README.md.
"""

import os

# pin every BLAS / OpenMP pool to one thread before numpy can be imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402

from hostclock import HostClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7  # this process plus six fresh child processes
# a valid three-rotation input for the warm-up call
WARMUP_INPUT = {"rotations": [{"quaternion": [1, 0, 0, 0]}, {"quaternion": [0.6, 0.8, 0, 0]}, {"quaternion": [0.6, 0, 0.8, 0]}]}


def timed_setup(warmup_input, clock):
    """Import rotavg and its CLI, then run one tiny command: corrected
    seconds taken."""
    mark = clock.start()
    import rotavg  # noqa: F401
    import rotavg.cli

    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        rc = rotavg.cli.main(["average", "--input", str(warmup_input), "--starts", "4"])
    if rc != 0:
        raise RuntimeError(f"warm-up average exited {rc}")
    return clock.elapsed(mark)[1]


def child_setup_s(warmup_input):
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup", str(warmup_input)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail(sorted_values):
    """The highest percentile with at least ten samples beyond it, and that
    percentile. With twenty samples or fewer no percentile above the median
    qualifies, and the median (percentile 50) stands in."""
    n = len(sorted_values)
    if n <= 20:
        return statistics.median(sorted_values), 50.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def run_items(rounds, tracer, oracle, clock):
    """Closed loop over every item: corrected and wall latencies, and the
    merged verdicts (items attempted, failed, failure notes, wrong outputs)."""
    import rotavg.cli

    latencies, wall, attempted, failed, notes, wrong = [], [], 0, 0, [], []
    for rnd in rounds:
        for item in rnd:
            out = StringIO()
            with redirect_stdout(out), redirect_stderr(StringIO()):
                mark = clock.start()
                rc = rotavg.cli.main(item.argv)
                w, t = clock.elapsed(mark)
            wall.append(w)
            latencies.append(t)
            with tracer.tracing(False):
                v = item.check(rc, out.getvalue(), oracle)
            attempted += v.attempted
            failed += min(len(v.failures), v.attempted)
            notes += [f"{item.label}: {f}" for f in v.failures]
            wrong += v.wrong
    return latencies, wall, attempted, failed, notes, wrong


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="average-r5, average-r1000, sweep-p4 or check-1000")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="WARMUP_JSON", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "rotavg" / "__init__.py").is_file():
        print(f"error: no rotavg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        with HostClock() as clock:
            setup_s = timed_setup(args.probe_setup, clock)
        print(setup_s)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmup = workdir / "warmup.json"
        warmup.write_text(json.dumps(WARMUP_INPUT))
        with HostClock() as clock:
            setups = [timed_setup(warmup, clock)]
        setups += [child_setup_s(warmup) for _ in range(SETUP_REPEATS - 1)]

        import numpy as np
        import rotavg.solvers
        from layers import install, metrics as layer_metrics
        from spans import Tracer
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        n_rounds = workload.n_rounds(args.seconds)
        rounds = workload.make_rounds(args.seed, n_rounds, workdir)
        tracer = Tracer()

        def oracle(samples):
            with tracer.tracing(True):
                return rotavg.solvers.eigen_oracle_l2(samples)

        if args.trace:
            install(tracer)
        try:
            with HostClock() as clock:
                latencies, wall, attempted, failed, notes, wrong = run_items(rounds, tracer, oracle, clock)
        finally:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall_s = sum(latencies)
    lat = sorted(latencies)
    tail_s, tail_pct = tail(lat)
    info = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "rounds": n_rounds,
        "items": len(lat),
        "tail_percentile": round(tail_pct, 2),
        "item_ms": [round(1e3 * t, 1) for t in latencies],
        "item_wall_ms": [round(1e3 * t, 1) for t in wall],
        "wall_s_uncorrected": sum(wall),
        "probe_us_mean": 1e6 * sum(clock.probe_s) / len(clock.probe_s),
        "setup_samples_s": setups,
        "failures": notes[:20],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    if args.trace:
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["spans_dropped"] = tracer.spans_dropped
        metrics = layer_metrics(tracer, wall_s)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "solve_ms_p50": (1e3 * statistics.median(lat), "ms"),
            "solve_ms_tail": (1e3 * tail_s, "ms"),
            "success_ratio": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({"info": info}))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
