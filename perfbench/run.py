"""Benchmark runner.

    python3 perfbench/run.py --workload adhoc_serial --seed 1 --seconds 30 --trace 0

Runs one workload in this process against the checkout's ``src/`` and prints,
as the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The line before it is a report: machine fingerprint, every
round's raw values, every host-scaled sample and host-speed reading, the
result checksum and the checks that passed.  A failed check exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pinned before NumPy is imported: the process re-executes itself when the
# environment differs, so hash order and BLAS threading never vary by caller.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# A run that hangs is killed (exit code 1) well inside the 180 s limit.
WATCHDOG_SECONDS = 170

UNITS = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_qps": "1/s",
    "ingest_items_s": "1/s",
    "fresh_p50_ms": "ms",
    "warm_start_s": "s",
    "snapshot_bytes_per_vector": "B",
    "quality": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("adhoc_serial", "served_live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg(),
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
    }


def import_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    location = Path(repro.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise ImportError(f"repro was imported from {location}, not from this checkout")


def main() -> int:
    args = parse_args()
    if any(os.environ.get(name) != value for name, value in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS, exit=True)
    import_checkout()

    from perfbench.layers import Recorder, Tracer
    from perfbench.workloads import WORKLOADS, CheckFailed, Context, HostSpeed, percentile

    prints = fingerprint()
    function, rounds = WORKLOADS[args.workload]
    recorder = Recorder()
    tracer = Tracer(recorder)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        recorder.enabled = True
        tracer.install()
    started = time.perf_counter()
    try:
        host = HostSpeed()
        result = function(Context(args.seed, args.seconds, rounds, workdir, recorder, host))
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        return 2
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            workdir.parent.rmdir()
    elapsed = time.perf_counter() - started

    values = {name: statistics.median(series) for name, series in result.samples.items()}
    values.update(result.once)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        recorder.add("rounds", len(result.rounds))
        recorder.add("query.p90_ms", percentile(result.samples["query_p50_ms"], 0.9))
        recorder.add("trace.overhead_ms", tracer.wrapped_calls() * tracer.cost_per_call_ms())
        recorder.add("trace.wall_ms", sum(r["round_s"] for r in result.rounds) * 1000.0)
        metrics = recorder.metrics()
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}

    prints["loadavg_end"] = os.getloadavg()
    print(json.dumps({"report": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "elapsed_s": elapsed,
        "fingerprint": prints,
        "rounds": result.rounds,
        "samples": result.samples,
        "host_kernel_ms": [seconds * 1000.0 for seconds in host.kernel_s],
        "checksum": result.digest.hexdigest(),
        "checks": result.checks,
        "fail_ratio": result.failed / result.attempted,
    }}))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
