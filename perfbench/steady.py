"""A/A steadiness check: run one workload over several seeds and report spreads.

    python3 perfbench/steady.py --workload adhoc_serial --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/steady.py --workload adhoc_serial --seeds 11 12 13 --out a.json
    python3 perfbench/steady.py --workload adhoc_serial --seeds 11 12 13 --against a.json

Each run is its own untraced process (``run.py --trace 0``), started one
after another.  For each end-to-end metric this prints the median, the
quartiles, and the spread (inter-quartile range over the median) next to the
metric's bound from ``BENCHMARK.json``.  With ``--against``, it also prints
how far each median moved from a saved set, signed so that positive means
worse.  The benchmark is steady when every spread is under a third of its
metric's bound and no median moved worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="save the values of every run")
    parser.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = parser.parse_args()

    values: dict = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
            flush=True)
    if args.out:
        args.out.write_text(json.dumps(values))

    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    saved = json.loads(args.against.read_text()) if args.against else {}
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"
          + ("  moved" if saved else ""))
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound, better = bounds[name]
        line = f"{name:28} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {bound:6.3f}"
        if name in saved:
            before = statistics.median(saved[name])
            moved = (median - before) / before if before else 0.0
            line += f"  {moved if better == 'lower' else -moved:+.3f}"
        print(line)


if __name__ == "__main__":
    main()
