#!/usr/bin/env python3
"""Run-to-run spread and drift of the benchmark's end-to-end metrics.

For each workload, runs aggbench/run.py for two sets of seeds one after the
other (set 1: seeds first..first+n-1, set 2: the next n seeds), each run
with BENCHMARK.json's run_seconds and --trace 0. For every end-to-end metric
it prints, per set, the median of the runs and the interquartile range as a
share of that median (statistics.quantiles with n=4), and the drift: how
much worse set 2's median is than set 1's, as a share of set 1's. A spread
or drift above the metric's bound fails the check; a spread above a third
of the bound is flagged.

    python3 aggbench/spread.py --seeds 10
    python3 aggbench/spread.py --workloads tpch_q1 --seeds 5 --first-seed 100

Exits 1 when any spread or drift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "aggbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: wrong results")
    host = [line for line in lines if line.startswith("host:")]
    print(f"{workload} seed {seed}: {result['attempted']} queries "
          f"{' '.join(host)} {json.dumps(result['metrics'])}",
          file=sys.stderr)
    return result


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", type=int, default=10,
                        help="runs per set (at least 2)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")

    worst = 0.0
    for workload in args.workloads:
        sets = []
        for s in range(2):
            first = args.first_seed + s * args.seeds
            sets.append([run_once(workload, seed, spec["run_seconds"])
                         for seed in range(first, first + args.seeds)])
        print(f"\n{workload} (two sets of {args.seeds} runs)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            (m1, s1), (m2, s2) = (
                summarize([r["metrics"][name]["value"] for r in runs])
                for runs in sets)
            drift = (m2 - m1) / m1
            if metric["better"] == "higher":
                drift = -drift
            worst = max(worst, s1 / bound, s2 / bound, drift / bound)
            flag = ""
            if max(s1, s2, drift) > bound:
                flag = "  <-- above bound"
            elif max(s1, s2) > bound / 3:
                flag = "  <-- spread above bound/3"
            print(f"  {name:22s} {metric['unit']:3s} median {m1:10.4f} "
                  f"{m2:10.4f}  spread {s1:6.3f} {s2:6.3f}  "
                  f"drift {drift:+6.3f}  bound {bound}{flag}")
    print(f"\nworst spread or drift / bound: {worst:.3f}")
    return 1 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
