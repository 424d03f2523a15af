#!/usr/bin/env python3
"""Builds and runs the end-to-end aggregation benchmark (aggbench).

Usage, from the repository root:

    python3 aggbench/run.py --workload tpch_q1 --seed 1 --seconds 45 --trace 0

The first run configures and builds aggbench/CMakeLists.txt (the memagg
library from src/ plus the aggbench binary) into
$CARGO_TARGET_DIR/aggbench, or .bench_build/aggbench when the variable is
unset; later runs only check that the build is current. Build output goes
to stderr. The binary's standard output is passed through, except its
progress lines, so the last line is the result object {"correct",
"attempted", "failed", "metrics"}. With --trace 1
the spans are also written as Chrome trace-event JSON under the build
directory's traces/ folder.

If the binary is killed by a signal (for example a failed internal check
aborts a query), this script prints a result that counts the interrupted
query as failed and exits non-zero.
"""

import argparse
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "aggbench"
WORKLOADS = ("tpch_q1", "highcard_count", "skew_median")
# The binary stops measuring by itself well before this; the kill is a
# last resort so that a run always ends within the caller's 180 s limit.
RUN_TIMEOUT_S = 175
PROGRESS = re.compile(r"^progress attempted=(\d+) failed=(\d+)$")


def fail(message):
    print(f"aggbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    path = (ROOT / target / "aggbench").resolve()
    if ROOT not in path.parents:
        fail(f"build directory {path} is outside the checkout")
    return path


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/CMakeLists.txt not found: the memagg sources are missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "aggbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "aggbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    binary = build(out)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]

    attempted, failed = 0, 0
    result_seen = False
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT)
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    try:
        for line in child.stdout:
            match = PROGRESS.match(line.strip())
            if match:
                attempted, failed = int(match.group(1)), int(match.group(2))
                continue
            result_seen = line.startswith('{"correct"')
            sys.stdout.write(line)
            sys.stdout.flush()
        code = child.wait()
    finally:
        timer.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()

    if code == 0 and result_seen:
        return 0
    print(f"aggbench: binary exited with {code}", file=sys.stderr)
    if code < 0 and not result_seen:
        # Killed by a signal (an aborted query, or the timeout): the query
        # in flight counts as attempted and failed.
        print('{"correct": false, "attempted": %d, "failed": %d, '
              '"metrics": {}}' % (attempted + 1, failed + 1))
    return 1


if __name__ == "__main__":
    sys.exit(main())
