#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cache-hot --seed 1 --seconds 25 --trace 0

Run it from the repository root. The last line of standard output is the
result: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output goes to standard error. A record with provenance and
within-run spreads is written to perfbench/results/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["search-cold", "table-cold", "miss-small", "cache-hot"]
# The first build compiles the service and its dependencies; later runs
# find the binary up to date.
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def commit():
    """The git commit, or a digest of the crate sources when the tree is
    not a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    crates = os.path.join(ROOT, "crates")
    for base, dirs, files in os.walk(crates):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    # Cargo reads a relative CARGO_TARGET_DIR against the working directory.
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = [
        os.path.join(target, "release", "perfbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work", os.path.join(HERE, "work"),
        "--results", os.path.join(HERE, "results"),
        "--commit", commit(),
        "--rustc", rustc_version(),
    ]
    # Run on one CPU. Across two vCPUs, where the scheduler places the
    # client, connection and worker threads decides whether each hand-off
    # wakes another vCPU, and that placement persists for a whole run: the
    # cache-hot latency was bimodal from run to run (about 75 vs 100 us).
    # One CPU serves the closed loop fully, as one request is in flight at a
    # time. The build above still uses every CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.stdout.flush()
    try:
        # On timeout the child is killed and reaped before this returns.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
