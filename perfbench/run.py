#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-write-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The program under test is built from source (`cargo build --release
--offline`) into `$CARGO_TARGET_DIR`, or `.bench_build` when that is unset.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when the build
succeeded and every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kv-write-hot", "kv-read-large", "tlstm-rbtree", "swisstm-rbtree"]
# A run measures for --seconds; set-up, checks and the drain add to that.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    binary = os.path.join(ROOT, target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def run_one(binary, workload, args):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return 1, (err.stdout or "").splitlines() if isinstance(err.stdout, str) else []
    return done.returncode, done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.workload != "all":
        code, lines = run_one(binary, args.workload, args)
        for line in lines:
            print(line)
        return code

    # Every workload in turn: each one's report, then one JSON line whose
    # metric names are prefixed with the workload.
    correct, attempted, failed, metrics, worst = True, 0, 0, {}, 0
    for workload in WORKLOADS:
        code, lines = run_one(binary, workload, args)
        print(f"## {workload}")
        for line in lines[:-1]:
            print(line)
        worst = max(worst, code)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": correct and worst == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and worst == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
