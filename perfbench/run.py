#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload suite|corpus|serve --seed N \
        --seconds S --trace 0|1

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
links the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build under the repository root), then
run from the repository root. Its standard output is passed through; the
last line is the result object. When BENCHMARK.json is present, the metric
names in the result must be exactly the ones it declares.
"""

import argparse
import json
import os
import subprocess
import sys

# A run must finish well inside the 180 s limit; the build is not counted.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["suite", "corpus", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    spec_path = os.path.join(root, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        section = "per_layer" if args.trace == "1" else "end_to_end"
        declared = [m["name"] for m in spec[section]]
        if list(result["metrics"]) != declared:
            missing = sorted(set(declared) - set(result["metrics"]))
            extra = sorted(set(result["metrics"]) - set(declared))
            print(f"perfbench: metrics differ from BENCHMARK.json {section}: "
                  f"missing {missing}, extra {extra}", file=sys.stderr)
            return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
