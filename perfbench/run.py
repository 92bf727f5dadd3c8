#!/usr/bin/env python3
"""Runs one workload of the v6pool benchmark.

    python3 perfbench/run.py --workload study --seed 2022 --seconds 25 --trace 0

Run from the root of the repository. The first run configures and builds
the library and the benchmark binary (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. The binary's stdout is passed through, so the last line is the
result object {"correct", "attempted", "failed", "metrics"}.

Gated outputs for the seeds listed in perfbench/expected.json are compared
with the values recorded there; other seeds are gated within the run.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("study", "collect_spill", "serve_live", "collect_dist")
DEFAULT_SEED = 2022
# Kept below the 180 s a run may take, so a hung run fails instead.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures and builds v6bench. Returns its path or None."""
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "perfbench")
    # One build at a time per build tree.
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", cmake_dir, "--target", "v6bench",
                  "-j", "4"]]
        for step in steps:
            # Build output goes to stderr: stdout carries only results.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return None
    return os.path.join(cmake_dir, "v6bench")


def expected(workload, seed):
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        table = json.load(f)
    values = table.get("seeds", {}).get(str(seed), {})
    return {k: v for k, v in values.items() if k.startswith(workload + ".")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale (no recorded expectations)")
    parser.add_argument("--expect", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override an expected gated output")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: the v6pool sources (src/) are missing", file=sys.stderr)
        return 2
    out = build_dir()
    binary = build(out)
    if binary is None or not os.path.exists(binary):
        print("run.py: build failed", file=sys.stderr)
        return 2

    expect = {} if args.tiny else expected(args.workload, args.seed)
    for item in args.expect:
        name, _, value = item.partition("=")
        expect[name] = value
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work"),
           "--trace-dir", os.path.join(out, "traces")]
    if args.tiny:
        cmd.append("--tiny")
    for name, value in sorted(expect.items()):
        cmd += ["--expect", f"{name}={value}"]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
