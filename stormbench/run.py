#!/usr/bin/env python3
"""Builds and runs the STORM benchmark.

    python3 stormbench/run.py --workload pan_local --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
STORM library, storm_server and the benchmark program storm_bench from source into
$CARGO_TARGET_DIR/stormbench (default .bench_build/stormbench); later runs
only check the build is current. storm_bench's output is relayed; its last
line is the JSON result. With --trace 1 the bench-side spans are written
next to the build as spans-<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pan_local", "served_mix", "fleet_agg")


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "stormbench")


def build(out):
    """Configures (once) and builds; returns False with the log on failure."""
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "storm_bench", "storm_server"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    cmd = [os.path.join(out, "storm_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server-bin", os.path.join(out, "storm_server")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
