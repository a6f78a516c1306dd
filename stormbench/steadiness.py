#!/usr/bin/env python3
"""Steadiness report: runs one workload N times and prints each metric's
median, quartiles and spread against its bound in BENCHMARK.json.

    python3 stormbench/steadiness.py --workload served_mix --runs 10
    python3 stormbench/steadiness.py --workload pan_local --seeds 1,2,3,4,5

Run from the repository root. Each run uses another seed (1..N unless
--seeds is given) and the run length from BENCHMARK.json. The spread of a
metric is (Q3 - Q1) / median over the runs, with quartiles as
statistics.quantiles(values, n=4) gives them; the target is a third of the
metric's bound. The failed share must be identical in every run. With
--baseline (the --json of an earlier set) it also prints how far each
median moved from that set's, against the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(spec, workload, seed, trace, log_dir):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if log_dir:
        os.makedirs(log_dir, exist_ok=True)
        with open(os.path.join(log_dir, "%s-%d.txt" % (workload, seed)), "w") as f:
            f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-3000:])
        raise SystemExit("run failed: seed %d, exit %d" % (seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", help="comma-separated seeds (overrides --runs)")
    ap.add_argument("--json", help="also write the raw results here")
    ap.add_argument("--log", help="directory for each run's full output")
    ap.add_argument("--baseline", help="--json output of an earlier set to compare with")
    args = ap.parse_args()

    spec = load_spec()
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))
    results = []
    for seed in seeds:
        r = one_run(spec, args.workload, seed, 0, args.log)
        results.append(r)
        print("seed %-4d correct=%s attempted=%d failed=%d" % (
            seed, r["correct"], r["attempted"], r["failed"]), flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seeds": seeds,
                       "results": results}, f, indent=1)

    base = None
    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)["results"]
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    if base is not None:
        shares = sorted(set(shares) | {r["failed"] / r["attempted"] for r in base})
    print("\nworkload %s, %d runs of %d s, failed share %s" % (
        args.workload, len(results), spec["run_seconds"],
        " / ".join("%.6f" % s for s in shares)))
    print("%-16s %12s %12s %12s %8s %7s %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    steady = all(r["correct"] for r in results) and len(shares) == 1
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if m["name"] == "setup_s":
            verdict = "n/a (set-up)"
        elif spread <= m["bound"] / 3:
            verdict = "ok"
        elif spread <= m["bound"]:
            verdict = "within bound, above a third"
        else:
            verdict = "OUTSIDE BOUND"
            steady = False
        if base is not None:
            before = statistics.median(
                r["metrics"][m["name"]]["value"] for r in base)
            worse = (med - before) / before
            if m["better"] == "higher":
                worse = -worse
            verdict += "; median %+.1f%% worse than baseline%s" % (
                100 * worse, " (OUTSIDE BOUND)" if worse > m["bound"] else "")
            steady = steady and worse <= m["bound"]
        print("%-16s %12.5g %12.5g %12.5g %8.4f %7.3f %s" % (
            m["name"], q1, med, q3, spread, m["bound"], verdict))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
