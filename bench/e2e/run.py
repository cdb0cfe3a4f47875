#!/usr/bin/env python3
"""Build bench_e2e from source and run one workload of it.

Run from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The root project is configured with project.cmake, which adds this
directory, into .bench_build, and only bench_e2e and the libraries it
links are built. bench_e2e then runs reps of NAME, each in a fresh
child process, until S seconds have passed (at least one rep), checks
every rep's statistic digests, and with --trace 1 adds one traced rep
and the unit probes. N seeds the unit-probe streams; the timedemo scenes
are the committed ones (see README.md, "Seeds").

The table bench_e2e prints goes to stderr. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where
metrics holds the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1), each as {"value", "unit"}. The exit code is 0 only
when every rep ran and every digest matched.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    hook = os.path.join(HERE, "project.cmake")
    subprocess.run(["cmake", "-S", ".", "-B", BUILD,
                    f"-DCMAKE_PROJECT_wc3d_INCLUDE={hook}"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "bench", "e2e", "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-{args.seed}-{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--reps", "1", "--seconds", str(args.seconds), "--out", out]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD, "traces")]
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    if not os.path.exists(out):
        print(f"run.py: bench_e2e exited {code} without results",
              file=sys.stderr)
        return 2

    with open(out) as f:
        w = json.load(f)["workloads"][0]
    # fail_frac is reported through "failed" / "attempted".
    source = w["per_layer"] if args.trace else w["metrics"]
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in source.items() if name != "fail_frac"}
    correct = code == 0 and w["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": w["attempted"],
                      "failed": w["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
