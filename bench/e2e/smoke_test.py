#!/usr/bin/env python3
"""Smoke test of bench_e2e, registered with CTest as BenchE2ESmoke.

usage: smoke_test.py BENCH_E2E BENCHMARK_JSON

Runs every workload shrunk by --smoke (one rep plus a traced rep) and
asserts that:
  - every metric BENCHMARK_JSON names is present and finite for every
    workload, and no run failed against the committed digests;
  - end-to-end metrics are above 0, and a per-layer metric reads 0
    exactly where the workload lacks its layer (README.md, "Zero
    readings");
  - doom3-xga-1t and doom3-xga-4t report equal digests;
  - a deliberately wrong expected digest fails the run, and the failure
    names the demo;
  - with --scene-seed, the scenes change, two reps agree and the 1- and
    4-thread digests are equal, with no committed digest to check.
Scratch files go to ./bench-e2e-smoke (CTest runs this in the build tree).
"""

import json
import math
import os
import subprocess
import sys

# Per-layer metrics that do not come from the GPU simulator.
NOT_SIMULATOR = {
    "workloads.frame_self_s", "api.batches", "api.state_calls",
    "trace.overhead", "memory.cache_access_ns.l0",
    "memory.cache_access_ns.l1", "texture.sample_quad_ns",
    "api.texture_build_ms",
}


def expected_zeros(workload, per_layer):
    """The per-layer metrics @p workload has no layer for."""
    if workload == "api12-600f":  # no simulator
        return {m["name"] for m in per_layer} - NOT_SIMULATOR
    if workload.endswith("-1t"):  # no thread pool
        return {"common.pool_task_count"}
    return set()


def run(exe, out, *extra):
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run([exe, "--smoke", "--out", out, *extra],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    with open(out) as f:
        doc = json.load(f)
    return proc, {w["name"]: w for w in doc["workloads"]}


def check(cond, what, log=""):
    if not cond:
        print(log)
        sys.exit(f"FAIL: {what}")
    print(f"ok: {what}")


def value(run, key, name):
    return run[key].get(name, {}).get("value", math.nan)


def main():
    exe, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json) as f:
        spec = json.load(f)
    work = os.path.abspath("bench-e2e-smoke")
    os.makedirs(work, exist_ok=True)

    proc, runs = run(exe, os.path.join(work, "all.json"),
                     "--trace", os.path.join(work, "traces"))
    check(proc.returncode == 0, "smoke run passes its digest checks",
          proc.stdout)
    for w in spec["workloads"]:
        name = w["name"]
        r = runs.get(name)
        check(r is not None, f"{name} ran")
        for section, key in (("end_to_end", "metrics"),
                             ("per_layer", "per_layer")):
            missing = [m["name"] for m in spec[section]
                       if not math.isfinite(value(r, key, m["name"]))]
            check(not missing, f"{name}: every {section} metric is "
                  f"present and finite", f"missing or not finite: {missing}")
        low = [m["name"] for m in spec["end_to_end"]
               if value(r, "metrics", m["name"]) <= 0]
        check(not low, f"{name}: every end_to_end metric is above 0",
              f"not above 0: {low}")
        negative = [m["name"] for m in spec["per_layer"]
                    if value(r, "per_layer", m["name"]) < 0]
        check(not negative, f"{name}: no per_layer metric is negative",
              f"negative: {negative}")
        zeros = {m["name"] for m in spec["per_layer"]
                 if value(r, "per_layer", m["name"]) == 0}
        want = expected_zeros(name, spec["per_layer"])
        check(zeros == want, f"{name}: per_layer zeros are exactly the "
              f"layers it lacks", f"unexpected 0: {sorted(zeros - want)}, "
              f"expected 0: {sorted(want - zeros)}")

    one, four = runs["doom3-xga-1t"], runs["doom3-xga-4t"]
    check(one["digests"] and one["digests"] == four["digests"],
          "doom3-xga-1t and doom3-xga-4t digests are equal")

    key, digest = next(iter(one["digests"].items()))
    wrong = ("0" if digest[0] != "0" else "1") + digest[1:]
    bad = os.path.join(work, "wrong-digests.json")
    with open(bad, "w") as f:
        json.dump({"digests": {key: wrong}}, f)
    proc, runs = run(exe, os.path.join(work, "wrong.json"),
                     "--workload", "doom3-xga-1t", "--digests", bad)
    r = runs["doom3-xga-1t"]
    check(proc.returncode != 0 and r["failed"] > 0,
          "a wrong expected digest fails the run", proc.stdout)
    check(any("doom3/trdemo2" in f for f in r["failures"]),
          "the failure names the demo", proc.stdout)

    proc, runs = run(exe, os.path.join(work, "scene-seed.json"),
                     "--workload", "doom3-xga-1t", "--workload",
                     "doom3-xga-4t", "--scene-seed", "7", "--reps", "2")
    s1, s4 = runs["doom3-xga-1t"], runs["doom3-xga-4t"]
    check(proc.returncode == 0 and s1["attempted"] == 2
          and s4["attempted"] == 2,
          "--scene-seed: two reps per workload agree", proc.stdout)
    check(s1["digests"] == s4["digests"],
          "--scene-seed: doom3-xga-1t and doom3-xga-4t digests are equal")
    check(list(s1["digests"]) == [key + " seed 7"]
          and s1["digests"][key + " seed 7"] != digest,
          "--scene-seed: the seed changes the scene and its digest key",
          json.dumps(s1["digests"]))


if __name__ == "__main__":
    main()
