#!/usr/bin/env python3
"""A/A steadiness check: two sets of runs of the same build.

    python3 perfbench/steadiness.py

Run from the root of a checkout. Set A and set B each run every workload of
BENCHMARK.json once per seed 1..10, interleaved: for each seed, A then B,
and within a set every workload in turn, so slow drift of the machine lands
on both sets alike. For each workload and end-to-end metric it prints set
A's median and quartiles, each set's quartile spread as a share of its
median, and the A/A difference of the medians (how much worse B is than A),
next to the metric's bound in BENCHMARK.json. A metric reads `ok` when both
spreads are at or below a third of its bound and the A/A difference is
within the bound. The spread of `setup_s` is printed but not gated: a
set-up of a second or two follows the machine's load from run to run and
cannot be averaged within a run, so only its median has to hold. The failed
share of solves must be identical across all runs. Exits non-zero if any
check fails.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")
RUNS = 10  # seeds 1..RUNS in each set
SPREAD_NOT_GATED = {"setup_s"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        raise SystemExit("run failed: " + " ".join(cmd))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    if len(sys.argv) > 1:
        raise SystemExit("usage: python3 perfbench/steadiness.py")
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    results = {s: {w: [] for w in workloads} for s in "AB"}
    for seed in range(1, RUNS + 1):
        for s in "AB":
            for w in workloads:
                r = run_once(w, seed, spec["run_seconds"])
                results[s][w].append(r)
                print("set %s seed %d %s: correct=%s failed=%d/%d" % (
                    s, seed, w, r["correct"], r["failed"], r["attempted"]),
                    file=sys.stderr, flush=True)

    ok = True
    print("%-13s %-17s %11s %11s %11s %7s %11s %7s %7s %6s  verdict" % (
        "workload", "metric", "median", "q1", "q3", "spread",
        "B median", "B sprd", "A/A", "bound"))
    for w in workloads:
        for s in "AB":
            if not all(r["correct"] for r in results[s][w]):
                ok = False
                print("%s: set %s has a run with correct=false" % (w, s))
        shares = {r["failed"] / r["attempted"] for s in "AB" for r in results[s][w]}
        if len(shares) != 1:
            ok = False
            print("%s: failed share differs between runs: %s" % (w, sorted(shares)))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in results["A"][w]]
            b = [r["metrics"][name]["value"] for r in results["B"][w]]
            med, q1, q3, spread = summary(a)
            bmed, _, _, bspread = summary(b)
            worse = (bmed - med) / med if m["better"] == "lower" else (med - bmed) / med
            steady = spread <= bound / 3 and bspread <= bound / 3
            good = (steady or name in SPREAD_NOT_GATED) and worse <= bound
            ok = ok and good
            print("%-13s %-17s %11.5g %11.5g %11.5g %6.1f%% %11.5g %6.1f%% %+6.1f%% %5.0f%%  %s" % (
                w, name, med, q1, q3, 100 * spread, bmed, 100 * bspread,
                100 * worse, 100 * bound,
                ("ok" if steady else "ok, spread not gated") if good else "CHECK"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
