#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload se-paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (and with it the library in src/) under .bench_build/perfbench;
later runs rebuild incrementally. Build output goes to stderr.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with `--trace 0`, every per-layer metric with `--trace 1`,
each with its unit. A per-layer metric whose layer the workload does not
exercise reads 0 (see perfbench/README.md). Exits non-zero without a result
when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    if not build():
        return 1

    binary = os.path.join(BUILD_DIR, "perfbench")
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if run.returncode != 0:
        log("benchmark exited with code %d" % run.returncode)
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        log("benchmark printed no result")
        return 1
    measured = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = measured["values"]
    unknown = sorted(set(values) - {m["name"] for m in wanted})
    if unknown:
        log("values not listed in BENCHMARK.json: " + ", ".join(unknown))
        return 1
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value = values[m["name"]]
        elif args.trace:
            value = 0.0  # layer not exercised by this workload
        else:
            log("end-to-end metric missing: " + m["name"])
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": measured["correct"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
