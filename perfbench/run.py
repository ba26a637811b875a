#!/usr/bin/env python3
"""Runs the streamsc benchmark on one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the library and the benchmark
binary from source into .bench_build/perfbench (Release; the first run
compiles), has the binary write the workload's inputs for the seed into
.bench_data/<workload>, runs it on them in a fresh process and prints its
output. The last line is the JSON result {"correct", "attempted", "failed",
"metrics"}: with --trace 0 the metrics are BENCHMARK.json's end_to_end
metrics, with --trace 1 its per_layer metrics, where a layer the workload
bypasses reads 0. See perfbench/README.md for the workloads and what each
metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DATA_DIR = ".bench_data"
BINARY = os.path.join(BUILD_DIR, "streamsc_perfbench")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "streamsc_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, timeout=900).returncode:
            return False
    return True


def declared_metrics(trace):
    """(name -> unit) for this mode, and every name BENCHMARK.json knows."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {m["name"]: m["unit"] for m in wanted}, known


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wanted, known = declared_metrics(args.trace)
    if not build():
        log("build failed")
        return 1
    data = os.path.join(DATA_DIR, args.workload)
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", data]
    if subprocess.run([BINARY, "gen"] + common, timeout=120).returncode:
        log("input generation failed")
        return 1
    run = subprocess.run(
        [BINARY, "run", "--seconds", str(args.seconds),
         "--trace", str(args.trace)] + common,
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        log("benchmark binary failed")
        return 1
    result = json.loads(lines[-1])

    metrics = {}
    for name, value in result["metrics"].items():
        if name not in known:
            log(f"binary reported undeclared metric {name}")
            return 1
        if name in wanted:
            metrics[name] = value
    for name, unit in wanted.items():
        if name not in metrics:
            if not args.trace:
                log(f"binary did not report {name}")
                return 1
            metrics[name] = {"value": 0, "unit": unit}
        if metrics[name]["unit"] != unit:
            log(f"{name}: unit {metrics[name]['unit']}, declared {unit}")
            return 1
    result["metrics"] = {name: metrics[name] for name in wanted}

    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
