#!/usr/bin/env python3
"""Builds and runs the layered spGEMM benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --report [--seed <n>] [--seconds <s>]

Run from the repository root. The first call configures and builds the
spnet libraries and the benchmark binary into .bench_build/perfbench
(CMake, Release). A run prints the binary's "metric ..." lines and, as the
last line, one JSON object with correct/attempted/failed and the metrics
BENCHMARK.json declares for the mode: end_to_end with --trace 0, per_layer
with --trace 1. --report runs every workload untraced and prints every
metric each one measured, by name and unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "spnet_perfbench")
WORKLOADS = ("rmat-multiply", "table2-cold", "serve-hot")
RUN_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds spnet_perfbench. Returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs,
              "--target", "spnet_perfbench"]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_binary(workload, seed, seconds, trace, extra, timeout):
    """Runs spnet_perfbench once. Returns (stdout lines, result) or None."""
    workdir = os.path.join(BUILD, "work", "%s-%d-%d" % (workload, seed,
                                                        os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("spnet_perfbench timed out after %.0f s" % timeout)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log("spnet_perfbench failed with exit code %d" % proc.returncode)
        return None
    return lines[:-1], json.loads(lines[-1])


def select(result, metrics):
    """Keeps exactly the declared metrics; None if one is missing."""
    chosen = {}
    for m in metrics:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or in the wrong unit" % m["name"])
            return None
        chosen[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": chosen}


def report(args, extra):
    for workload in WORKLOADS:
        out = run_binary(workload, args.seed, args.seconds, False, extra,
                         RUN_LIMIT_S)
        if out is None:
            return 1
        lines, result = out
        print("== %s (seed %d): correct=%s attempted=%d failed=%d" %
              (workload, args.seed, result["correct"], result["attempted"],
               result["failed"]))
        for line in lines:
            if line.startswith("metric "):
                _, name, value, unit, n = line.split()
                print("  %-32s %16.6g %-8s %s" % (name, float(value), unit, n))
            else:
                print("  " + line)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced, print all metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--corrupt", choices=("none", "c-value", "sim-ms"),
                        default="none",
                        help="corrupt one output, to test the output check")
    parser.add_argument("--rate", type=float,
                        help="serve-hot offered rate; for capacity probes only")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    if not build():
        return 1
    extra = ["--corrupt", args.corrupt] + (["--tiny"] if args.tiny else [])
    if args.rate is not None:
        extra += ["--rate", str(args.rate)]
    if args.report:
        return report(args, extra)

    # A no-op build check counts against the run's limit; a real build
    # (the first run in a checkout) does not.
    spent = time.monotonic() - start
    timeout = RUN_LIMIT_S - spent if spent < 10.0 else RUN_LIMIT_S
    out = run_binary(args.workload, args.seed, args.seconds, args.trace == 1,
                     extra, timeout)
    if out is None:
        return 1
    lines, result = out
    chosen = select(result, declared_metrics(args.trace == 1))
    if chosen is None:
        return 1
    for line in lines:
        print(line)
    print(json.dumps(chosen), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
