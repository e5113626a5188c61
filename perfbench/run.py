#!/usr/bin/env python3
"""End-to-end benchmark of the RaNNC reproduction.

Run from the root of the repository:

    python3 perfbench/run.py --workload search_moe --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Builds perfbench/ (and with it the library in src/) into .bench_build on
first use, runs one workload in its own process and prints, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. The line before it records the hardware
and build context; both are also written under .bench_build/perfbench-state.
--workload all runs every workload, each in its own process, and prints
every end-to-end metric by name with its unit.
"""
import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
STATE = os.path.join(BUILD, "perfbench-state")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ("search_moe", "serve_zipf", "train_bert")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "rannc.h")):
        fail("no library sources (src/rannc.h) next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def context(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout
        compiler = out.splitlines()[0] if out else compiler
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "compiler": compiler, "platform": platform.platform()}


def run_one(workload, seed, seconds, trace):
    """Runs one workload process; returns (report lines, result object)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--state-dir", STATE,
           "--spec", os.path.join(ROOT, "BENCHMARK.json"),
           "--digests", os.path.join(HERE, "digests.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": no result within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s: exit code %d" % (workload, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    ctx = context(args)

    if args.workload == "all":
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            report, res = run_one(w, args.seed, args.seconds, args.trace)
            print("== %s: correct %s, %d checked, %d failed" %
                  (w, res["correct"], res["attempted"], res["failed"]))
            print("  " + next((l for l in report
                               if l.startswith("operation:")), ""))
            for name, m in res["metrics"].items():
                print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
                total["metrics"][w + "." + name] = m
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
        print(json.dumps({"context": ctx}))
        print(json.dumps(total))
        sys.exit(0 if total["correct"] else 1)

    report, res = run_one(args.workload, args.seed, args.seconds, args.trace)
    for line in report:
        print(line)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(STATE, "results", name), "w") as f:
        json.dump({"context": ctx, "result": res}, f, indent=1)
    print(json.dumps({"context": ctx}))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
