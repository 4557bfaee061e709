#!/usr/bin/env python3
"""Builds the ConvMeter benchmark from source and runs one workload.

    python3 perfbench/run.py --workload infer_real --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The library and the benchmark driver are
compiled into .bench_build/perfbench (CMake, Release) on the first call;
later calls only re-check the build. The driver's provenance line and its
result line are printed to stdout, the result line last:

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

Both lines are also kept in .bench_build/results/ for perfbench/compare.py,
and a traced run (--trace 1) leaves its Chrome trace in .bench_build/traces/.
A run that hangs past the time limit or crashes is reported as one failed
operation. A checkout whose sources cannot be built exits non-zero without
printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("infer_real", "train_real")
RUN_TIMEOUT_S = 150  # a run must finish well inside the 180 s budget
BUILD_JOBS = "4"


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # Drop a half-configured tree so the next call starts clean.
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target", target]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def failure_result():
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run(args):
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(OUT, "work", "%s-%d" % (tag, os.getpid()))
    trace_out = os.path.join(OUT, "traces", tag + ".json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--trace-out", trace_out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        stdout = ""
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log("workload %s exited with code %s" % (args.workload, proc.returncode))
        return None, failure_result()
    provenance = json.loads(lines[-2])["provenance"]
    return provenance, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2
    provenance, result = run(args)
    if provenance is not None:
        print(json.dumps({"provenance": provenance}))
        results = os.path.join(OUT, "results")
        os.makedirs(results, exist_ok=True)
        name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace, os.getpid())
        with open(os.path.join(results, name), "w") as f:
            json.dump({"provenance": provenance, "result": result}, f)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
