#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a directory of result files written by perfbench/run.py
(.bench_build/results/ of a checkout). Runs are grouped by workload and
trace mode; each metric's median over the runs of one side is compared with
the other side's. An end-to-end metric is "worse" when it moves against its
"better" direction by more than its bound in BENCHMARK.json, "ok" otherwise.
Per-layer metrics have no bound and are listed with their change only.

Results are only comparable when they were taken under the same provenance
(device fingerprint, nproc, pool threads, campaign jobs, build type and
compiler). A workload whose two sides differ there is reported as
"not comparable" rather than passed or failed. Exits 1 if any metric is
worse, else 0.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PROVENANCE_KEYS = ("device_fingerprint", "nproc", "pool_threads",
                   "campaign_jobs", "build_type", "compiler")


def load(directory):
    """{(workload, trace): {"provenance": set, "metrics": {name: [values]}}}"""
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        prov = record["provenance"]
        group = groups.setdefault((prov["workload"], prov["trace"]),
                                  {"provenance": set(), "metrics": {}})
        group["provenance"].add(tuple(prov.get(k, "") for k in PROVENANCE_KEYS))
        for name, metric in record["result"]["metrics"].items():
            group["metrics"].setdefault(name, []).append(metric["value"])
    return groups


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    worse = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print("== %s (trace %s)" % (workload, trace))
        if base[key]["provenance"] != new[key]["provenance"] or len(base[key]["provenance"]) != 1:
            print("   not comparable: provenance differs %s vs %s"
                  % (sorted(base[key]["provenance"]), sorted(new[key]["provenance"])))
            continue
        for name in sorted(set(base[key]["metrics"]) & set(new[key]["metrics"])):
            a = statistics.median(base[key]["metrics"][name])
            b = statistics.median(new[key]["metrics"][name])
            change = (b - a) / a if a else 0.0
            verdict = ""
            if name in bounds:
                m = bounds[name]
                loss = change if m["better"] == "lower" else -change
                verdict = "worse" if loss > m["bound"] else "ok"
                worse = worse or verdict == "worse"
            print("   %-36s %14.6g -> %14.6g  %+7.2f%%  %s" % (name, a, b, 100 * change, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
