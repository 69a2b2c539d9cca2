#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 suitebench/spread.py --runs 10 [--workloads kernels-1t,...]
        [--first-seed 1] [--out spread.json]

Runs the BENCHMARK.json command once per seed (untraced, run_seconds
each) and prints, per workload and metric, the median and the spread:
the distance between the first and third quartile of the runs, as a
share of their median. A spread above a third of the metric's bound
is flagged, and makes the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit("%s seed %d failed (exit %d):\n%s" % (
            workload, seed, done.returncode, done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: outputs incorrect: %s" % (workload, seed,
                                                        result))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    report = {}
    steady = True
    for workload in workloads:
        runs = [run_once(spec, workload, args.first_seed + i)
                for i in range(args.runs)]
        report[workload] = runs
        print("%s (%d runs)" % (workload, len(runs)))
        for metric in spec["end_to_end"]:
            values = [run[metric["name"]] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            target = metric["bound"] / 3
            flag = ""
            if spread > target:
                flag = "  > bound/3 (%.4f)" % target
                steady = False
            print("  %-18s median %-14.6g spread %.4f%s" % (
                metric["name"], median, spread, flag))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
