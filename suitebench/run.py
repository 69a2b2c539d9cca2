#!/usr/bin/env python3
"""Build and run the suite benchmark (see suitebench/README.md).

    python3 suitebench/run.py --offered-rps R --workload W --seed N \
        --seconds S --trace 0|1 [--trace-file out.json] [--corrupt OP]

Run it from the root of a source tree. It configures the repository's
own CMake build in .bench_build/suitebench with suitebench/ appended,
builds rtr_suite, runs one workload, and prints as its last line
{"correct", "attempted", "failed", "metrics"}, with the metric names
and units BENCHMARK.json declares. Layers a workload bypasses are
reported as 0 in a traced run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "suitebench")
BINARY = os.path.join(BUILD, "suitebench", "rtr_suite")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build rtr_suite; compiler output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at " + ROOT + "; run from a source tree")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DCMAKE_PROJECT_INCLUDE="
                      + os.path.join(HERE, "hook.cmake")])
    steps.append(["cmake", "--build", BUILD, "--target", "rtr_suite",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "suitebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def assemble(result, declared, traced):
    """Check the binary's metrics against BENCHMARK.json; order them."""
    emitted = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in emitted.items():
        if name not in units:
            fail("metric %s is not declared in BENCHMARK.json" % name)
        if metric["unit"] != units[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metric["unit"], units[name]))
    metrics = {}
    for name, unit in units.items():
        if name in emitted:
            metrics[name] = emitted[name]
        elif traced:
            metrics[name] = {"value": 0, "unit": unit}  # layer bypassed
        else:
            fail("end-to-end metric %s was not measured" % name)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--offered-rps", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--corrupt")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %s (have %s)" % (args.workload, names))

    build()
    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--offered-rps", args.offered_rps,
               "--source-id", source_id()]
    if args.trace_file:
        command += ["--trace-file", os.path.abspath(args.trace_file)]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rtr_suite did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        sys.exit(done.returncode)
    traced = args.trace == "1"
    declared = spec["per_layer" if traced else "end_to_end"]
    print(json.dumps(assemble(json.loads(lines[-1]), declared, traced)))


if __name__ == "__main__":
    main()
