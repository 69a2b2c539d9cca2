#!/usr/bin/env python3
"""Self-test of the suite benchmark: its checks must catch what they claim.

    python3 suitebench/selftest.py

1. A corrupted kernel fingerprint (kernels-mt, cem) and a corrupted
   service response (service-open, nn) each make the run incorrect:
   failed > 0 and ok_frac < 1.
2. Two traced runs with the same seed report every per-layer metric of
   BENCHMARK.json, drop no trace events, and repeat every count exactly.
3. An engine override in the environment makes the run refuse to start.

Runs are short (--seconds 1); expect a few minutes in total.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(workload, trace=0, seed=1, extra=(), env=None):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace)] + list(extra)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env=env)
    result = None
    if done.returncode == 0:
        result = json.loads(done.stdout.strip().split("\n")[-1])
    return done.returncode, result


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    return condition


def main():
    passed = True

    for workload, op in (("kernels-mt", "cem"), ("service-open", "nn")):
        code, result = run(workload, extra=["--corrupt", op])
        ok_frac = result and result["metrics"]["ok_frac"]["value"]
        passed &= check(code == 0 and not result["correct"]
                        and result["failed"] > 0 and ok_frac < 1,
                        "%s: corrupting %s raises fail_frac (failed=%s)"
                        % (workload, op, result and result["failed"]))
        code, result = run(workload)
        passed &= check(code == 0 and result["correct"]
                        and result["failed"] == 0,
                        "%s: clean run has fail_frac 0" % workload)

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, trace=1, seed=7) for _ in range(2)]
        if not check(all(code == 0 for code, _ in runs),
                     "%s: traced runs succeed" % workload):
            passed = False
            continue
        first, second = (result["metrics"] for _, result in runs)
        passed &= check(list(first) == list(declared),
                        "%s: every per-layer metric reported" % workload)
        passed &= check(first["bench.trace_dropped"]["value"] == 0,
                        "%s: no trace events dropped" % workload)
        counts = [n for n, unit in declared.items() if unit == "count"]
        same = [n for n in counts if first[n]["value"] == second[n]["value"]]
        passed &= check(same == counts,
                        "%s: counts repeat exactly (%s differ)"
                        % (workload, sorted(set(counts) - set(same))))

    env = dict(os.environ, RTR_SEARCH="heap")
    code, result = run("kernels-mt", env=env)
    passed &= check(code != 0 and result is None,
                    "RTR_SEARCH=heap in the environment is refused")

    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
