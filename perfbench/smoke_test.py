#!/usr/bin/env python3
"""Smoke test of the repo benchmark: every workload at a tiny scale, untraced
and traced, must pass its output gate with zero failed operations and report
every metric BENCHMARK.json lists (end_to_end untraced, per_layer traced) in
its listed unit, the end-to-end ones above zero; with a planted one-ulp
divergence in the reference answers, every workload must exit non-zero and
report correct=false.

    python3 perfbench/smoke_test.py      # from the root of a checkout

Takes about a minute after the first build.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.005"
SECONDS = "2.5"

WORKLOADS = ("build", "sandwich", "wire-lb")


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
         "--scale", SCALE, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    listed_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)

    failures = []
    for workload in WORKLOADS:
        for trace, expected in ((0, listed_e2e), (1, listed_layer)):
            code, result, err = run(workload, trace)
            what = f"{workload} trace={trace}"
            if code != 0 or result is None:
                failures.append(f"{what}: exit {code}\n{err[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{what}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{what}: {result}")
            got = result["metrics"]
            if set(got) != set(expected):
                failures.append(f"{what}: metrics {sorted(got)}")
            for name in set(got) & set(expected):
                if got[name]["unit"] != expected[name]:
                    failures.append(f"{what}: {name} in {got[name]['unit']}")
                if trace == 0 and not got[name]["value"] > 0:
                    failures.append(f"{what}: {name} = {got[name]['value']}")
            print(f"ok   {what}: {result['attempted']} operations", flush=True)

        code, result, err = run(workload, 0, "--plant-divergence")
        if code == 0 or (result is not None and result["correct"]):
            failures.append(f"{workload}: planted divergence passed the gate")
        elif "output gate:" not in err:
            failures.append(f"{workload}: planted run failed for another "
                            f"reason\n{err[-2000:]}")
        else:
            print(f"ok   {workload}: planted divergence trips the gate",
                  flush=True)

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
