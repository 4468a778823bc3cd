#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 e2ebench/selftest.py

Runs every workload of BENCHMARK.json in quick mode (one set-up, one
second of measurement) through run.py and checks the result line: the
contract's keys, every end-to-end metric present, correct with no failed
op. Then runs one traced run and checks that every per-layer metric is
present, and reruns each workload with deliberately wrong recorded
digests (--corrupt-expected), which must count failures: success_ratio
below 1 and correct false. serve_mix, which BENCHMARK.json leaves out,
gets the quick run too; it records no digests (it pins cache hits to the
bytes of the miss that filled them). Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--quick", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        raise AssertionError(f"{workload}: nothing attempted")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    workloads = [w["name"] for w in spec["workloads"]]
    # serve_mix is not in BENCHMARK.json (too noisy on shared VMs, see
    # README.md) but still runs as the serve layer's traced probe.
    for workload in workloads + ["serve_mix"]:
        result = run(workload)
        missing = end_to_end - set(result["metrics"])
        if missing:
            problems.append(f"{workload}: missing {sorted(missing)}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: {result['failed']} failed ops")
        print(f"ok   {workload}: {result['attempted']} ops checked")
    traced = run(workloads[0], trace=1)
    missing = per_layer - set(traced["metrics"])
    if missing:
        problems.append(f"traced run: missing {sorted(missing)}")
    print(f"ok   traced {workloads[0]}: {len(traced['metrics'])} metrics")
    for workload in workloads:
        result = run(workload, extra=["--corrupt-expected"])
        ratio = result["metrics"]["success_ratio"]["value"]
        if result["correct"] or not result["failed"] or ratio >= 1:
            problems.append(f"{workload}: a wrong expected digest went unnoticed")
        print(f"ok   {workload} with wrong digests: {result['failed']} of "
              f"{result['attempted']} ops failed")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
