#!/usr/bin/env python3
"""tools/bench_gate.py gates `/real_time` arms on real time.

Runs the gate on two fixture files (tests/fixtures/bench_gate_*.json)
whose rows regress 10x in real time only:

  - with the `/real_time` row present the gate must fail (exit 1);
  - with only the plain row left it must pass (exit 0): a plain row is
    gated on cpu_time, which did not move.

Usage: bench_gate_test.py <source-dir>
"""

import json
import os
import subprocess
import sys
import tempfile


def gate(source_dir, baseline, fresh):
    return subprocess.run(
        [sys.executable, os.path.join(source_dir, "tools", "bench_gate.py"),
         "--baseline-dir", os.path.dirname(baseline),
         "--fresh", os.path.basename(baseline) + "=" + fresh],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def without_real_time_rows(path, out_dir):
    with open(path) as f:
        doc = json.load(f)
    doc["benchmarks"] = [row for row in doc["benchmarks"]
                         if "/real_time" not in row["name"]]
    out = os.path.join(out_dir, os.path.basename(path))
    with open(out, "w") as f:
        json.dump(doc, f)
    return out


def main():
    source_dir = sys.argv[1]
    fixtures = os.path.join(source_dir, "tests", "fixtures")
    baseline = os.path.join(fixtures, "bench_gate_baseline.json")
    fresh = os.path.join(fixtures, "bench_gate_fresh.json")
    failures = []

    r = gate(source_dir, baseline, fresh)
    if r.returncode != 1 or "BM_Workers/2/real_time" not in r.stdout.split(
            "regressions over threshold:")[-1]:
        failures.append("a /real_time row regressing in real time only "
                        f"must fail the gate (exit {r.returncode}):\n"
                        + r.stdout)

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "baseline")
        os.mkdir(base_dir)
        plain_baseline = without_real_time_rows(baseline, base_dir)
        plain_fresh = without_real_time_rows(fresh, tmp)
        r = gate(source_dir, plain_baseline, plain_fresh)
        if r.returncode != 0:
            failures.append("a plain row regressing in real time only must "
                            f"pass the gate (exit {r.returncode}):\n"
                            + r.stdout)

    for failure in failures:
        print("FAIL: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
