#!/usr/bin/env python3
"""Benchmark regression gate.

Compares fresh Google-Benchmark JSON files (written by the `bench`
ctest configuration, e.g. build-release/bench/BENCH_selectors.json)
against the committed baselines at the repository root and fails when
any series regresses by more than the threshold (default 25%).

    tools/bench_gate.py --fresh-dir build-release/bench --baseline-dir .
    tools/bench_gate.py --fresh BENCH_selectors.json=build-release/bench/BENCH_selectors.json

Series are matched by exact benchmark name and compared on cpu_time,
except `UseRealTime` arms (a `/real_time` suffix in the name), which are
compared on real_time: their cpu_time is only the main thread's idle
CPU while the workers do the measured work.  A series present only in
the fresh file is reported as NEW and not gated (commit a refreshed
baseline to start gating it).  A series present only in the baseline is
GONE and *fails* the gate with exit 3 — a silently vanished benchmark
is exactly how a perf regression hides (the arm that regressed gets
renamed or dropped and the gate keeps passing).  Intentional removals
refresh the baseline in the same commit.  A missing baseline file is
likewise exit 3 unless --allow-missing-baseline is given.
Aggregate rows (_mean/_median/_stddev/_cv) are skipped — with
--benchmark_repetitions they would double-count, and single-run rows
are what the baselines hold.

Baseline refresh (see docs/OBSERVABILITY.md): after an intentional
perf change, regenerate on a quiet machine and commit the new files —
either by hand:

    cmake --preset release && cmake --build --preset release -j
    (cd build-release && ctest -C bench -L bench)
    cp build-release/bench/BENCH_*.json .

or with --write-baseline, which copies every fresh file over its
baseline path after validating it (build type, parseable JSON) and
exits 0 without gating:

    tools/bench_gate.py --fresh-dir build-release/bench --baseline-dir . \
        --write-baseline

Exit codes:
  0  ok (or --write-baseline completed)
  1  regression over threshold
  2  bad invocation, malformed/missing fresh JSON, or a debug-build
     file on either side (baselines and candidates must both come from
     the release preset)
  3  missing baseline file, or a baseline series GONE from the fresh
     run — the gate has nothing sound to compare; refresh and commit
     the baseline (or pass --allow-missing-baseline for bring-up)
"""

import argparse
import glob
import json
import os
import shutil
import sys

AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv", "_BigO", "_RMS")


def check_build_type(path, doc):
    """Refuses debug-build benchmark files on either side of the gate.

    A debug baseline makes every release candidate look 5-20x faster (so
    real regressions sail through); a debug candidate fails everything.
    Benches stamp context.treewalk_build_type via bench/bench_context.cc;
    Google Benchmark's own context.library_build_type is the fallback
    for files generated before that.  Raises ValueError to stop the run.
    """
    context = doc.get("context", {})
    build_type = context.get(
        "treewalk_build_type", context.get("library_build_type", "")
    )
    if str(build_type).lower() == "debug":
        raise ValueError(
            f"{path}: benchmark JSON was generated by a DEBUG build "
            "(context says so); regenerate with the release preset — "
            "debug timings cannot gate release timings"
        )


def load_series(path):
    """name -> time in ns for every non-aggregate benchmark row: real_time
    for `/real_time` arms, cpu_time for every other row."""
    with open(path) as f:
        doc = json.load(f)
    check_build_type(path, doc)
    unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    series = {}
    for row in doc.get("benchmarks", []):
        name = row.get("name", "")
        if not name or name.endswith(AGGREGATE_SUFFIXES):
            continue
        if row.get("run_type") == "aggregate":
            continue
        value = row.get("real_time" if "/real_time" in name else "cpu_time")
        if value is None:
            continue
        series[name] = value * unit_ns.get(row.get("time_unit", "ns"), 1.0)
    return series


def compare(baseline_path, fresh_path, threshold, report):
    """Returns (regressions, gone): series over threshold and series
    present in the baseline but missing from the fresh run."""
    baseline = load_series(baseline_path)
    fresh = load_series(fresh_path)
    regressions = []
    gone = []
    for name in sorted(set(baseline) | set(fresh)):
        if name not in baseline:
            report.append(f"  NEW      {name} (no baseline; not gated)")
            continue
        if name not in fresh:
            gone.append(name)
            report.append(
                f"  GONE     {name} (in baseline, absent from fresh run)"
            )
            continue
        base, cur = baseline[name], fresh[name]
        if base <= 0:
            continue
        ratio = cur / base
        tag = "OK"
        if ratio > 1 + threshold:
            tag = "REGRESS"
            regressions.append((name, ratio))
        elif ratio < 1 - threshold:
            tag = "FASTER"
        report.append(
            f"  {tag:8} {name}: {base:.0f}ns -> {cur:.0f}ns "
            f"({(ratio - 1) * 100:+.1f}%)"
        )
    return regressions, gone


def main():
    parser = argparse.ArgumentParser(
        description="fail CI on >threshold benchmark regressions"
    )
    parser.add_argument(
        "--fresh-dir", help="directory holding freshly generated BENCH_*.json"
    )
    parser.add_argument(
        "--baseline-dir", default=".", help="directory with committed baselines"
    )
    parser.add_argument(
        "--fresh",
        action="append",
        default=[],
        metavar="BASENAME=PATH",
        help="explicit baseline-basename=fresh-path pair (repeatable)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional time regression that fails the gate "
        "(default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--allow-missing-baseline",
        action="store_true",
        help="skip fresh files without a committed baseline instead of "
        "failing with exit 3 (bring-up of a new benchmark)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="validate each fresh file and copy it over its baseline "
        "path instead of gating (intentional perf-change refresh)",
    )
    args = parser.parse_args()

    pairs = []  # (baseline_path, fresh_path)
    for spec in args.fresh:
        if "=" not in spec:
            print(f"bench_gate: bad --fresh '{spec}' (want BASENAME=PATH)")
            return 2
        basename, path = spec.split("=", 1)
        pairs.append((os.path.join(args.baseline_dir, basename), path))
    if args.fresh_dir:
        for path in sorted(glob.glob(os.path.join(args.fresh_dir, "BENCH_*.json"))):
            pairs.append(
                (os.path.join(args.baseline_dir, os.path.basename(path)), path)
            )
    if not pairs:
        print("bench_gate: nothing to compare (no --fresh/--fresh-dir matches)")
        return 2

    if args.write_baseline:
        for baseline_path, fresh_path in pairs:
            try:
                load_series(fresh_path)  # validates JSON + build type
            except (json.JSONDecodeError, OSError, ValueError) as e:
                print(f"bench_gate: {os.path.basename(fresh_path)}: {e}")
                return 2
            shutil.copyfile(fresh_path, baseline_path)
            print(f"bench_gate: wrote baseline {baseline_path}")
        return 0

    all_regressions = []
    all_gone = []
    for baseline_path, fresh_path in pairs:
        name = os.path.basename(fresh_path)
        if not os.path.exists(fresh_path):
            print(f"bench_gate: fresh file missing: {fresh_path}")
            return 2
        if not os.path.exists(baseline_path):
            if args.allow_missing_baseline:
                print(f"bench_gate: {name}: no committed baseline; skipping "
                      f"(commit {baseline_path} to gate it)")
                continue
            print(f"bench_gate: {name}: MISSING BASELINE {baseline_path} — "
                  "the gate cannot protect what it cannot compare.  Either "
                  "commit a baseline (tools/bench_gate.py --write-baseline, "
                  "see docs/OBSERVABILITY.md) or pass "
                  "--allow-missing-baseline while bringing the benchmark up.")
            return 3
        report = []
        try:
            regressions, gone = compare(
                baseline_path, fresh_path, args.threshold, report
            )
        except (json.JSONDecodeError, OSError, ValueError) as e:
            print(f"bench_gate: {name}: {e}")
            return 2
        print(f"bench_gate: {name} vs {baseline_path} "
              f"(threshold {args.threshold:.0%}):")
        print("\n".join(report))
        all_regressions += [(name, s, r) for s, r in regressions]
        all_gone += [(name, s) for s in gone]

    if all_gone:
        print("bench_gate: FAIL — baseline series missing from the fresh "
              "run (renamed or dropped benchmarks must refresh the "
              "baseline in the same commit):")
        for name, series in all_gone:
            print(f"  {name}: {series}")
        return 3
    if all_regressions:
        print("bench_gate: FAIL — regressions over threshold:")
        for name, series, ratio in all_regressions:
            print(f"  {name}: {series} {(ratio - 1) * 100:+.1f}%")
        return 1
    print("bench_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
