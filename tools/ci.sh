#!/bin/sh
# Configures, builds, and tests the CMakePresets.json presets.  Test
# selection is driven by ctest labels set in tests/CMakeLists.txt and
# bench/CMakeLists.txt (tier1 / asan-focus / planner / threaded /
# bench / nightly), not by hardcoded binary lists.  Run from anywhere;
# each preset builds in build-<preset>/ next to the sources.
#
#   tools/ci.sh                 # release + asan (the default gate)
#   tools/ci.sh release         # one preset
#   tools/ci.sh tsan            # threaded suites under ThreadSanitizer
#   tools/ci.sh fuzz            # Clang libFuzzer smoke (30s per target)
#
# Presets:
#   release  RelWithDebInfo; full ctest pass, the perfbench/ build
#            (twq + pbtool, -Werror), the snapshot, serve and
#            supervise smokes, then the benchmark ctest
#            configuration (-C bench -L bench) and the regression gate
#            (tools/bench_gate.py vs the committed BENCH_*.json).
#   asan     Debug + ASan/UBSan; full ctest pass, then an explicit
#            re-run of the `asan-focus` label (differential oracles,
#            fault injection, crash recovery) with sanitizers fatal,
#            and the serve and supervise smokes.
#   tsan     Debug + TSan; the `threaded` label only (thread-pool
#            engine, crash recovery, metrics/trace concurrency).
#   fuzz     Clang + libFuzzer harnesses; each target gets 30s from its
#            seed corpus.  Skipped with a note when clang is absent.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
presets="${1:-release asan}"

for preset in $presets; do
  echo "==== preset: $preset ===="
  if [ "$preset" = fuzz ] && ! command -v clang++ >/dev/null 2>&1; then
    echo "fuzz: clang++ not found; skipping (libFuzzer needs Clang)"
    continue
  fi
  cmake --preset "$preset" -S "$root"
  cmake --build --preset "$preset" -j "$jobs"
  case "$preset" in
    release)
      (cd "$root" && ctest --preset release -j "$jobs")
      # The end-to-end benchmark's stand-alone build (perfbench/, whose
      # CMakeLists adds -Wall -Wextra): twq and its helper pbtool, held
      # to zero warnings.  pbtool reads library names no other target
      # uses (RunStats::selector_cache_*, CompileSelectorCached,
      # PlanSelector), so a library change must keep it compiling.
      cmake -S "$root/perfbench" -B "$root/build-perfbench" \
        -DCMAKE_CXX_FLAGS=-Werror
      cmake --build "$root/build-perfbench" -j "$jobs" --target twq pbtool
      # Snapshot smoke: every example program answers the same on each
      # example tree and on its `twq snapshot build` output, which
      # carries delim(t) (docs/SNAPSHOT.md).
      sh "$root/tools/snapshot_smoke.sh" "$root/build-release/tools/twq"
      # End-to-end daemon smoke: start `twq serve`, drive it with
      # twq_loadgen, SIGHUP-reload, then SIGTERM and assert the graceful
      # drain exit code 75 (see docs/SERVER.md).
      sh "$root/tools/serve_smoke.sh" \
        "$root/build-release/tools/twq" \
        "$root/build-release/tools/twq_loadgen"
      # Supervisor smoke (<60s): a short SIGKILL/restart loop under
      # tools/twq_supervise.sh proving the crash-only contract at the
      # process level — restart on crash, ready probe recovers, drain
      # exits 75.  The 25-cycle statistical version is
      # tests/supervise_test.cc in the tier-1 pass above.
      sh "$root/tools/supervise_smoke.sh" "$root/build-release/tools/twq"
      # Benchmarks live in a separate ctest configuration so the
      # default (tier-1) run stays fast; each writes BENCH_<name>.json
      # next to its binary, and the gate fails on >25% regressions of
      # named series vs the committed baselines (see
      # docs/OBSERVABILITY.md for the baseline-refresh procedure).
      (cd "$root/build-release" && ctest -C bench -L bench \
        --output-on-failure)
      python3 "$root/tools/bench_gate.py" \
        --fresh-dir "$root/build-release/bench" --baseline-dir "$root"
      ;;
    asan)
      (cd "$root" && ctest --preset asan -j "$jobs")
      # Explicit sanitizer pass over the differential oracles and every
      # fault-injection / crash-recovery error path, so injected
      # failures cannot hide leaks or UB in the unwind paths.
      (cd "$root/build-asan" && ctest -L asan-focus --output-on-failure \
        -j "$jobs")
      # Planner gate under sanitizers: the 500+-instance differential
      # oracle (planner_test) and the `twq explain` golden
      # (explain_test); label `planner` in tests/CMakeLists.txt.
      (cd "$root/build-asan" && ctest -L planner --output-on-failure \
        -j "$jobs")
      # The same daemon smoke under ASan/UBSan: the accept loop, the
      # cancel paths, and the drain unwind all run with sanitizers
      # fatal.
      sh "$root/tools/serve_smoke.sh" \
        "$root/build-asan/tools/twq" \
        "$root/build-asan/tools/twq_loadgen"
      # And the supervisor smoke, against the sanitizer-built daemon.
      sh "$root/tools/supervise_smoke.sh" "$root/build-asan/tools/twq"
      ;;
    tsan)
      # TSan costs ~10x; run exactly the suites that exercise real
      # threads (label filter lives in the tsan test preset).
      (cd "$root" && ctest --preset tsan -j "$jobs")
      ;;
    fuzz)
      echo "==== fuzz smoke (30s per target) ===="
      # Every harness tests/fuzz/CMakeLists.txt builds, each from the
      # corpus directory of the same name.
      for bin in "$root"/build-fuzz/tests/fuzz/fuzz_*; do
        [ -f "$bin" ] && [ -x "$bin" ] || continue
        target="${bin##*/fuzz_}"
        "$bin" "$root/tests/fuzz/corpus/$target" -max_total_time=30 \
          -print_final_stats=1
      done
      ;;
    *)
      (cd "$root" && ctest --preset "$preset" -j "$jobs")
      ;;
  esac
done
echo "==== ci.sh: all presets green ===="
