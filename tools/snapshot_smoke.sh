#!/bin/sh
# Snapshot smoke (docs/SNAPSHOT.md), run by CI (tools/ci.sh, release
# preset): a run on a .twsnap walks the delim(t) the snapshot carries,
# so for every example program x example tree, `twq run` on the text
# tree and on its `twq snapshot build` output must print identical
# result lines (verdict, steps, subcomputations, reject reason) and
# exit with the same code.  `twq batch` loads trees the same way: one
# manifest over the text trees and one over their snapshots must give
# every job the verdict and step count `twq run` printed for it.
#
# Usage: snapshot_smoke.sh <twq-binary> [examples-dir]
set -u

TWQ="${1:?usage: snapshot_smoke.sh <twq> [examples-dir]}"
EXAMPLES="${2:-$(cd "$(dirname "$0")/../examples" && pwd)}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# One "<verdict> steps=<n>" line per job, in job order, from `twq run`
# or `twq batch` output; a failed run or job reads "ERROR".
run_result() {
  sed -n -E 's/^(ACCEPT|REJECT) \(([0-9]+) steps.*/\1 steps=\2/p' |
    grep . || echo ERROR
}
batch_results() {
  sed -n -E -e 's/^\[[0-9]+\] (ACCEPT|REJECT) .* (steps=[0-9]+) .*/\1 \2/p' \
    -e 's/^\[[0-9]+\] ERROR .*/ERROR/p'
}

runs=0
for tree in "$EXAMPLES"/trees/*.term; do
  snap="$WORK/$(basename "$tree" .term).twsnap"
  if ! "$TWQ" snapshot build "$tree" -o "$snap" >/dev/null; then
    echo "snapshot_smoke: FAIL: twq snapshot build $tree" >&2
    exit 1
  fi
  for program in "$EXAMPLES"/programs/*.twp; do
    text_out="$("$TWQ" run "$program" "$tree" 2>&1)"
    text_rc=$?
    snap_out="$("$TWQ" run "$program" "$snap" 2>&1)"
    snap_rc=$?
    if [ "$text_out" != "$snap_out" ] || [ "$text_rc" != "$snap_rc" ]; then
      echo "snapshot_smoke: FAIL: $program on $tree" >&2
      echo "  text (exit $text_rc): $text_out" >&2
      echo "  snapshot (exit $snap_rc): $snap_out" >&2
      exit 1
    fi
    echo "$text_out" | run_result >>"$WORK/expected"
    echo "$program $tree" >>"$WORK/text.manifest"
    echo "$program $snap" >>"$WORK/snap.manifest"
    runs=$((runs + 1))
  done
done
[ "$runs" -gt 0 ] || { echo "snapshot_smoke: FAIL: no runs" >&2; exit 1; }

for manifest in text snap; do
  "$TWQ" batch "$WORK/$manifest.manifest" --jobs 2 2>/dev/null |
    batch_results >"$WORK/$manifest.batch"
  if ! diff "$WORK/expected" "$WORK/$manifest.batch" >"$WORK/diff"; then
    echo "snapshot_smoke: FAIL: twq batch over the $manifest manifest" \
      "disagrees with twq run (< run, > batch):" >&2
    cat "$WORK/diff" >&2
    exit 1
  fi
done
echo "snapshot_smoke: OK ($runs program x tree pairs agree in run and batch)"
