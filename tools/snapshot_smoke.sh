#!/bin/sh
# Snapshot smoke (docs/SNAPSHOT.md), run by CI (tools/ci.sh, release
# preset): a run on a .twsnap walks the delim(t) the snapshot carries,
# so for every example program x example tree, `twq run` on the text
# tree and on its `twq snapshot build` output must print identical
# result lines (verdict, steps, subcomputations, reject reason) and
# exit with the same code.
#
# Usage: snapshot_smoke.sh <twq-binary> [examples-dir]
set -u

TWQ="${1:?usage: snapshot_smoke.sh <twq> [examples-dir]}"
EXAMPLES="${2:-$(cd "$(dirname "$0")/../examples" && pwd)}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

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
    runs=$((runs + 1))
  done
done
[ "$runs" -gt 0 ] || { echo "snapshot_smoke: FAIL: no runs" >&2; exit 1; }
echo "snapshot_smoke: OK ($runs program x tree pairs agree)"
