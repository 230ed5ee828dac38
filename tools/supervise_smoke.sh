#!/usr/bin/env bash
# Bounded (<60 s) smoke test for tools/twq_supervise.sh, run by CI
# (tools/ci.sh): a small kill-loop proving the crash-only contract
# end-to-end at the process level —
#
#   1. start the daemon under the supervisor on a fixed port;
#   2. SIGKILL the daemon several times, each time asserting the
#      supervisor restarts it and a ready probe comes back ok;
#   3. SIGTERM the supervisor and assert it forwards the signal, the
#      daemon drains (exit 75), and the supervisor exits 75 too.
#
# The 25+-cycle statistical version with a wrong-answer oracle lives in
# tests/supervise_test.cc; this script only proves the shipping shell
# supervisor wires the same contract together.
#
# Usage: supervise_smoke.sh <twq-binary> [kills]
set -u

TWQ="${1:?usage: supervise_smoke.sh <twq> [kills]}"
KILLS="${2:-4}"
SUPERVISE="$(dirname "$0")/twq_supervise.sh"

WORK="$(mktemp -d)"
SUP_PID=""
cleanup() {
  if [ -n "$SUP_PID" ]; then
    kill -KILL "$SUP_PID" 2>/dev/null
    [ -s "$WORK/pid" ] && kill -KILL "$(cat "$WORK/pid")" 2>/dev/null
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "supervise_smoke: FAIL: $*" >&2; exit 1; }

mkdir -p "$WORK/corpus"
echo 'a[x=1](b(c, d), e[x=2])' > "$WORK/corpus/small.term"

# A fixed port so every incarnation rebinds the same address (an
# ephemeral port would strand the clients after the first restart).
PORT="$(python3 -c '
import socket
s = socket.socket()
s.bind(("127.0.0.1", 0))
print(s.getsockname()[1])
s.close()')"
REMOTE="127.0.0.1:$PORT"

TWQ_SUPERVISE_PIDFILE="$WORK/pid" \
TWQ_SUPERVISE_LOG="$WORK/incarnations.log" \
TWQ_SUPERVISE_MAX_RESTARTS=$((KILLS + 2)) \
TWQ_SUPERVISE_BACKOFF_MS=20 \
    "$SUPERVISE" "$TWQ" serve "$WORK/corpus" --port "$PORT" --workers 2 \
    --drain-ms 2000 --quiet > "$WORK/sup.out" 2>"$WORK/sup.err" &
SUP_PID=$!

await_ready() {
  for _ in $(seq 1 200); do
    "$TWQ" probe ready --remote "$REMOTE" --timeout-ms 500 \
        > /dev/null 2>&1 && return 0
    kill -0 "$SUP_PID" 2>/dev/null || fail "supervisor died: $(tail -3 "$WORK/sup.err")"
    sleep 0.05
  done
  return 1
}

await_ready || fail "daemon never became ready"

for i in $(seq 1 "$KILLS"); do
  PID="$(cat "$WORK/pid" 2>/dev/null)"
  [ -n "$PID" ] || fail "no pidfile before kill #$i"
  kill -KILL "$PID" 2>/dev/null
  await_ready || fail "daemon not ready again after SIGKILL #$i"
done

RESTARTS="$(grep -c 'exit 137' "$WORK/incarnations.log" 2>/dev/null || true)"
[ "$RESTARTS" -eq "$KILLS" ] || fail "expected $KILLS SIGKILL exits in the log, saw $RESTARTS"

# Deliberate stop: SIGTERM forwards, daemon drains with 75, supervisor
# reports the same.
kill -TERM "$SUP_PID"
SUP_EXIT=0
wait "$SUP_PID" || SUP_EXIT=$?
SUP_PID=""
[ "$SUP_EXIT" -eq 75 ] || fail "expected supervisor exit 75 after forwarded drain, got $SUP_EXIT"
grep -q 'exit 75' "$WORK/incarnations.log" || fail "no drained incarnation in the log"

echo "supervise_smoke: OK ($KILLS SIGKILL/restart cycles, drained exit 75)"
