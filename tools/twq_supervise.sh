#!/bin/sh
# twq_supervise.sh — minimal crash-only supervisor for `twq serve`
# (docs/SERVER.md, "Supervision").
#
#   twq_supervise.sh <twq-binary> <serve-args...>
#
# Runs the daemon in a restart loop and interprets its exit codes the
# way the daemon documents them:
#
#   exit 75            clean drain (EX_TEMPFAIL: SIGTERM/SIGINT was
#                      delivered and honored) — the supervisor stops too
#   exit 0             also treated as deliberate: stop
#   anything else      a crash (SIGKILL shows up as 137 = 128+9); the
#                      daemon is restarted after a short pause, because
#                      crash-only software treats restart-from-snapshot
#                      as the one true recovery path
#
# Environment knobs (all optional):
#   TWQ_SUPERVISE_PIDFILE      write the current daemon pid here after
#                              each (re)start; the kill-loop harness
#                              reads it to aim its SIGKILLs
#   TWQ_SUPERVISE_MAX_RESTARTS stop after this many restarts (default
#                              unlimited) — CI smokes bound themselves
#   TWQ_SUPERVISE_BACKOFF_MS   pause between crash and restart
#                              (default 50)
#   TWQ_SUPERVISE_LOG          append per-incarnation exit lines here
#
# SIGTERM/SIGINT to the supervisor forwards to the daemon and then
# waits for its drain — killing the supervisor is as safe as killing
# the daemon, which is the whole point.

set -u

if [ "$#" -lt 2 ]; then
  echo "usage: twq_supervise.sh <twq-binary> <serve-args...>" >&2
  exit 64
fi

TWQ=$1
shift

PIDFILE=${TWQ_SUPERVISE_PIDFILE:-}
MAX_RESTARTS=${TWQ_SUPERVISE_MAX_RESTARTS:-0}
BACKOFF_MS=${TWQ_SUPERVISE_BACKOFF_MS:-50}
LOG=${TWQ_SUPERVISE_LOG:-}

child=0
stopping=0

forward() {
  stopping=1
  if [ "$child" -gt 0 ] 2>/dev/null; then
    kill -TERM "$child" 2>/dev/null
  fi
}
trap forward TERM INT

restarts=0
while :; do
  "$TWQ" "$@" &
  child=$!
  # Write-then-rename, so a reader never sees a truncated pidfile.
  if [ -n "$PIDFILE" ]; then
    echo "$child" > "$PIDFILE.tmp" && mv -f "$PIDFILE.tmp" "$PIDFILE"
  fi
  # `wait` returns early when a trapped signal arrives; loop until the
  # child is really gone so drains are never abandoned half-way.
  while :; do
    wait "$child"
    code=$?
    kill -0 "$child" 2>/dev/null || break
  done
  # The TERM/INT trap can interrupt `wait` in the same instant the
  # child is reaped: `wait` then returns 128+signo of the *trap*, the
  # kill -0 probe fails, and $code would misreport a clean 75/0 drain
  # as a crash.  Re-waiting an already-reaped child returns its
  # recorded exit status; if the loop above already consumed that
  # status the shell answers 127 and the code in hand is the real one.
  wait "$child" 2>/dev/null
  final=$?
  [ "$final" -ne 127 ] && code=$final
  [ -n "$LOG" ] && echo "incarnation $restarts exit $code" >> "$LOG"
  if [ "$code" -eq 75 ] || [ "$code" -eq 0 ] || [ "$stopping" -eq 1 ]; then
    [ -n "$PIDFILE" ] && rm -f "$PIDFILE"
    exit "$code"
  fi
  restarts=$((restarts + 1))
  if [ "$MAX_RESTARTS" -gt 0 ] && [ "$restarts" -gt "$MAX_RESTARTS" ]; then
    echo "twq_supervise: giving up after $MAX_RESTARTS restarts" >&2
    [ -n "$PIDFILE" ] && rm -f "$PIDFILE"
    exit 70
  fi
  echo "twq_supervise: daemon exited $code; restart #$restarts" >&2
  # sleep in ms without requiring GNU sleep's fractions everywhere
  if [ "$BACKOFF_MS" -gt 0 ]; then
    sleep "$(awk "BEGIN { printf \"%.3f\", $BACKOFF_MS / 1000 }")"
  fi
done
