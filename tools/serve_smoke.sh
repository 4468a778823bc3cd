#!/usr/bin/env bash
# End-to-end smoke of the rapsim-served daemon with real processes:
#
#   tools/serve_smoke.sh [path/to/rapsim-served] [path/to/rapsim-client]
#
# Two daemon incarnations on throwaway UNIX sockets:
#
#   normal config    1. >= 8 concurrent clients across every method
#                       family all succeed, and the daemon drains on
#                       the shutdown method;
#   1 worker/queue 1 2. saturating the pool sheds with a structured
#                       503 overloaded;
#                    3. SIGTERM drains gracefully: exit code 0, metrics
#                       flushed, and the document records the shed.
#
# The response documents themselves (cache byte-identity, the stats
# gauges, the span flame) are checked by `rapsim-schema serve`.
# Registered as the ctest entry `serve_smoke`; also run by run_all.sh.

set -euo pipefail

SERVED="${1:-build/tools/rapsim-served}"
CLIENT="${2:-build/tools/rapsim-client}"
for bin in "$SERVED" "$CLIENT"; do
  if [ ! -x "$bin" ]; then
    echo "serve_smoke: binary not found: $bin" >&2
    exit 1
  fi
done

WORK="$(mktemp -d)"
SOCK="$WORK/served.sock"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -KILL "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "serve_smoke: $*" >&2; exit 1; }

start_daemon() {  # start_daemon <flags...>
  rm -f "$SOCK"
  "$SERVED" --socket="$SOCK" "$@" > "$WORK/served.log" &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died on startup"
    sleep 0.1
  done
  fail "socket $SOCK never appeared"
}

rpc() { "$CLIENT" "$@" --socket="$SOCK"; }

# --- 1. concurrent mixed-method clients --------------------------------
start_daemon
KERNEL="$(dirname "$0")/../examples/naive_transpose.kernel"
TRACE="$(dirname "$0")/../examples/contiguous_stride.trace"
PIDS=()
for i in 1 2 3 4; do
  rpc certify --addresses="0,$((i * 32)),$((i * 64))" --width=32 \
      > "$WORK/out_certify_$i" &
  PIDS+=($!)
  rpc advise --addresses="$i,$((i + 32))" --rows=4 --width=32 --draws=4 \
      > "$WORK/out_advise_$i" &
  PIDS+=($!)
done
rpc lint --file="$KERNEL" > "$WORK/out_lint" &
PIDS+=($!)
rpc replay --trace="$TRACE" --scheme=rap --seed=3 > "$WORK/out_replay" &
PIDS+=($!)
rpc ping > "$WORK/out_ping" &
PIDS+=($!)
rpc stats > "$WORK/out_stats" &
PIDS+=($!)
for pid in "${PIDS[@]}"; do
  wait "$pid" || fail "a concurrent client failed"
done
echo "serve_smoke: ${#PIDS[@]} concurrent clients OK"

rpc shutdown > /dev/null
wait "$DAEMON_PID" || fail "daemon did not drain after client shutdown"
DAEMON_PID=""

# --- 2. deliberate overload sheds with 503 -----------------------------
# Tiny incarnation: hold the single worker, fill the queue's one slot,
# then watch the next request bounce. Control-plane stats bypasses the
# queue, so polling it under saturation is itself part of the check.
METRICS="$WORK/metrics.json"
start_daemon --workers=1 --queue-depth=1 --metrics-out="$METRICS"

rpc raw '{"method":"certify","params":{"addresses":[1],"width":32},"debug_hold_ms":4000}' \
    > "$WORK/hold_a" &
HOLD_A=$!
for _ in $(seq 1 100); do
  rpc stats > "$WORK/stats_poll" || fail "stats unreachable while held"
  grep -q '"in_flight":1' "$WORK/stats_poll" && \
    grep -q '"queue_depth":0' "$WORK/stats_poll" && break
  sleep 0.05
done
grep -q '"in_flight":1' "$WORK/stats_poll" || fail "hold never started"

rpc raw '{"method":"certify","params":{"addresses":[2],"width":32},"debug_hold_ms":500}' \
    > "$WORK/hold_b" &
HOLD_B=$!
for _ in $(seq 1 100); do
  rpc stats > "$WORK/stats_poll"
  grep -q '"queue_depth":1' "$WORK/stats_poll" && break
  sleep 0.05
done
grep -q '"queue_depth":1' "$WORK/stats_poll" || fail "queue slot never filled"

rpc raw '{"id":"shed-me","method":"certify","params":{"addresses":[3],"width":32}}' \
    > "$WORK/shed"
grep -q '"code":503' "$WORK/shed" || fail "expected a 503 shed, got: $(cat "$WORK/shed")"
grep -q '"name":"overloaded"' "$WORK/shed" || fail "shed lacks the overloaded name"
wait "$HOLD_A" || fail "held request A failed"
wait "$HOLD_B" || fail "held request B failed"
echo "serve_smoke: overload shed with structured 503 OK"

# --- 3. graceful SIGTERM drain -----------------------------------------
kill -TERM "$DAEMON_PID"
DRAIN_RC=0
wait "$DAEMON_PID" || DRAIN_RC=$?
DAEMON_PID=""
[ "$DRAIN_RC" -eq 0 ] || fail "daemon exited $DRAIN_RC on SIGTERM"
grep -q "drained cleanly" "$WORK/served.log" || fail "no drain banner logged"
[ -f "$METRICS" ] || fail "drain did not flush $METRICS"
grep -q '"experiment":"rapsim_served"' "$METRICS" || fail "metrics document malformed"
grep -q '"shed_total":1' "$METRICS" || fail "flushed metrics lost the shed count"
echo "serve_smoke: SIGTERM drain OK (exit 0, metrics flushed)"

echo "serve_smoke: PASS"
