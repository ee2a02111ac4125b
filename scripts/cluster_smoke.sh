#!/usr/bin/env bash
# Fleet smoke test: boot a coordinator (with WAL) fronting two workers,
# drive mixed open-loop traffic through it with qaoaload (every 4th
# request followed over SSE), kill -9 one worker mid-run, and let
# qaoaload's exit status assert that every accepted job still completes
# — the dispatcher must fail the dead worker's jobs over to the
# survivor. CI runs this; it is also runnable locally:
# scripts/cluster_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

COORD_PORT="${COORD_PORT:-18080}"
W1_PORT="${W1_PORT:-18081}"
W2_PORT="${W2_PORT:-18082}"
RATE="${RATE:-40}"
DURATION="${DURATION:-8s}"

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/qaoad" ./cmd/qaoad
go build -o "$workdir/qaoaload" ./cmd/qaoaload

wait_healthy() { # url
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: $1 never became healthy" >&2
  return 1
}

echo "== start 2 workers"
"$workdir/qaoad" -addr "127.0.0.1:$W1_PORT" -workers 2 &
w1_pid=$!
pids+=("$w1_pid")
"$workdir/qaoad" -addr "127.0.0.1:$W2_PORT" -workers 2 &
pids+=("$!")
wait_healthy "http://127.0.0.1:$W1_PORT"
wait_healthy "http://127.0.0.1:$W2_PORT"

echo "== start coordinator (-peers; WAL at $workdir/coord.wal)"
"$workdir/qaoad" -addr "127.0.0.1:$COORD_PORT" \
  -peers "http://127.0.0.1:$W1_PORT,http://127.0.0.1:$W2_PORT" \
  -wal "$workdir/coord.wal" -cache -1 &
pids+=("$!")
wait_healthy "http://127.0.0.1:$COORD_PORT"
case "$(curl -fsS "http://127.0.0.1:$COORD_PORT/healthz")" in
  *'"mode":"coordinator"'*) ;;
  *) echo "FAIL: -peers did not make a coordinator" >&2; exit 1 ;;
esac

echo "== offer mixed traffic at $RATE rps for $DURATION (every 4th via SSE), killing worker 1 mid-run"
# qaoaload exits 1 unless failed == 0, done + rejected == items, done > 0
# and at least one job completed over its SSE stream.
"$workdir/qaoaload" -addr "http://127.0.0.1:$COORD_PORT" \
  -rate "$RATE" -duration "$DURATION" &
load_pid=$!
sleep 3
echo "== kill -9 worker 1 (pid $w1_pid)"
kill -9 "$w1_pid"
wait "$load_pid"

echo "== coordinator still healthy after the kill"
curl -fsS "http://127.0.0.1:$COORD_PORT/healthz"
echo
echo "cluster smoke: OK"
