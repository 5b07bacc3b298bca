#!/usr/bin/env sh
# The serving CLIs chained end to end: repro_served (toy model, <lanes>
# executor threads) -> two repro_client connections. Fails unless every
# reply is ok and the daemon exits cleanly on stdin EOF; the flight dump
# it writes on exit is left at <work-dir>/flightrec.json for
# repro_trace_inspect --expect-complete.
#
# Usage: served_chain_test.sh <repro_served> <repro_client> <lanes>
#                             <work-dir>
set -eu

SERVED=$1
CLIENT=$2
LANES=$3
WORK=$4

rm -rf "$WORK"
mkdir -p "$WORK"
FIFO="$WORK/stdin"
OUT="$WORK/served.out"
DUMP="$WORK/flightrec.json"
mkfifo "$FIFO"

REPRO_BENCH_DIR="$WORK" "$SERVED" --lanes "$LANES" --dump-flightrec "$DUMP" \
  < "$FIFO" > "$OUT" 2>&1 &
PID=$!
trap 'kill "$PID" 2> /dev/null || true' EXIT
# Hold the daemon's stdin open: EOF on it is the stop signal.
exec 3> "$FIFO"

PORT=
while [ -z "$PORT" ]; do
  if ! kill -0 "$PID" 2> /dev/null; then
    echo "served_chain_test: repro_served exited early:" >&2
    cat "$OUT" >&2
    exit 1
  fi
  PORT=$(sed -n 's/^serve: listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
    "$OUT")
  [ -n "$PORT" ] || sleep 0.2
done

"$CLIENT" --port "$PORT" --class 0 --seed 100 --count 2 --steps 4 \
  --requests 4
"$CLIENT" --port "$PORT" --class 1 --seed 200 --steps 4 --requests 3

exec 3>&-
wait "$PID"
trap - EXIT
cat "$OUT"
