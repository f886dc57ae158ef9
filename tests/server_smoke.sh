#!/usr/bin/env bash
# Tier-2 spa-serve smoke: daemon up on a Unix-domain socket, one cold +
# one warm request through `spa-analyze --connect`, bit-identical result
# digests, a single-function edit served as a whole-program miss and its
# repeat as a hit, serve.* metrics keys present in both the per-request
# JSON and --serve-stats, clean shutdown.
#
#   server_smoke.sh <spa-serve> <spa-analyze> <examples-dir>
#
# Exit 77 = skip (instrumentation compiled out with SPA_OBS=OFF).
set -u

SERVE=$1
ANALYZE=$2
EXAMPLES=$3
WORK=$(mktemp -d)
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2> /dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

if ! "$ANALYZE" --stats "$EXAMPLES/loop.spa" | grep -q '='; then
  echo "metrics compiled out (SPA_OBS=OFF); skipping"
  exit 77
fi

SOCK="$WORK/daemon.sock"
"$SERVE" --socket="$SOCK" 2> "$WORK/serve.log" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || {
  cat "$WORK/serve.log"
  echo "FAIL: daemon socket never appeared"
  exit 1
}

# Cold then warm on the same program: second request is a whole-program
# cache hit with the identical result digest.
"$ANALYZE" --connect="$SOCK" "$EXAMPLES/pointers.spa" > "$WORK/cold.txt" \
  || { echo "FAIL: cold request"; exit 1; }
head -1 "$WORK/cold.txt" | grep -q 'cache_hit=0' || {
  cat "$WORK/cold.txt"
  echo "FAIL: first request should be a cache miss"
  exit 1
}
"$ANALYZE" --connect="$SOCK" --metrics-out="$WORK/warm.json" \
  "$EXAMPLES/pointers.spa" > "$WORK/warm.txt" \
  || { echo "FAIL: warm request"; exit 1; }
head -1 "$WORK/warm.txt" | grep -q 'cache_hit=1' || {
  cat "$WORK/warm.txt"
  echo "FAIL: repeat request should be a cache hit"
  exit 1
}
COLD_DIGEST=$(head -1 "$WORK/cold.txt" | sed 's/.*digest=\([0-9a-f]*\).*/\1/')
WARM_DIGEST=$(head -1 "$WORK/warm.txt" | sed 's/.*digest=\([0-9a-f]*\).*/\1/')
[ "$COLD_DIGEST" = "$WARM_DIGEST" ] || {
  echo "FAIL: warm digest $WARM_DIGEST != cold digest $COLD_DIGEST"
  exit 1
}
diff <(tail -n +2 "$WORK/cold.txt") <(tail -n +2 "$WORK/warm.txt") || {
  echo "FAIL: warm output text differs from cold"
  exit 1
}

# Single-function edit: the whole program is the unit of reuse, so the
# edit is a miss that re-solves everything, a repeat of it is a hit, and
# the result matches the daemon's own cold (--no-incremental) run of the
# edited program.
cat > "$WORK/multi.spa" <<'EOF'
fun alpha() {
  a = 0;
  while (a < 10) {
    a = a + 1;
  }
  return 0;
}
fun beta() {
  b = 100;
  while (b > 0) {
    b = b - 2;
  }
  return 0;
}
fun main() {
  alpha();
  beta();
  return 0;
}
EOF
sed 's/a < 10/a < 42/' "$WORK/multi.spa" > "$WORK/multi_edit.spa"
"$ANALYZE" --connect="$SOCK" "$WORK/multi.spa" > /dev/null || exit 1
EDIT_LINE=$("$ANALYZE" --connect="$SOCK" "$WORK/multi_edit.spa" | head -1)
echo "$EDIT_LINE" | grep -q 'reused=0 .*cache_hit=0' || {
  echo "$EDIT_LINE"
  echo "FAIL: single-function edit should be a whole-program miss"
  exit 1
}
REPEAT_LINE=$("$ANALYZE" --connect="$SOCK" "$WORK/multi_edit.spa" | head -1)
echo "$REPEAT_LINE" | grep -q 'cache_hit=1' || {
  echo "$REPEAT_LINE"
  echo "FAIL: repeat of the edit should be a cache hit"
  exit 1
}
EDIT_DIGEST=$(echo "$EDIT_LINE" | sed 's/.*digest=\([0-9a-f]*\).*/\1/')
ABLATED=$("$ANALYZE" --connect="$SOCK" --no-incremental \
  "$WORK/multi_edit.spa" | head -1)
echo "$ABLATED" | grep -q 'cache_hit=0' || {
  echo "$ABLATED"
  echo "FAIL: --no-incremental must bypass the cache"
  exit 1
}
ABLATED_DIGEST=$(echo "$ABLATED" | sed 's/.*digest=\([0-9a-f]*\).*/\1/')
[ "$EDIT_DIGEST" = "$ABLATED_DIGEST" ] || {
  echo "FAIL: warm digest $EDIT_DIGEST != ablated cold $ABLATED_DIGEST"
  exit 1
}

# Observability surfaces: per-request metrics JSON and the cumulative
# --serve-stats registry both carry the serve.* taxonomy.
for key in serve.requests serve.cache.hits serve.partitions.total \
  serve.partitions.reused serve.request.seconds; do
  grep -q "\"$key\"" "$WORK/warm.json" || {
    echo "FAIL: per-request metrics lack $key"
    exit 1
  }
done
"$ANALYZE" --connect="$SOCK" --serve-stats > "$WORK/stats.json" || exit 1
for key in serve.requests serve.cache.hits serve.cache.misses \
  uptime_seconds epoch_ns cache spa-serve-stats-v1; do
  grep -q "\"$key\"" "$WORK/stats.json" || {
    echo "FAIL: --serve-stats lacks $key"
    exit 1
  }
done

# Prometheus exposition over the wire: --serve-stats --prom-out does a
# second round trip with the prom flag and writes the text format.
"$ANALYZE" --connect="$SOCK" --serve-stats \
  --prom-out="$WORK/stats.prom" > /dev/null || exit 1
grep -q '^# TYPE spa_serve_requests_total counter$' "$WORK/stats.prom" || {
  cat "$WORK/stats.prom"
  echo "FAIL: daemon prom exposition lacks the serve requests counter"
  exit 1
}

# Live telemetry: --serve-watch=2 streams two consecutive frames from
# the running daemon, with monotone sequence numbers.
"$ANALYZE" --connect="$SOCK" --serve-watch=2 --watch-ms=50 \
  > "$WORK/watch.txt" || {
  echo "FAIL: --serve-watch request"
  exit 1
}
FRAMES=$(grep -c '"spa-serve-telemetry-v1"' "$WORK/watch.txt")
[ "$FRAMES" -eq 2 ] || {
  cat "$WORK/watch.txt"
  echo "FAIL: --serve-watch=2 produced $FRAMES frames, want 2"
  exit 1
}
grep -q '"seq": 1' "$WORK/watch.txt" && grep -q '"seq": 2' "$WORK/watch.txt" || {
  cat "$WORK/watch.txt"
  echo "FAIL: telemetry frames lack monotone sequence numbers"
  exit 1
}

"$ANALYZE" --connect="$SOCK" --serve-shutdown > /dev/null || {
  echo "FAIL: shutdown request"
  exit 1
}
wait "$SERVER_PID"
RC=$?
SERVER_PID=
[ "$RC" -eq 0 ] || {
  cat "$WORK/serve.log"
  echo "FAIL: daemon exited $RC"
  exit 1
}

echo "server smoke OK"
