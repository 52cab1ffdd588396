#!/usr/bin/env bash
# End-to-end smoke of the provenance query service: capture a CPG with
# inspector_cli, run the canned request file through inspector_query
# as a batch at 1 and 8 analysis workers and line by line on stdin,
# and diff every reply stream against the checked-in golden file. Then
# re-serve the same session from a *sharded* store (inspector_cli
# --shard-out) under a resident-shard budget smaller than the store,
# at two shard counts; from an LZ-compressed 3-shard store
# (--compress); and from a store built from a 60% rank-prefix of the
# capture and grown to the full history by an incremental append
# (--shard-prefix / --shard-append) -- every storage form must
# reproduce the golden replies byte for byte. Any diff means the wire
# format, the engine's answers, the worker-count determinism contract,
# or the shard-store equivalence contract (shard count, compression,
# or append) regressed.
#
# The observability layer rides the same golden session: one run with
# the trace sink, slow-query log, and metrics exports fully enabled
# must still match the golden file byte for byte (instrumentation must
# never perturb replies), and the --dump-metrics / "op":"metrics"
# snapshots must carry the core series.
#
#   query_smoke.sh <inspector_cli> <inspector_query> <data_dir> [tmp_dir]
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 <inspector_cli> <inspector_query> <data_dir> [tmp_dir]" >&2
  exit 2
fi

CLI=$1
QUERY=$2
DATA_DIR=$3
SERVE_PID=
stop_server() {
  if [ -n "${SERVE_PID:-}" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=
  fi
}
if [ $# -ge 4 ]; then
  TMP_DIR=$4
  mkdir -p "$TMP_DIR"
  trap 'stop_server; \
        rm -f "$TMP_DIR/smoke.cpg" "$TMP_DIR/smoke.1w" "$TMP_DIR/smoke.8w" \
        "$TMP_DIR/smoke.stdin" \
        "$TMP_DIR/smoke.shard3" "$TMP_DIR/smoke.shard7" \
        "$TMP_DIR/smoke.shardz" "$TMP_DIR/smoke.sharda" \
        "$TMP_DIR"/smoke.obs* "$TMP_DIR"/smoke.trace* "$TMP_DIR/smoke.prom" \
        "$TMP_DIR"/smoke.net* "$TMP_DIR"/smoke.sock*; \
        rm -rf "$TMP_DIR/smoke.store3" "$TMP_DIR/smoke.store7" \
        "$TMP_DIR/smoke.storez" "$TMP_DIR/smoke.storea" \
        "$TMP_DIR/smoke.torn" "$TMP_DIR/smoke.emptystore"' EXIT
else
  TMP_DIR=$(mktemp -d)
  trap 'stop_server; rm -rf "$TMP_DIR"' EXIT
fi

REQUESTS="$DATA_DIR/query_smoke_requests.jsonl"
GOLDEN="$DATA_DIR/query_smoke_golden.jsonl"

# The capture is a deterministic simulation: same workload, threads,
# scale, and seed always produce the same CPG, so the golden replies
# are stable across machines. The same run also exports the sharded
# stores: plain 3- and 7-shard, an LZ-compressed 3-shard, and an
# appendable store seeded from the capture's 60% rank-prefix. All
# stores are written in the current shard format (v3, varint-packed
# sidecars); the golden file predates v3, so matching it also proves
# the format change left every reply byte untouched.
"$CLI" run histogram --threads 4 --scale 0.2 --seed 0 \
    --dump-cpg "$TMP_DIR/smoke.cpg" \
    --shard-out "$TMP_DIR/smoke.store3" --shards 3 > /dev/null
"$CLI" run histogram --threads 4 --scale 0.2 --seed 0 \
    --shard-out "$TMP_DIR/smoke.store7" --shards 7 > /dev/null
"$CLI" run histogram --threads 4 --scale 0.2 --seed 0 \
    --shard-out "$TMP_DIR/smoke.storez" --shards 3 --compress > /dev/null
"$CLI" run histogram --threads 4 --scale 0.2 --seed 0 \
    --shard-out "$TMP_DIR/smoke.storea" --shards 3 --shard-prefix 60 \
    > /dev/null
# The deterministic re-capture extends the stored prefix: only the
# suffix shards are rewritten, and the store then serves the full
# history.
"$CLI" run histogram --threads 4 --scale 0.2 --seed 0 \
    --shard-append "$TMP_DIR/smoke.storea" > /dev/null

"$QUERY" "$TMP_DIR/smoke.cpg" --requests "$REQUESTS" \
    --analysis-threads 1 > "$TMP_DIR/smoke.1w"
"$QUERY" "$TMP_DIR/smoke.cpg" --requests "$REQUESTS" \
    --analysis-threads 8 > "$TMP_DIR/smoke.8w"

diff -u "$GOLDEN" "$TMP_DIR/smoke.1w" || {
  echo "FAIL: 1-worker replies differ from the golden file" >&2
  exit 1
}
diff -u "$TMP_DIR/smoke.1w" "$TMP_DIR/smoke.8w" || {
  echo "FAIL: replies differ between 1 and 8 workers" >&2
  exit 1
}
# The interactive mode answers one stdin line at a time through the
# same service, and must print the same bytes.
"$QUERY" "$TMP_DIR/smoke.cpg" --analysis-threads 8 < "$REQUESTS" \
    > "$TMP_DIR/smoke.stdin"
diff -u "$GOLDEN" "$TMP_DIR/smoke.stdin" || {
  echo "FAIL: interactive (stdin) replies differ from the golden file" >&2
  exit 1
}

# Observability must never perturb reply bytes: the same session with
# the trace sink, an aggressive slow-query log, and both metrics
# exports fully enabled must still reproduce the golden file exactly.
# Replies own stdout; traces go to the sink file, the JSON metrics
# snapshot to stderr (--dump-metrics), Prometheus text to --metrics-out.
INSPECTOR_TRACE="$TMP_DIR/smoke.trace" INSPECTOR_SLOW_QUERY_MS=1 \
    "$QUERY" "$TMP_DIR/smoke.cpg" --requests "$REQUESTS" \
    --analysis-threads 8 --dump-metrics \
    --metrics-out "$TMP_DIR/smoke.prom" \
    > "$TMP_DIR/smoke.obs" 2> "$TMP_DIR/smoke.obs.err"
diff -u "$GOLDEN" "$TMP_DIR/smoke.obs" || {
  echo "FAIL: replies changed with tracing and metrics enabled" >&2
  exit 1
}
grep -q '"type":"span"' "$TMP_DIR/smoke.trace" || {
  echo "FAIL: trace sink captured no spans from the traced session" >&2
  exit 1
}
# The --dump-metrics snapshot is one JSON object holding the core
# series: per-kind query latency histograms and the query counters.
grep -q '^{"counters":{.*}}$' "$TMP_DIR/smoke.obs.err" || {
  echo "FAIL: --dump-metrics did not emit a JSON metrics object" >&2
  exit 1
}
for series in 'query_total{kind=' 'query_latency_us{kind=' \
    'query_cache_hits_total'; do
  grep -qF "$series" "$TMP_DIR/smoke.obs.err" || {
    echo "FAIL: --dump-metrics snapshot lacks series $series" >&2
    exit 1
  }
done
grep -q '^query_latency_us_bucket{kind=' "$TMP_DIR/smoke.prom" || {
  echo "FAIL: --metrics-out lacks per-kind latency buckets" >&2
  exit 1
}

# The sharded session exports the shard-store series.
"$QUERY" --store "$TMP_DIR/smoke.store3" --shard-budget 40000 \
    --requests "$REQUESTS" --analysis-threads 1 --dump-metrics \
    > /dev/null 2> "$TMP_DIR/smoke.obs.store"
for series in shard_store_loads_total shard_store_evictions_total \
    shard_store_retries_total shard_store_quarantine_transitions_total; do
  grep -qF "$series" "$TMP_DIR/smoke.obs.store" || {
    echo "FAIL: sharded --dump-metrics snapshot lacks $series" >&2
    exit 1
  }
done

# Sharded serving: a 40 KB budget (decoded bytes) is far below either
# store's ~75 KB of decoded shards, so every session runs genuinely
# out-of-core with evictions -- including the compressed store, whose
# *encoded* size is much smaller but whose decoded footprint is not.
"$QUERY" --store "$TMP_DIR/smoke.store3" --shard-budget 40000 \
    --requests "$REQUESTS" --analysis-threads 8 > "$TMP_DIR/smoke.shard3"
"$QUERY" --store "$TMP_DIR/smoke.store7" --shard-budget 40000 \
    --requests "$REQUESTS" --analysis-threads 1 > "$TMP_DIR/smoke.shard7"
"$QUERY" --store "$TMP_DIR/smoke.storez" --shard-budget 40000 \
    --requests "$REQUESTS" --analysis-threads 8 > "$TMP_DIR/smoke.shardz"
"$QUERY" --store "$TMP_DIR/smoke.storea" --shard-budget 40000 \
    --requests "$REQUESTS" --analysis-threads 1 > "$TMP_DIR/smoke.sharda"

diff -u "$GOLDEN" "$TMP_DIR/smoke.shard3" || {
  echo "FAIL: 3-shard store replies differ from the golden file" >&2
  exit 1
}
diff -u "$GOLDEN" "$TMP_DIR/smoke.shard7" || {
  echo "FAIL: 7-shard store replies differ from the golden file" >&2
  exit 1
}
diff -u "$GOLDEN" "$TMP_DIR/smoke.shardz" || {
  echo "FAIL: compressed-store replies differ from the golden file" >&2
  exit 1
}
diff -u "$GOLDEN" "$TMP_DIR/smoke.sharda" || {
  echo "FAIL: appended-store replies differ from the golden file" >&2
  exit 1
}
# Tool error paths: a server pointed at a broken store must print one
# typed error and exit nonzero -- never hang, crash, or serve garbage.
expect_error() {
  local label=$1; shift
  local err
  if err=$("$@" < /dev/null 2>&1 > /dev/null); then
    echo "FAIL: $label: expected a nonzero exit" >&2
    exit 1
  fi
  if ! printf '%s' "$err" | grep -Eq "error:|failed:"; then
    echo "FAIL: $label: no typed error on stderr (got: $err)" >&2
    exit 1
  fi
}

expect_error "missing store dir" \
    "$QUERY" --store "$TMP_DIR/smoke.no-such-store"
mkdir -p "$TMP_DIR/smoke.emptystore"
expect_error "empty store dir (no manifest)" \
    "$QUERY" --store "$TMP_DIR/smoke.emptystore"
rmdir "$TMP_DIR/smoke.emptystore"
cp -r "$TMP_DIR/smoke.store3" "$TMP_DIR/smoke.torn"
head -c 21 "$TMP_DIR/smoke.torn/MANIFEST.bin" > "$TMP_DIR/smoke.torn/m" \
    && mv "$TMP_DIR/smoke.torn/m" "$TMP_DIR/smoke.torn/MANIFEST.bin"
expect_error "truncated manifest" "$QUERY" --store "$TMP_DIR/smoke.torn"
rm -rf "$TMP_DIR/smoke.torn"
expect_error "append into a missing store" \
    "$CLI" run histogram --threads 4 --scale 0.2 --seed 0 \
    --shard-append "$TMP_DIR/smoke.no-such-store"

# Serving tier: the same golden replies must come back byte-identical
# over the framed UDS transport -- from a single-process server on the
# flat capture (both client input paths), and from a 2-worker router
# over the sharded store. Then the worker-crash contract: a worker that
# aborts on its first shard load yields one typed "unavailable" reply
# per affected request (never a hang or a short stream), and with
# --allow-degraded the router re-runs those requests on the surviving
# worker and still reproduces the golden file exactly.
SOCK="$TMP_DIR/smoke.sock"
wait_for_socket() {
  for _ in $(seq 1 200); do
    [ -S "$1" ] && return 0
    sleep 0.05
  done
  echo "FAIL: server socket $1 never appeared" >&2
  exit 1
}

"$QUERY" "$TMP_DIR/smoke.cpg" --serve "$SOCK" --analysis-threads 8 &
SERVE_PID=$!
wait_for_socket "$SOCK"
timeout 60 "$QUERY" --connect "$SOCK" --requests "$REQUESTS" \
    > "$TMP_DIR/smoke.netfile"
timeout 60 "$QUERY" --connect "$SOCK" < "$REQUESTS" > "$TMP_DIR/smoke.netpipe"
stop_server
diff -u "$GOLDEN" "$TMP_DIR/smoke.netfile" || {
  echo "FAIL: served replies (--requests client) differ from golden" >&2
  exit 1
}
diff -u "$GOLDEN" "$TMP_DIR/smoke.netpipe" || {
  echo "FAIL: served replies (stdin client) differ from golden" >&2
  exit 1
}

# The router runs with the trace sink on: replies must stay golden
# while kTrace frames stitch router and worker spans into one file.
INSPECTOR_TRACE="$TMP_DIR/smoke.trace.router" \
    "$QUERY" --store "$TMP_DIR/smoke.store3" --shard-budget 40000 \
    --serve "$SOCK" --workers 2 &
SERVE_PID=$!
wait_for_socket "$SOCK"
timeout 60 "$QUERY" --connect "$SOCK" --requests "$REQUESTS" \
    > "$TMP_DIR/smoke.netrouter"
# The in-band introspection rpc: each process answers "op":"metrics"
# from its own registry; the router's snapshot carries the net-layer
# frame and stream counters.
printf '{"id":1,"op":"metrics"}\n' | timeout 60 "$QUERY" --connect "$SOCK" \
    > "$TMP_DIR/smoke.netmetrics"
stop_server
diff -u "$GOLDEN" "$TMP_DIR/smoke.netrouter" || {
  echo "FAIL: routed replies (2 shard workers) differ from golden" >&2
  exit 1
}
grep -q '"status":"ok","metrics":{"counters":' "$TMP_DIR/smoke.netmetrics" || {
  echo "FAIL: metrics rpc returned no snapshot" >&2
  exit 1
}
for series in net_frames_received_total net_streams_total; do
  grep -qF "$series" "$TMP_DIR/smoke.netmetrics" || {
    echo "FAIL: router metrics rpc snapshot lacks $series" >&2
    exit 1
  }
done
grep -q '"name":"route"' "$TMP_DIR/smoke.trace.router" || {
  echo "FAIL: routed session produced no route spans in the trace sink" >&2
  exit 1
}

# Crash worker 0 on its first shard load (failpoint hit 1 is the
# manifest read, hit 2 the load). The client must still get exactly one
# reply per request and a clean exit.
"$QUERY" --store "$TMP_DIR/smoke.store3" --serve "$SOCK" --workers 2 \
    --worker-failpoints 0:shard.read_file:abort-after:1 &
SERVE_PID=$!
wait_for_socket "$SOCK"
timeout 60 "$QUERY" --connect "$SOCK" --requests "$REQUESTS" \
    > "$TMP_DIR/smoke.netkill"
stop_server
if [ "$(wc -l < "$TMP_DIR/smoke.netkill")" != "$(wc -l < "$REQUESTS")" ]; then
  echo "FAIL: dead worker dropped replies instead of erroring them" >&2
  exit 1
fi
if ! grep -q '"status":"unavailable"' "$TMP_DIR/smoke.netkill"; then
  echo "FAIL: dead worker produced no typed unavailable reply" >&2
  exit 1
fi

"$QUERY" --store "$TMP_DIR/smoke.store3" --serve "$SOCK" --workers 2 \
    --allow-degraded --worker-failpoints 0:shard.read_file:abort-after:1 &
SERVE_PID=$!
wait_for_socket "$SOCK"
timeout 60 "$QUERY" --connect "$SOCK" --requests "$REQUESTS" \
    > "$TMP_DIR/smoke.netdeg"
stop_server
diff -u "$GOLDEN" "$TMP_DIR/smoke.netdeg" || {
  echo "FAIL: degraded routing did not reproduce the golden replies" >&2
  exit 1
}

echo "query smoke OK: $(wc -l < "$GOLDEN") golden replies matched at 1 and 8 workers and on stdin, from 3-/7-shard, compressed, and appended stores under a 40000-byte budget, over --serve (single-process and 2-worker router), with tracing and metrics fully enabled, and degraded routing around a crashed worker; broken-store error paths exit nonzero"
