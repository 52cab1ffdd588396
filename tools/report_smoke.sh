#!/usr/bin/env bash
# End-to-end smoke of the offline rebuild (§V-B): capture word_count
# with inspector_cli, persisting perf.data, the journal and the image,
# then rebuild the CPG from those three files with inspector_report,
# asserting that
#
#   - the rebuild exits 0 and reports "valid: yes",
#   - so does the rebuild of word_count at scale 60, whose thread
#     scripts each outgrow one 8 MiB code window,
#   - a truncated perf.data exits 1 with a "perf data:" message,
#   - a journal passed where the image belongs exits 1 with an
#     "image:" message,
#
# each under a timeout, so a decoder that spins fails the smoke.
#
#   report_smoke.sh <inspector_cli> <inspector_report> [tmp_dir]
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 <cli> <report> [tmp_dir]" >&2
  exit 2
fi

CLI=$1
REPORT=$2
if [ $# -ge 3 ]; then
  TMP_DIR=$3
  mkdir -p "$TMP_DIR"
  trap 'rm -f "$TMP_DIR"/report_smoke.*' EXIT
else
  TMP_DIR=$(mktemp -d)
  trap 'rm -rf "$TMP_DIR"' EXIT
fi

PERF="$TMP_DIR/report_smoke.perf"
JOURNAL="$TMP_DIR/report_smoke.jrn"
IMAGE="$TMP_DIR/report_smoke.img"
OUT="$TMP_DIR/report_smoke.out"
ERR="$TMP_DIR/report_smoke.err"

"$CLI" run word_count --threads 4 --scale 0.2 --seed 0 \
    --perf-data "$PERF" --journal "$JOURNAL" --image "$IMAGE" > /dev/null

# 1. The three files rebuild a valid CPG.
timeout 60 "$REPORT" "$PERF" "$JOURNAL" "$IMAGE" > "$OUT" || {
  echo "FAIL: inspector_report exited $? on a fresh capture" >&2
  exit 1
}
grep -q "valid: yes" "$OUT" || {
  echo "FAIL: rebuilt CPG is not valid:" >&2
  cat "$OUT" >&2
  exit 1
}

# 2. Scripts larger than one code window capture and rebuild.
BIG="$TMP_DIR/report_smoke.big"
"$CLI" run word_count --threads 4 --scale 60 --seed 0 \
    --perf-data "$BIG.perf" --journal "$BIG.jrn" --image "$BIG.img" > /dev/null
timeout 120 "$REPORT" "$BIG.perf" "$BIG.jrn" "$BIG.img" > "$OUT" || {
  echo "FAIL: inspector_report exited $? on word_count at scale 60" >&2
  exit 1
}
grep -q "valid: yes" "$OUT" || {
  echo "FAIL: rebuilt CPG of word_count at scale 60 is not valid:" >&2
  cat "$OUT" >&2
  exit 1
}

# expect_rejected <label> <kind prefix> <perf> <journal> <image>
expect_rejected() {
  local status=0
  timeout 10 "$REPORT" "$3" "$4" "$5" > /dev/null 2> "$ERR" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: $1: inspector_report exited $status, expected 1" >&2
    cat "$ERR" >&2
    exit 1
  fi
  grep -q "^error: $2: " "$ERR" || {
    echo "FAIL: $1: message does not name the file kind ($2):" >&2
    cat "$ERR" >&2
    exit 1
  }
}

# 3. A truncated perf.data.
CUT="$TMP_DIR/report_smoke.cut"
head -c "$(( $(wc -c < "$PERF") / 2 ))" "$PERF" > "$CUT"
expect_rejected "truncated perf.data" "perf data" "$CUT" "$JOURNAL" "$IMAGE"

# 4. The journal where the image belongs.
expect_rejected "journal as image" "image" "$PERF" "$JOURNAL" "$JOURNAL"

echo "report smoke: OK"
