#!/usr/bin/env bash
# Run every reproduction/ablation/extension bench and collect the output.
#
#   scripts/run_all_benches.sh [--full] [--json] [--sweep-seeds N] [--jobs J] [output-file]
#
# --full runs the paper-scale (70 000 clients, 180 s) configurations.
# --json additionally collects one JSON result row per experiment run
#        (mean/P99/P99.9 response time, VLRT counts, wall-clock) into
#        BENCH_results.json — each bench appends rows via its --json flag.
# --sweep-seeds N runs the sweep-capable benches (Table I, the probe-policy
#        extension) N times per row with derived per-replica seeds; their
#        table rows and JSON rows then carry mean +- 95% CI columns
#        (mean_rt_ms_ci95, p99_ms_ci95, ...) instead of single-seed points.
# --jobs J runs the sweep replicas on J worker threads; the output bytes
#        are identical for every J.
#
# See also scripts/run_sanitized_tests.sh, which rebuilds the tree with
# -DNTIER_SANITIZE=address,undefined and runs the test suite (including the
# chaos matrix) under sanitizers.
set -euo pipefail

cd "$(dirname "$0")/.."
FLAG=""
SWEEP_FLAGS=""
JSON=0
OUT="bench_output.txt"
PREV=""
for arg in "$@"; do
  case "$PREV" in
    --sweep-seeds) SWEEP_FLAGS="$SWEEP_FLAGS --sweep-seeds $arg"; PREV=""; continue ;;
    --jobs) SWEEP_FLAGS="$SWEEP_FLAGS --jobs $arg"; PREV=""; continue ;;
  esac
  case "$arg" in
    --full) FLAG="--full" ;;
    --json) JSON=1 ;;
    --sweep-seeds|--jobs) PREV="$arg" ;;
    *) OUT="$arg" ;;
  esac
done
if [ -n "$PREV" ]; then
  echo "missing value for $PREV" >&2
  exit 1
fi

if [ ! -d build/bench ]; then
  echo "build first: cmake -B build -G Ninja && cmake --build build" >&2
  exit 1
fi

ROWS=""
if [ "$JSON" = 1 ]; then
  ROWS="$(mktemp)"
  trap 'rm -f "$ROWS"' EXIT
fi

: > "$OUT"
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "### $(basename "$b") $FLAG" | tee -a "$OUT"
  if [[ "$(basename "$b")" == bench_micro_kernel ]]; then
    "$b" --benchmark_min_time=0.2 2>&1 | tee -a "$OUT"
  elif [ "$JSON" = 1 ]; then
    "$b" $FLAG $SWEEP_FLAGS --json "$ROWS" 2>&1 | tee -a "$OUT"
  else
    "$b" $FLAG $SWEEP_FLAGS 2>&1 | tee -a "$OUT"
  fi
  echo | tee -a "$OUT"
done
echo "wrote $OUT"

if [ "$JSON" = 1 ]; then
  # Assemble the per-run rows (one JSON object per line) into one document.
  {
    printf '{"generated_by":"scripts/run_all_benches.sh","full":%s,"results":[\n' \
      "$([ -n "$FLAG" ] && echo true || echo false)"
    sed '$!s/$/,/' "$ROWS"
    printf ']}\n'
  } > BENCH_results.json
  echo "wrote BENCH_results.json ($(wc -l < "$ROWS") result rows)"
fi
