#!/usr/bin/env bash
# Performance ledger: build bench_perf from source and run it.
#
#   bench/perf/run.sh [--seed N] [--reps R] [--check]
#       all four workloads; writes build-perf/bench_perf.json
#   bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last stdout line is the JSON result
#
# Builds into build-perf/ at the repository root (RelWithDebInfo). Build
# output goes to stderr so stdout carries only the benchmark's report.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-perf"

# Configure unless a previous configure completed (it writes the generator's
# build file last).
if [[ ! -f "$build/Makefile" && ! -f "$build/build.ninja" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target bench_perf -j "$(nproc)" >&2

sha=unknown
dirty=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  sha="$(git -C "$root" rev-parse HEAD)"
  if [[ -z "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    dirty=0
  else
    dirty=1
  fi
fi

check=0
for arg in "$@"; do
  if [[ "$arg" == "--check" ]]; then check=1; fi
done

"$build/bench_perf" --out-dir "$build" --git-sha "$sha" --git-dirty "$dirty" "$@"

if [[ $check -eq 1 ]] && command -v python3 >/dev/null; then
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))' \
    "$build/bench_perf.json"
  echo "bench_perf.json is valid JSON"
fi
