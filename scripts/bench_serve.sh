#!/usr/bin/env bash
# Serve-throughput benchmark: builds, then runs bench_serve_throughput —
# closed-loop clients driving the zcomm_serve engine in-process across a
# jobs x {cold,warm} plan-cache grid in both plan-only and full-run modes —
# and leaves the machine-readable result in BENCH_serve_throughput.json at
# the repo root.
#
#   scripts/bench_serve.sh                 # defaults: procs=64 grid
#   scripts/bench_serve.sh --procs=16      # smaller simulated machine
#   BUILD_DIR=out scripts/bench_serve.sh
#
# Absolute req/s is hardware-dependent and reported as-is (a single-core
# container shows no jobs scaling, and the harness says so). Exit status is
# the acceptance verdict: warm throughput >= 3x cold in plan-only mode at
# every jobs level, and zero failed requests. The telemetry overhead gate
# is a row of bench_observability_cost.
# Every run is also gated against and appended to the perf-history archive
# (${ARCHIVE:-perf_archive.jsonl}): the like-for-like verdict against this
# host class's history is printed but never changes the exit status.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
ARCHIVE="${ARCHIVE:-perf_archive.jsonl}"

# Stamp every envelope with the revision that produced it, so archived
# samples stay attributable; +dirty marks uncommitted tracked edits.
GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || true)"
if [ -n "$GIT_SHA" ] && ! git diff-index --quiet HEAD -- 2>/dev/null; then
  GIT_SHA="${GIT_SHA}+dirty"
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j --target bench_serve_throughput zcomm_bench

"$BUILD_DIR"/bench/bench_serve_throughput \
  --bench-json=BENCH_serve_throughput.json \
  ${GIT_SHA:+--git-sha="$GIT_SHA"} "$@"

echo "--- perf archive ($ARCHIVE) ---"
"$BUILD_DIR"/examples/zcomm_bench check --archive="$ARCHIVE" \
  BENCH_serve_throughput.json || true
"$BUILD_DIR"/examples/zcomm_bench record --archive="$ARCHIVE" \
  BENCH_serve_throughput.json
