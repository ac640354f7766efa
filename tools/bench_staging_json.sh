#!/usr/bin/env sh
# Runs the zero-copy data-plane microbenchmarks in google-benchmark's
# JSON format and writes one machine-readable file (default
# BENCH_staging.json). Besides wall-time throughput, the per-benchmark
# counters record allocations/object, bytes copied/object, CRC
# recompute vs cache-hit rates, and — for the three replica→EC
# transition strategies (BM_TransitionPerObject / BM_TransitionBatched
# / BM_TransitionPipelined) — sim_drain_ms/sim_GBps encode throughput
# plus max_node_bytes_per_obj and max_node_cpu_us_per_obj, the per-node
# traffic/CPU hot-spot fields the ring pipeline exists to shrink, and
# crc_bytes_per_object, the CRC32C bytes a transition reads. So
# payload copy-count, CRC and traffic-placement regressions are visible
# PR over PR even when wall time stays flat. A "host" record gives the
# CPU count and the CMake build type of the measured binary.
#
# Usage: bench_staging_json.sh <micro_staging-binary> [out.json]
set -eu

MICRO_STAGING=${1:?usage: bench_staging_json.sh micro_staging [out.json]}
OUT=${2:-BENCH_staging.json}

NPROC=$(nproc 2>/dev/null || echo 1)
CACHE="$(dirname "$MICRO_STAGING")/../CMakeCache.txt"
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$CACHE" 2>/dev/null || true)
# CMakeLists.txt builds an unset build type as RelWithDebInfo.
BUILD_TYPE=${BUILD_TYPE:-RelWithDebInfo}

TMPDIR_JSON=$(mktemp -d)
trap 'rm -rf "$TMPDIR_JSON"' EXIT

"$MICRO_STAGING" --benchmark_format=json \
  --benchmark_out="$TMPDIR_JSON/staging.json" \
  --benchmark_out_format=json >/dev/null

{
  printf '{\n"host": {"nproc": %s, "build_type": "%s"},\n' \
    "$NPROC" "$BUILD_TYPE"
  printf '"micro_staging": '
  cat "$TMPDIR_JSON/staging.json"
  printf '}\n'
} > "$OUT"

echo "wrote $OUT"
