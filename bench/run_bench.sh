#!/usr/bin/env bash
# Builds the standalone benchmark drivers in Release mode and writes the
# committed baseline reports at the repository root:
#   E14 concurrent mediator    -> BENCH_pr6.json
#   E17 sharded topology       -> BENCH_pr9.json
#   E18 overload protection    -> BENCH_pr10.json
# BENCH_pr4.json (E13 incremental index), BENCH_pr7.json (E15 columnar
# execution) and BENCH_pr8.json (E16 storage integrity) stay committed as
# historical records of retired benchmarks.
#
#   bench/run_bench.sh [e14-out [e17-out [e18-out]]]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
e14_out="${1:-$repo_root/BENCH_pr6.json}"
e17_out="${2:-$repo_root/BENCH_pr9.json}"
e18_out="${3:-$repo_root/BENCH_pr10.json}"
build_dir="$repo_root/build-bench"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" --target bench_e14_concurrent_mediator \
  bench_e17_sharded_topology bench_e18_overload -j >/dev/null

"$build_dir/bench/bench_e14_concurrent_mediator" --out="$e14_out"
echo "wrote $e14_out"
"$build_dir/bench/bench_e17_sharded_topology" --out="$e17_out"
echo "wrote $e17_out"
"$build_dir/bench/bench_e18_overload" --out="$e18_out"
echo "wrote $e18_out"
