#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark.
#
#   bench/e2e/run.sh [--smoke] [--trace]
#       All four workloads with seed 1: the end-to-end run, and with --trace
#       also the traced per-layer run. --smoke runs them at 1/20 size with a
#       2 s budget. Exits non-zero if any output was wrong (error_rate > 0).
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run, as BENCHMARK.json invokes it; the last stdout line is the
#       result object.
#
# The build (Release -O2; the library with its tests, benches and examples
# off) goes to .bench_build/e2e under the repository root; per-run JSON and
# span files go to .bench_build/e2e/out. Build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/e2e"
out="$build/out"

cmake -S "$root/bench/e2e" -B "$build" >&2
cmake --build "$build" -j 4 --target e2e_bench >&2
mkdir -p "$out"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$build/e2e_bench" --out "$out" "$@"
  fi
done

scale=1
seconds=20
traced=0
for arg in "$@"; do
  case "$arg" in
    --smoke) scale=0.05 seconds=2 ;;
    --trace) traced=1 ;;
    *) echo "usage: $0 [--smoke] [--trace] | --workload NAME --seed N" \
            "--seconds S --trace 0|1" >&2
       exit 2 ;;
  esac
done

status=0
for workload in eq_uniform eq_fluct_zipf band_lopsided join_groupby; do
  modes=(0)
  if [[ "$traced" == 1 ]]; then modes=(0 1); fi
  for mode in "${modes[@]}"; do
    # Metric lines only; the trailing result object is in $out as JSON.
    if ! "$build/e2e_bench" --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace "$mode" --scale "$scale" \
        --out "$out" | sed '$d'; then
      echo "FAILED: $workload (trace $mode)" >&2
      status=1
    fi
  done
done
exit "$status"
