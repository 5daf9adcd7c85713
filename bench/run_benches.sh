#!/usr/bin/env bash
# Runs the layer micro-benches (bench_layers) and records the
# google-benchmark timings as BENCH_layers.json
# (--benchmark_out_format=json), so the repo's perf trajectory is
# tracked PR over PR. The console timings are teed to BENCH_layers.log
# in the same directory. The paper's tables are not benches: the
# repro_* programs print them and ctest checks them against goldens.
#
# Usage: bench/run_benches.sh [--quick] [--allow-non-release] \
#                              [BUILD_DIR] [OUT_DIR]
#   --quick    shorten benchmark repetitions (CI smoke mode)
#   --allow-non-release
#              record numbers from a non-Release build anyway (smoke
#              runs where timings are not kept); committed baselines
#              must come from a Release build
#   BUILD_DIR  defaults to build
#   OUT_DIR    defaults to bench/results
set -euo pipefail

quick=0
allow_non_release=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --quick) quick=1 ;;
    --allow-non-release) allow_non_release=1 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
  shift
done
build_dir=${1:-build}
out_dir=${2:-bench/results}

# Baselines from unoptimized builds are worthless for trend tracking
# (and once burned us: committed JSONs carried debug-build timings).
# The guard reads the build tree's own cache, not the benchmark
# library's build flavor that the JSON "library_build_type" reports.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$build_dir/CMakeCache.txt" 2>/dev/null || true)
if [[ "$build_type" != "Release" ]]; then
  msg="$build_dir is a '${build_type:-unknown}' build, not Release"
  if [[ $allow_non_release -eq 1 ]]; then
    echo "warning: $msg; timings are not baseline-grade" >&2
  else
    echo "error: $msg; rebuild with -DCMAKE_BUILD_TYPE=Release or pass" \
         "--allow-non-release for a throwaway run" >&2
    exit 1
  fi
fi
mkdir -p "$out_dir"

extra=()
if [[ $quick -eq 1 ]]; then
  extra+=(--benchmark_min_time=0.01)
fi

"$build_dir/bench_layers" ${extra[@]+"${extra[@]}"} \
  --benchmark_out="$out_dir/BENCH_layers.json" \
  --benchmark_out_format=json \
  | tee "$out_dir/BENCH_layers.log"

# Surface the memory-flatness counters of the streaming bench: a
# peak_rss_mb that stays put while trials_per_cell grows 10x is the
# histogram fold doing its job (compare_benches.py --rss-gate turns
# this into a CI failure when a ceiling is exceeded).
python3 - "$out_dir/BENCH_layers.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
# The host's core count and the ISA tier the runtime dispatch picked
# (tiers are bit-identical; this is provenance for the timings, not
# for the statistics).
context = data.get("context", {})
print(f"  num_cpus: {context.get('num_cpus')}, "
      f"kernel tier: {context.get('crp_kernel_tier')}")
for bench in data.get("benchmarks", []):
    if "peak_rss_mb" in bench:
        print(f"  peak RSS: {bench['name']}: {bench['peak_rss_mb']:.1f} MB")
PYEOF
