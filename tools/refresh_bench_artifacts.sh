#!/usr/bin/env bash
# Regenerates the committed BENCH_*.json baselines at the repo root.
#
# Usage: tools/refresh_bench_artifacts.sh [--check] [build-dir]
#
# Runs every bench harness in artifact-only mode (S4TF_BENCH_ARTIFACT_ONLY=1
# skips the google-benchmark timing sweeps; the deterministic artifact
# workload still runs) and writes the artifacts into the repo root via
# S4TF_BENCH_OUT_DIR. The deterministic sections (config/counters/values/
# text) are thread-count and machine independent, so the gate in CI
# exact-diffs them; wall_ms/noisy sections are refreshed too but only
# warn on drift. Commit the resulting BENCH_*.json files together with the
# change that moved them. See EXPERIMENTS.md ("Bench artifacts").
#
# --check: regenerate into a temporary directory instead and run
# bench_compare against the committed baselines, leaving the repo root
# untouched — the local equivalent of CI's bench-artifacts job. Exit is
# non-zero on any deterministic diff.
#
# Every bench runs even when an earlier one exits non-zero, and --check
# still compares afterwards; the script then names each failed bench and
# exits non-zero.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
check_mode=0
if [[ "${1:-}" == "--check" ]]; then
  check_mode=1
  shift
fi
build_dir="${1:-$repo_root/build}"

benches=(
  bench_table1_tpu_scaling
  bench_table2_frameworks_tpu
  bench_table3_gpu_resnet56
  bench_table4_mobile_spline
  bench_fig4_lenet_trace
  bench_fig9_subscript_pullback
  bench_micro_kernels
  bench_micro_tape
  bench_ablation_fusion
  bench_ablation_trace_cache
  bench_ablation_passes
  bench_ablation_cow
  bench_autotune
  bench_serve
  bench_guard
)

out_dir="$repo_root"
if [[ "$check_mode" == 1 ]]; then
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
fi

for bench in "${benches[@]}"; do
  binary="$build_dir/bench/$bench"
  if [[ ! -x "$binary" ]]; then
    echo "missing bench binary: $binary (build the 'bench' targets first)" >&2
    exit 1
  fi
done

failed=()
for bench in "${benches[@]}"; do
  echo "== $bench"
  if ! S4TF_BENCH_ARTIFACT_ONLY=1 S4TF_BENCH_OUT_DIR="$out_dir" \
      "$build_dir/bench/$bench" > /dev/null; then
    echo "FAILED: $bench exited non-zero" >&2
    failed+=("$bench")
  fi
done

compare_failed=0
if [[ "$check_mode" == 1 ]]; then
  "$build_dir/bench/bench_compare" "$repo_root" "$out_dir" || compare_failed=1
fi

if (( ${#failed[@]} > 0 )); then
  echo "benches that exited non-zero: ${failed[*]}" >&2
fi
if (( ${#failed[@]} > 0 || compare_failed )); then
  exit 1
fi
if [[ "$check_mode" == 1 ]]; then
  echo "check passed: fresh artifacts match the committed baselines"
else
  echo "refreshed $(ls "$repo_root"/BENCH_*.json | wc -l) artifacts in $repo_root"
fi
