#!/bin/bash
# Regenerate every paper figure/table + ablations. CRONETS_QUICK=1 shrinks
# the packet-level runs (and benches then write smoke_*.json instead of
# their full-run JSON, so a quick pass never clobbers archived full
# results). `--check` then runs the bench gate, tools/check_bench_regress.py:
# it runs its own smoke matrix in fresh directories under
# bench_results/gate/, so what it gates never depends on this pass.
# Exits non-zero if any bench failed (all benches still run, so one bad
# figure doesn't mask the rest of the report).
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p bench_results

run_check=0
for arg in "$@"; do
  [ "$arg" = "--check" ] && run_check=1
done

# Quick/smoke runs write smoke_<name>.json (see bench::BenchRun).
smoke_prefix=""
[ -n "${CRONETS_QUICK:-}" ] && [ "${CRONETS_QUICK}" != "0" ] && smoke_prefix="smoke_"

# Benches that record machine-readable results via bench::BenchRun and the
# JSON file each must leave behind. A bench that "passes" but writes a
# missing or unparseable JSON is a failure: CI archives these files, and a
# silent skip would read as a green run with no data.
declare -A json_of=(
  [bench_fig2_weblarge]=fig2_weblarge.json
  [bench_fig3_controlled]=fig3_controlled.json
  [bench_fig6_longitudinal]=fig6_longitudinal.json
  [bench_service_scale]=bench_service_scale.json
  [bench_cost_model]=bench_cost_model.json
  [bench_cost_pareto]=bench_cost_pareto.json
  [bench_chaos]=bench_chaos.json
  [bench_micro]=bench_micro.json
  [bench_multihop_routing]=bench_multihop_routing.json
  [bench_ablation_multihop]=bench_ablation_multihop.json
)

failed=()
check_json() {
  local name=$1
  local json_name=${json_of[$name]:-}
  [ -z "$json_name" ] && return 0
  local json="bench_results/$smoke_prefix$json_name"
  if [ ! -f "$json" ]; then
    failed+=("$name")
    echo "FAILED: $name did not write $json" >&2
    return 0
  fi
  if ! python3 -m json.tool "$json" > /dev/null 2>&1; then
    failed+=("$name")
    echo "FAILED: $name wrote unparseable JSON at $json" >&2
    return 0
  fi
}

for b in build/bench/bench_*; do
  name=$(basename "$b")
  [ "$name" = bench_micro ] && continue
  echo "== $name =="
  # Remove any stale JSON so a previous run's file can't mask a silent skip.
  [ -n "${json_of[$name]:-}" ] && rm -f "bench_results/$smoke_prefix${json_of[$name]}"
  if ! "$b" > "bench_results/${name#bench_}.txt" 2>&1; then
    failed+=("$name")
    echo "FAILED: $name (see bench_results/${name#bench_}.txt)"
  else
    check_json "$name"
  fi
  tail -n 20 "bench_results/${name#bench_}.txt"
done

rm -f "bench_results/$smoke_prefix${json_of[bench_micro]}"
if ! build/bench/bench_micro --benchmark_min_time=0.2 | tee bench_results/micro.txt; then
  failed+=(bench_micro)
else
  check_json bench_micro
fi

if [ "${#failed[@]}" -gt 0 ]; then
  echo "FAILED benches: ${failed[*]}" >&2
  exit 1
fi
echo "all benches passed"

if [ "$run_check" = 1 ]; then
  echo "== bench gate (smoke matrix vs bench/baselines/) =="
  python3 tools/check_bench_regress.py
fi
