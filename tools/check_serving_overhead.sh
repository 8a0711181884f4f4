#!/usr/bin/env bash
# Gate on the stage-tracing overhead measured by bench_serving_throughput:
# the "tracing_overhead" section of BENCH_serving.json compares the
# single-query serve p50 with stage tracing on vs off in the same process
# (5 paired runs, submission chunks alternated between the arms; the run
# with the median overhead is reported). The observability layer's budget
# is < 2% on that path; negative values (noise in favor of tracing-on)
# pass.
#
# Also gates multi-core scaling sanity from the "multi_core" section:
# with >= 4 hardware threads, the 8-client / 8-store micro-batch QPS at
# 4 shards must be at least SCALING_MIN_X (default 2.0) times the
# 1-shard QPS. Below 4 hardware threads the scaling check is skipped —
# the shards just time-slice one core and the ratio is meaningless.
#
# Usage: tools/check_serving_overhead.sh [path/to/BENCH_serving.json]
set -euo pipefail
source "$(dirname "$0")/gate_lib.sh"

json="${1:-BENCH_serving.json}"
budget_pct="${OVERHEAD_BUDGET_PCT:-2.0}"
scaling_min_x="${SCALING_MIN_X:-2.0}"

if [[ ! -f "$json" ]]; then
  echo "error: $json not found (run bench_serving_throughput first)" >&2
  exit 1
fi

# Each half prints its reading and returns non-zero on a failure; both
# halves run before the exit, so a failing tracing half does not hide the
# scaling ratio.

# --- stage-tracing overhead --------------------------------------------
check_tracing() {
  local line overhead on_us off_us ok
  line=$(grep -o '"tracing_overhead": {[^}]*}' "$json" || true)
  if [[ -z "$line" ]]; then
    echo "error: no tracing_overhead section in $json" >&2
    return 1
  fi
  overhead=$(field overhead_pct "$line" tracing_overhead) || return 1
  on_us=$(field single_query_p50_on_us "$line" tracing_overhead) || return 1
  off_us=$(field single_query_p50_off_us "$line" tracing_overhead) ||
    return 1

  echo "tracing overhead: on ${on_us}us vs off ${off_us}us = ${overhead}%" \
    "(budget ${budget_pct}%)"

  ok=$(awk -v o="$overhead" -v b="$budget_pct" \
    'BEGIN { print (o < b) ? 1 : 0 }')
  if [[ "$ok" != "1" ]]; then
    echo "error: stage-tracing overhead ${overhead}% exceeds ${budget_pct}%" >&2
    return 1
  fi
}

# --- multi-core scaling sanity -----------------------------------------
check_scaling() {
  local hw qps1 qps4 speedup ok
  hw=$(field hardware_threads "$(< "$json")" "$json") || return 1

  if [[ "$hw" -lt 4 ]]; then
    echo "scaling check: skipped (${hw} hardware thread(s) < 4)"
    return 0
  fi
  # Pull per-shard QPS rows out of the multi_core section.
  qps1=$(grep -o '{"shards": 1, "qps": *[0-9.]*' "$json" | head -1 |
    grep -o '[0-9.]*$' || true)
  qps4=$(grep -o '{"shards": 4, "qps": *[0-9.]*' "$json" | head -1 |
    grep -o '[0-9.]*$' || true)
  if [[ -z "$qps1" || -z "$qps4" ]]; then
    echo "error: no multi_core shard rows in $json" >&2
    return 1
  fi
  speedup=$(awk -v a="$qps1" -v b="$qps4" \
    'BEGIN { printf "%.2f", (a > 0) ? b / a : 0 }')
  echo "scaling check: 4 shards ${qps4} qps vs 1 shard ${qps1} qps =" \
    "${speedup}x (min ${scaling_min_x}x on ${hw} hardware threads)"
  ok=$(awk -v s="$speedup" -v m="$scaling_min_x" \
    'BEGIN { print (s >= m) ? 1 : 0 }')
  if [[ "$ok" != "1" ]]; then
    echo "error: 4-shard micro-batch QPS only ${speedup}x the 1-shard" \
      "QPS (need >= ${scaling_min_x}x)" >&2
    return 1
  fi
}

status=0
check_tracing || status=1
check_scaling || status=1
if [[ "$status" -ne 0 ]]; then
  exit 1
fi
echo "OK"
