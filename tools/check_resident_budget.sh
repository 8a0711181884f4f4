#!/usr/bin/env bash
# Gate on the paged-catalog arm of bench_serving_throughput: the
# "paged_catalog" section of BENCH_serving.json serves a catalog of cold
# sketches at 25% / 50% / 100% resident-byte budgets and records, per
# budget row, whether every served answer was bit-identical to the
# fully-resident reference (answers_match) and the pool's peak residency.
# This script fails if any row mismatched, if any row's peak exceeded its
# budget, if the catalog is smaller than MIN_SKETCHES (default 256), or
# if fewer than 3 budget rows ran.
#
# Usage: tools/check_resident_budget.sh [path/to/BENCH_serving.json]
set -euo pipefail
source "$(dirname "$0")/gate_lib.sh"

json="${1:-BENCH_serving.json}"
min_sketches="${MIN_SKETCHES:-256}"

if [[ ! -f "$json" ]]; then
  echo "error: $json not found (run bench_serving_throughput first)" >&2
  exit 1
fi

sketches=$(field sketches "$(< "$json")" paged_catalog)
if [[ "$sketches" -lt "$min_sketches" ]]; then
  echo "error: paged catalog holds ${sketches} sketches" \
    "(need >= ${min_sketches})" >&2
  exit 1
fi

baseline=$(field baseline_answers_match "$(< "$json")" paged_catalog)
if [[ "$baseline" != "true" ]]; then
  echo "error: fully-resident baseline answers mismatched" >&2
  exit 1
fi

# One object per budget row; each must hold both invariants.
rows=$(grep -o '{"budget_fraction"[^}]*}' "$json" || true)
if [[ -z "$rows" ]]; then
  echo "error: no paged_catalog budget rows in $json" >&2
  exit 1
fi

nrows=0
while IFS= read -r row; do
  nrows=$((nrows + 1))
  where="paged_catalog row $nrows"
  frac=$(field budget_fraction "$row" "$where")
  budget=$(field budget_bytes "$row" "$where")
  peak=$(field peak_resident_bytes "$row" "$where")
  match=$(field answers_match "$row" "$where")
  echo "budget ${frac}: peak ${peak} of ${budget} bytes," \
    "answers_match ${match}"
  if [[ "$match" != "true" ]]; then
    echo "error: answers diverged from the fully-resident reference at" \
      "budget fraction ${frac}" >&2
    exit 1
  fi
  ok=$(awk -v p="$peak" -v b="$budget" 'BEGIN { print (p <= b) ? 1 : 0 }')
  if [[ "$ok" != "1" ]]; then
    echo "error: peak residency ${peak} bytes exceeds the ${budget}-byte" \
      "budget at fraction ${frac}" >&2
    exit 1
  fi
done <<< "$rows"

if [[ "$nrows" -lt 3 ]]; then
  echo "error: only ${nrows} budget row(s) ran (need >= 3)" >&2
  exit 1
fi
echo "OK (${sketches} sketches, ${nrows} budget rows)"
