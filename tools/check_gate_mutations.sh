#!/usr/bin/env bash
# Checks that the serving gates can fail at all: feeds each
# tools/check_*.sh gate mutated copies of a BENCH_serving.json that passes
# it, and requires every mutant to be rejected with a non-zero exit and an
# "error:" line naming the fault. Three kinds of mutation: an
# answers_match flipped to false, overhead_pct set to 5.0, and a field the
# gate reads deleted.
#
# Usage: tools/check_gate_mutations.sh [path/to/BENCH_serving.json]
set -euo pipefail

json="${1:-BENCH_serving.json}"
tools="$(dirname "$0")"

if [[ ! -f "$json" ]]; then
  echo "error: $json not found (run bench_serving_throughput first)" >&2
  exit 1
fi

mutant=$(mktemp)
trap 'rm -f "$mutant"' EXIT
failures=0

# expect_reject GATE WANT SED_SCRIPT: GATE must exit non-zero on the
# snapshot edited by SED_SCRIPT and print an "error:" line matching WANT.
expect_reject() {
  local gate=$1 want=$2 mutation=$3 out status=0
  sed "$mutation" "$json" > "$mutant"
  if cmp -s "$json" "$mutant"; then
    echo "error: mutation '$mutation' changed nothing in $json" >&2
    failures=$((failures + 1))
    return
  fi
  out=$("$tools/$gate" "$mutant" 2>&1) || status=$?
  if [[ "$status" -ne 0 ]] && grep -q "^error: .*$want" <<< "$out"; then
    echo "ok: $gate rejects: $want"
  else
    echo "error: $gate (exit $status) printed no error line matching" \
      "'$want' for mutation '$mutation':" >&2
    echo "$out" >&2
    failures=$((failures + 1))
  fi
}

expect_reject check_serving_overhead.sh "overhead 5.0% exceeds" \
  's/"overhead_pct": [-0-9.]*/"overhead_pct": 5.0/'
expect_reject check_serving_overhead.sh "overhead_pct missing" \
  's/, "overhead_pct": [-0-9.]*//'
expect_reject check_resident_budget.sh "diverged" \
  '0,/"answers_match": true/s//"answers_match": false/'
expect_reject check_resident_budget.sh "peak_resident_bytes missing" \
  's/"peak_resident_bytes": [0-9]*, //'
expect_reject check_streaming_freshness.sh "diverged" \
  '/"mode": "refresh_on", "qps"/s/"answers_match": true/"answers_match": false/'
expect_reject check_streaming_freshness.sh "diverged" \
  '/"mode": "refresh_off", "compactions"/s/"answers_match": true/"answers_match": false/'
expect_reject check_streaming_freshness.sh \
  "post_refresh_normalized_mae missing" '/"post_refresh_normalized_mae"/d'

if [[ "$failures" -gt 0 ]]; then
  echo "error: ${failures} mutant(s) not rejected as required" >&2
  exit 1
fi
echo "OK (every gate rejected its mutants)"
