#!/usr/bin/env bash
# Gate on the streaming arm of bench_serving_throughput: the "streaming"
# section of BENCH_serving.json serves a drifting dataset under live
# appends twice — refresh off and refresh on — and records, per mode,
# whether every quiescent served answer was bit-identical to the
# delta-composition contract (answers_match), plus the drift-probe
# normalized MAE before and after the refresh controller ran. This
# script fails if either mode's answers mismatched, if the post-refresh
# MAE is not back within the drift-policy bound, if the refresh was a
# full rebuild (the controller exists to retrain ONLY flagged leaves),
# or if no swap happened at all (the arm is then vacuous: the injected
# drift never crossed the bound).
#
# It also gates the "compaction" section's sustained-append arm: both
# modes (explicit Compact calls, refresh-controller sweep) must have
# compacted at least once, trimmed rows out of the delta, kept the
# resident delta bounded by the policy threshold (delta_bounded — the
# buffer must not grow with the append history), and served every
# mid-run sampled answer bit-identical to a from-scratch scan
# (answers_match) across the base-table swaps.
#
# Usage: tools/check_streaming_freshness.sh [path/to/BENCH_serving.json]
set -euo pipefail
source "$(dirname "$0")/gate_lib.sh"

json="${1:-BENCH_serving.json}"

if [[ ! -f "$json" ]]; then
  echo "error: $json not found (run bench_serving_throughput first)" >&2
  exit 1
fi

# Slice the streaming section so field names shared with other arms
# (rows, answers_match) cannot cross-contaminate.
section=$(sed -n '/"streaming": {/,/^  }/p' "$json")
if [[ -z "$section" ]]; then
  echo "error: no streaming section in $json" >&2
  exit 1
fi

bound=$(field policy_max_normalized_mae "$section" streaming)
drifted=$(field drifted_normalized_mae "$section" streaming)
post=$(field post_refresh_normalized_mae "$section" streaming)
swaps=$(field refresh_swaps "$section" streaming)
retrained=$(field retrained_leaves "$section" streaming)
total=$(field total_leaves "$section" streaming)
rebuild=$(field full_rebuild "$section" streaming)
lag=$(field refresh_lag_ms "$section" streaming)

echo "drift bound ${bound}: stale ${drifted}, post-refresh ${post}," \
  "${swaps} swap(s), ${retrained}/${total} leaves retrained," \
  "lag ${lag} ms"

rows=$(echo "$section" | grep -o '{"mode"[^}]*}' || true)
nrows=0
while IFS= read -r row; do
  [[ -n "$row" ]] || continue
  nrows=$((nrows + 1))
  mode=$(field mode "$row" "streaming row $nrows")
  match=$(field answers_match "$row" "streaming row $nrows")
  echo "mode ${mode}: answers_match ${match}"
  if [[ "$match" != "true" ]]; then
    echo "error: served answers diverged from the delta-composition" \
      "contract in mode ${mode}" >&2
    exit 1
  fi
done <<< "$rows"
if [[ "$nrows" -lt 2 ]]; then
  echo "error: only ${nrows} streaming mode row(s) ran (need 2)" >&2
  exit 1
fi

if [[ "$swaps" -lt 1 ]]; then
  echo "error: refresh never swapped a new version in — the injected" \
    "drift did not exercise the controller" >&2
  exit 1
fi
if [[ "$rebuild" != "false" ]]; then
  echo "error: refresh retrained every leaf (${retrained} over ${swaps}" \
    "swap(s) of ${total} leaves) — expected a partial retrain" >&2
  exit 1
fi

# The stale sketch must actually have drifted out of bound (otherwise
# the post-refresh check proves nothing), and the refreshed one must be
# back inside it.
ok=$(awk -v d="$drifted" -v b="$bound" 'BEGIN { print (d > b) ? 1 : 0 }')
if [[ "$ok" != "1" ]]; then
  echo "error: stale-sketch MAE ${drifted} never crossed the bound" \
    "${bound}; the drift injection is broken" >&2
  exit 1
fi
ok=$(awk -v p="$post" -v b="$bound" 'BEGIN { print (p <= b) ? 1 : 0 }')
if [[ "$ok" != "1" ]]; then
  echo "error: post-refresh MAE ${post} still above the drift-policy" \
    "bound ${bound}" >&2
  exit 1
fi
echo "OK (stale ${drifted} -> post-refresh ${post} <= ${bound}," \
  "partial retrain ${retrained}/${total})"

# ---------------------------------------------------------------------------
# Sustained-append compaction leg.
csection=$(sed -n '/"compaction": {/,/^  }/p' "$json")
if [[ -z "$csection" ]]; then
  echo "error: no compaction section in $json" >&2
  exit 1
fi

threshold=$(field compact_min_rows "$csection" compaction)
appended=$(field append_rows "$csection" compaction)
echo "compaction: ${appended} rows appended against a" \
  "${threshold}-row fold threshold"

crows=$(echo "$csection" | grep -o '{"mode"[^}]*}' || true)
ncrows=0
while IFS= read -r row; do
  [[ -n "$row" ]] || continue
  ncrows=$((ncrows + 1))
  where="compaction row $ncrows"
  mode=$(field mode "$row" "$where")
  compactions=$(field compactions "$row" "$where")
  trimmed=$(field trimmed_rows "$row" "$where")
  peak=$(field peak_delta_rows "$row" "$where")
  final=$(field final_delta_rows "$row" "$where")
  bounded=$(field delta_bounded "$row" "$where")
  match=$(field answers_match "$row" "$where")
  echo "mode ${mode}: ${compactions} compaction(s), ${trimmed} rows" \
    "trimmed, delta peak ${peak} / final ${final} rows, bounded" \
    "${bounded}, answers_match ${match}"
  if [[ "$compactions" -lt 1 ]]; then
    echo "error: mode ${mode} never compacted — the delta grows without" \
      "bound under sustained appends" >&2
    exit 1
  fi
  if [[ "$trimmed" -lt 1 ]]; then
    echo "error: mode ${mode} folded rows but trimmed none — compaction" \
      "is not reclaiming delta storage" >&2
    exit 1
  fi
  if [[ "$bounded" != "true" ]]; then
    echo "error: mode ${mode} resident delta is not bounded by the fold" \
      "threshold (peak ${peak}, final ${final} vs threshold" \
      "${threshold})" >&2
    exit 1
  fi
  if [[ "$match" != "true" ]]; then
    echo "error: mode ${mode} served an answer that diverged from the" \
      "from-scratch scan across a base-table swap" >&2
    exit 1
  fi
done <<< "$crows"
if [[ "$ncrows" -lt 2 ]]; then
  echo "error: only ${ncrows} compaction mode row(s) ran (need 2)" >&2
  exit 1
fi
echo "OK (compaction bounded the delta in both modes with bit-identical" \
  "answers)"
