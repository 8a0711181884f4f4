// Serve-side metrics: the aggregate counters (throughput, fallback rate,
// batch shape), per-pipeline-stage latency breakdowns, and per-store
// accounting a serving deployment exports. Counters are relaxed atomics
// updated on the dispatch path; ServeEngine::Snapshot() materializes a
// consistent-enough view without stalling serving (see the contract on
// ServeStats).
#ifndef NEUROSKETCH_SERVE_SERVE_STATS_H_
#define NEUROSKETCH_SERVE_SERVE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace neurosketch {
namespace serve {

/// \brief Log-bucketed latency histogram (4 buckets/octave over
/// [1us, ~16.7s], lock-free Add, interpolated percentiles good to the
/// sub-bucket range — see metrics::LogHistogram for the error bound).
using LatencyHistogram = metrics::LogHistogram;

/// \brief Interpolated percentiles of one latency histogram.
struct LatencyBreakdown {
  uint64_t count = 0;
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0, p999_us = 0.0;

  static LatencyBreakdown From(const LatencyHistogram& h) {
    LatencyBreakdown b;
    b.count = h.TotalCount();
    b.p50_us = h.PercentileUs(50);
    b.p95_us = h.PercentileUs(95);
    b.p99_us = h.PercentileUs(99);
    b.p999_us = h.PercentileUs(99.9);
    return b;
  }
};

/// \brief The answer counters every serving scope reports: engine-wide
/// (ServeStats), per store (StoreStatsSnapshot) and per dispatcher shard
/// (ShardStatsSnapshot). The engine counts each answer once, on its
/// store key; shard rows and engine totals are sums over keys. Adding a
/// counter takes one Counter value, one field here and one row in
/// kCounterTable.
struct ServeCounts {
  uint64_t queries = 0;          ///< answers delivered
  uint64_t sketch_answers = 0;   ///< answered by a sketch forward pass
  /// Subset of sketch_answers served while the sketch's active tier
  /// was f32.
  uint64_t f32_sketch_answers = 0;
  uint64_t fallback_answers = 0; ///< answered by the exact engine
  uint64_t failed_answers = 0;   ///< NaN with no fallback available
  /// Sketch answers composed with an exact correction over unfolded
  /// delta rows (COUNT/SUM/MIN/MAX — the answer stayed on the sketch
  /// path and still counts under sketch_answers).
  uint64_t delta_corrected_answers = 0;
  /// Answers recomputed exactly over base + delta because the aggregate
  /// does not decompose (AVG/STD/MEDIAN with matching unfolded delta
  /// rows); a subset of fallback_answers.
  uint64_t delta_exact_answers = 0;
  uint64_t batches = 0;          ///< micro-batches dispatched
  uint64_t budget_trips = 0;     ///< stores demoted by the error budget

  ServeCounts& operator+=(const ServeCounts& other);
};

/// \brief Index of each ServeCounts field in kCounterTable.
enum class Counter : size_t {
  kQueries,
  kSketch,
  kF32,
  kFallback,
  kFailed,
  kDeltaCorrected,
  kDeltaExact,
  kBatches,
  kBudgetTrips,
};
inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kBudgetTrips) + 1;

/// \brief One counter's field and its exported series: engine-wide as
/// `<prefix><name>_total`, plus `<prefix>store_<name>_total{store="…"}`
/// and `<prefix>shard_<name>_total{shard="i"}` when flagged.
struct CounterInfo {
  uint64_t ServeCounts::*field;
  const char* name;
  const char* help;
  bool per_store;
  bool per_shard;
};

/// \brief Indexed by Counter.
inline constexpr CounterInfo kCounterTable[] = {
    {&ServeCounts::queries, "queries", "Answers delivered", true, true},
    {&ServeCounts::sketch_answers, "sketch_answers",
     "Answered by a sketch forward pass", true, false},
    {&ServeCounts::f32_sketch_answers, "f32_sketch_answers",
     "Sketch answers from an f32 plan", false, false},
    {&ServeCounts::fallback_answers, "fallback_answers",
     "Answered by the exact engine", true, false},
    {&ServeCounts::failed_answers, "failed_answers",
     "NaN with no fallback available", true, false},
    {&ServeCounts::delta_corrected_answers, "delta_corrected_answers",
     "Sketch answers corrected with unfolded delta rows", false, false},
    {&ServeCounts::delta_exact_answers, "delta_exact_answers",
     "Non-decomposable answers recomputed over base+delta", false, false},
    {&ServeCounts::batches, "batches", "Micro-batches dispatched", false,
     true},
    {&ServeCounts::budget_trips, "budget_trips",
     "Stores demoted by the error budget", false, false},
};

static_assert(std::size(kCounterTable) == kNumCounters,
              "kCounterTable needs one row per Counter");

inline ServeCounts& ServeCounts::operator+=(const ServeCounts& other) {
  for (const CounterInfo& c : kCounterTable) this->*c.field += other.*c.field;
  return *this;
}

/// \brief Per-(dataset, query function) serving view: where the traffic
/// went and what its tail looks like, so hot/cold store skew is visible.
struct StoreStatsSnapshot : ServeCounts {
  std::string store;  ///< StoreLabel: "dataset/AGG(col N) WHERE family"
  bool demoted = false;          ///< error budget tripped
  double fallback_rate = 0.0;    ///< fallback_answers / queries
  LatencyBreakdown latency;      ///< submit->publish for this key only
};

/// \brief Per-dispatcher-shard serving view: each (dataset, query
/// function) key is pinned to exactly one shard, so shard rows expose
/// load imbalance (a hot shard) independently of store skew (a hot
/// store). The counters and latency are sums over the shard's keys and
/// follow the same relaxed scrape contract as the rest of ServeStats.
struct ShardStatsSnapshot : ServeCounts {
  size_t shard = 0;              ///< shard index, 0-based
  /// Submissions that found this shard's ring full and had to wait for
  /// backpressure (counted per Submit/SubmitMany call, not per query).
  uint64_t backpressure_waits = 0;
  size_t resident_keys = 0;      ///< store keys routed to this shard
  double mean_batch_size = 0.0;
  LatencyBreakdown latency;      ///< submit->publish for this shard only
};

/// \brief Point-in-time view of a ServeEngine's counters.
///
/// Consistency contract (the one place it is documented): every field is
/// read with a relaxed atomic load while dispatchers keep serving, so a
/// snapshot is at most ~one in-flight micro-batch stale and cross-field
/// invariants (queries == sketch + fallback + failed, histogram count ==
/// queries) may be off by the requests fulfilled mid-snapshot. Engine
/// totals and per-shard rows are summed from the per-store rows of the
/// same snapshot, so those sums always agree exactly.
///
/// Counters tick when an answer is computed, before it is held for group
/// publication, so they always include every answer a client has
/// observed; latency samples land at publication, so histogram counts may
/// trail `queries` by one held group. Quiesce clients first when exact
/// equalities are required.
///
/// ResetStats() zeroes counters, histograms and the elapsed clock as one
/// operation while holding every shard lock; answers in flight during the
/// reset may still land afterwards and count toward the new window.
struct ServeStats : ServeCounts {
  double elapsed_seconds = 0.0;  ///< since engine start (or last reset)
  double qps = 0.0;              ///< queries / elapsed_seconds
  double mean_batch_size = 0.0;
  double fallback_rate = 0.0;    ///< fallback_answers / queries
  /// Submit->publish percentiles: each sample ends when the client's
  /// future becomes ready, so time an answer is held for group
  /// publication counts (p999 carries the same sub-bucket interpolation
  /// error bound as the rest).
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0, p999_us = 0.0;

  /// True when the engine was tracing pipeline stages (ServeOptions::
  /// stage_tracing); the stage breakdowns below are all-zero otherwise.
  bool stage_tracing = false;
  /// Per-stage latency split of the serve pipeline. queue.count counts
  /// requests (each waits individually); the other three count
  /// micro-batches (the stage is shared by the whole batch).
  LatencyBreakdown stage_queue;      ///< enqueue -> picked into a batch
  LatencyBreakdown stage_assembly;   ///< batch collection -> inference
  /// Inference start -> every answer computed and held: the forward
  /// pass (or exact batch), delta composition, repairs, the NaN scan,
  /// error-budget accounting and counters.
  LatencyBreakdown stage_inference;
  /// Answers held -> their group published (futures ready): the hold
  /// plus the publish step. Boundaries reuse clock reads the dispatcher
  /// pays anyway, so stage tracing adds at most one clock read per batch.
  LatencyBreakdown stage_fulfill;

  /// One entry per (dataset, query function) key that has served
  /// traffic, sorted by store label.
  std::vector<StoreStatsSnapshot> per_store;

  /// One entry per dispatcher shard, indexed 0..num_shards-1. The
  /// engine-wide counters above are the sums of these rows.
  size_t num_shards = 0;
  std::vector<ShardStatsSnapshot> per_shard;
};

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_SERVE_STATS_H_
