// Exact scan-based query engine. Provides ground truth f_D(q) for training
// set generation (paper Sec. 4.2: "a typical algorithm iterates over the
// points in the database ... checks whether it matches the RAQ predicate")
// and for the evaluation harness. Supports an optional parallel batch path
// mirroring the paper's "embarrassingly parallelizable across training
// queries" note.
#ifndef NEUROSKETCH_QUERY_ENGINE_H_
#define NEUROSKETCH_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/streaming_table.h"
#include "data/table.h"
#include "query/aggregate.h"
#include "query/predicate.h"
#include "query/query.h"

namespace neurosketch {

/// \brief The shared-scan kernel: up to kMaxQueries queries of one spec
/// walk the same rows together (the cooperative scan of Zukowski et al.,
/// "Cooperative Scans", VLDB 2007). Prepare compiles each query once;
/// Feed then reads one block of rows for all of them. Each query filters
/// the block into its own selection vector — branch-free for an
/// axis-range query (CompiledAxisRange::Select), a per-row Matches test
/// for any other predicate — and feeds the matches' measures to its own
/// accumulator in row order, SUM/AVG/STD lanes in lockstep
/// (AggregateAccumulator::AddSelectedLanes). So after a walk every
/// accumulator holds exactly what a scan of that query alone leaves.
///
/// A block is any `len <= kBlock` rows whose attribute c of row j sits
/// at `column_at(c)[j]`: a column block of a Table and a run of a
/// column-major streaming delta chunk both qualify. Each thread reuses
/// one instance (ThreadLocal), so a warm walk allocates nothing.
class BatchScan {
 public:
  static constexpr size_t kBlock = 1024;
  static constexpr size_t kMaxQueries = AggregateAccumulator::kMaxLanes;

  static BatchScan& ThreadLocal();

  /// \brief Prepares queries[0, n), n <= kMaxQueries, for rows of `dim`
  /// attributes. `spec` and the queries must outlive the Feed calls.
  void Prepare(const QueryFunctionSpec& spec,
               const QueryInstance* const* queries, size_t n, size_t dim);

  /// \brief Query i's compiled form, or nullptr when the query keeps the
  /// per-row Matches test.
  const CompiledAxisRange* compiled(size_t i) const {
    return queries_[i].compiled ? &queries_[i].range : nullptr;
  }

  /// \brief Feeds one block to every prepared query: query i's matches
  /// go to accs[i]; the measure of row j is `measure[j]`.
  /// `skip(i)` returning true says query i has no match in the block
  /// (the caller knows it from a zone map), and its filter does not run.
  template <typename ColumnAt, typename Skip>
  void Feed(ColumnAt column_at, size_t len, const double* measure,
            AggregateAccumulator* accs, Skip skip);

 private:
  BatchScan();

  struct Query {
    const QueryInstance* q = nullptr;
    bool compiled = false;
    CompiledAxisRange range;
  };
  const QueryFunctionSpec* spec_ = nullptr;
  size_t n_ = 0;
  size_t dim_ = 0;
  std::vector<Query> queries_;  // kMaxQueries
  std::vector<uint32_t> sel_;   // one kBlock selection vector per query
  std::vector<double> row_;     // a gathered row, for per-row predicates
};

template <typename ColumnAt, typename Skip>
void BatchScan::Feed(ColumnAt column_at, size_t len, const double* measure,
                     AggregateAccumulator* accs, Skip skip) {
  const uint32_t* sel[kMaxQueries];
  size_t counts[kMaxQueries];
  for (size_t i = 0; i < n_; ++i) {
    uint32_t* out = &sel_[i * kBlock];
    sel[i] = out;
    const Query& query = queries_[i];
    if (skip(i)) {
      counts[i] = 0;
    } else if (query.compiled) {
      counts[i] = query.range.Select(column_at, len, out);
    } else {
      size_t k = 0;
      for (size_t j = 0; j < len; ++j) {
        for (size_t c = 0; c < dim_; ++c) row_[c] = column_at(c)[j];
        out[k] = static_cast<uint32_t>(j);
        k += spec_->predicate->Matches(*query.q, row_.data(), dim_);
      }
      counts[i] = k;
    }
  }
  AggregateAccumulator::AddSelectedLanes(accs, n_, measure, sel, counts);
}

/// \brief Exact evaluator over a (normalized) table.
///
/// Two modes share one interface:
/// - Static: constructed over a `const Table*` — the table is immutable
///   for the engine's lifetime (the training / evaluation case).
/// - Streaming: constructed over a `StreamingTable*` — the base table can
///   be swapped by compaction while the engine serves. Every call pins
///   ONE version for its whole duration (a batch never mixes versions),
///   and callers that must compose a base scan with a delta scan pin
///   explicitly via Pin() so the (table, fold watermark) pair is read
///   once. See data/streaming_table.h for the snapshot-before-pin
///   ordering rule.
class ExactEngine {
 public:
  /// \brief Static mode: the engine keeps a pointer; `table` must outlive
  /// it and stay immutable.
  explicit ExactEngine(const Table* table);

  /// \brief Streaming mode: answers run over the table's current pinned
  /// version; `streaming` must outlive the engine.
  explicit ExactEngine(const StreamingTable* streaming);

  /// \brief One consistent read of the base: the table to scan plus the
  /// delta fold watermark baked into it. In static mode `version` is null,
  /// `table` is the constructor table and `folded` is 0. In streaming mode
  /// `version` keeps the table alive across concurrent compaction swaps —
  /// hold the pin for the full unit of work.
  struct PinnedBase {
    std::shared_ptr<const StreamingTable::Version> version;
    const Table* table = nullptr;
    uint64_t folded = 0;
  };
  PinnedBase Pin() const;

  /// \brief Exact answer to one query. NaN for undefined answers
  /// (AVG-like aggregate over an empty range).
  double Answer(const QueryFunctionSpec& spec, const QueryInstance& q) const;

  /// \brief Feed every matching row's measure into `acc` without
  /// finalizing, in table row order. Answer(spec, q) is exactly
  /// `{ AggregateAccumulator a(spec.agg); Accumulate(spec, q, &a);
  /// a.Finalize(); }` — exposed so a caller can continue the same
  /// accumulation over rows the table does not hold (the streaming delta
  /// buffer): base-then-delta accumulation is bit-identical to a single
  /// scan of the appended table for every aggregate, including the
  /// order-dependent ones (the SUM/AVG row-order sum, Welford STD,
  /// MEDIAN's buffer).
  void Accumulate(const QueryFunctionSpec& spec, const QueryInstance& q,
                  AggregateAccumulator* acc) const;

  /// \brief Accumulate over an explicit table — the building block the
  /// streaming serve path uses with a pinned version, so one batch's base
  /// scans all read the same swap generation.
  static void AccumulateOver(const Table& table, const QueryFunctionSpec& spec,
                             const QueryInstance& q,
                             AggregateAccumulator* acc);

  /// \brief AccumulateOver for `n` queries in one walk of the table
  /// (BatchScan): each 1024-row block is read once for all of them, and
  /// each accumulator `accs[i]` ends bit-identical to
  /// `AccumulateOver(table, spec, *queries[i], &accs[i])`. SUM/AVG/STD
  /// queries keep four dependency chains (sums, Welford updates) in
  /// flight. Allocation-free once the calling thread is warm (MEDIAN's
  /// value buffers aside).
  static void AccumulateBatchOver(const Table& table,
                                  const QueryFunctionSpec& spec,
                                  const QueryInstance* const* queries,
                                  size_t n, AggregateAccumulator* accs);

  /// \brief Number of rows matching the predicate.
  size_t CountMatches(const QueryFunctionSpec& spec,
                      const QueryInstance& q) const;

  /// \brief Exact answers for a batch; optionally multi-threaded on the
  /// shared process pool (util/thread_pool.h). `num_threads == 0` means
  /// hardware concurrency; 1 runs serially on the calling thread. The
  /// whole batch runs over one pinned version.
  std::vector<double> AnswerBatch(const QueryFunctionSpec& spec,
                                  const std::vector<QueryInstance>& queries,
                                  size_t num_threads = 1) const;

  /// \brief Column count of the underlying data; invariant across
  /// streaming swaps.
  size_t num_columns() const;

 private:
  const Table* table_ = nullptr;               // static mode
  const StreamingTable* streaming_ = nullptr;  // streaming mode
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_QUERY_ENGINE_H_
