// DeltaBuffer: the streaming ingest side of a served dataset. Appended
// rows land here (the base table a dataset's ExactEngine scans is
// immutable while serving), are published row-at-a-time with a single
// release store, and are served *exactly*: every answer composes the
// sketch estimate over the base table with an exact correction over the
// delta, so streaming never spends error budget. A background refresh
// (serve/refresh.h) periodically folds the delta into retrained leaf
// models; the per-leaf fold watermarks live next to the sketch version
// in SketchStore so the swap of (sketch, watermarks) is atomic.
//
// Concurrency contract:
// - Writers (Append/AppendRows) serialize on an internal mutex.
// - Readers never block writers and never take the writer mutex for row
//   access: size() is one acquire load, and Snap() copies a few chunk
//   shared_ptrs under a short lock. Rows below the published size are
//   write-once and fully visible (release/acquire on the size), so a
//   snapshot reads chunk storage lock-free; chunks are shared_ptr owned,
//   so a Trim cannot pull storage out from under a reader.
//
// Layout: each chunk is column-major, the way Table stores its columns.
// Column c of a chunk is the run data[c * chunk_rows, (c + 1) *
// chunk_rows), open and sealed chunks alike, so every delta scan filters
// unit-stride columns with the same SelectInRange kernel the base walk
// runs (Boncz et al., "MonetDB/X100", CIDR 2005).
#ifndef NEUROSKETCH_SERVE_DELTA_BUFFER_H_
#define NEUROSKETCH_SERVE_DELTA_BUFFER_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "query/aggregate.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/query.h"

namespace neurosketch {
namespace serve {

/// \brief Counters for the delta metric series (nsketch_serve_delta_*).
struct DeltaBufferStats {
  size_t rows = 0;             ///< live (untrimmed) rows
  size_t bytes = 0;            ///< bytes of live chunk storage
  uint64_t appends = 0;        ///< writer calls accepted (Append OR AppendRows
                               ///< — one per call, regardless of batch size)
  uint64_t rows_appended = 0;  ///< rows accepted across all writer calls
  uint64_t trimmed_rows = 0;   ///< rows dropped by Trim (compaction)
};

/// \brief Zone map entry: the range of one column's values over the
/// rows of one chunk. `min`/`max` cover the non-NaN values; `nan` says
/// whether any value is NaN.
struct ColumnZone {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  bool nan = false;

  void Add(double v) {
    if (std::isnan(v)) {
      nan = true;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
  }
};

/// \brief Append-only, chunked row buffer for one streaming dataset.
class DeltaBuffer {
  struct Chunk {
    // num_columns_ columns of chunk_rows_ slots each, column-major;
    // every slot is written once.
    std::vector<double> data;
    // Per-column zone map, written once under mu_ when the chunk fills
    // (seals) and never changed after; empty while the chunk is open.
    std::vector<ColumnZone> zone;
  };

 public:
  /// \brief `num_columns` must match the dataset's base table; chunks
  /// preallocate `chunk_rows` rows of flat storage each.
  explicit DeltaBuffer(size_t num_columns, size_t chunk_rows = 1024);

  size_t num_columns() const { return num_columns_; }

  /// \brief Append one row (must have num_columns values). Returns the
  /// new total logical row count. Thread-safe; serialized with other
  /// writers, invisible to readers until the size is published.
  size_t Append(const std::vector<double>& row);
  /// \brief Append a batch under one writer lock acquisition.
  size_t AppendRows(const std::vector<std::vector<double>>& rows);

  /// \brief Published logical row count (monotone; includes trimmed
  /// rows — logical indices are stable across Trim). One acquire load.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// \brief Logical index of the first row still held (rows below it
  /// were trimmed).
  size_t trimmed() const;

  DeltaBufferStats Stats() const;

  /// \brief A consistent read view: row data for logical rows
  /// [begin, end) is reachable and immutable. Cheap to copy (chunk
  /// shared_ptrs); keeps trimmed-away chunks alive while in scope.
  class Snapshot {
   public:
    Snapshot() = default;

    size_t begin() const { return begin_; }
    size_t end() const { return end_; }
    bool empty() const { return begin_ >= end_; }
    size_t num_columns() const { return num_columns_; }

    /// \brief Visit logical rows [from, to) in order; `fn(row)` gets a
    /// pointer to num_columns() doubles, the row gathered out of its
    /// chunk's columns into a buffer that the next row overwrites. The
    /// range is clamped to [begin, end).
    template <typename Fn>
    void ForEachRow(size_t from, size_t to, Fn&& fn) const {
      std::vector<double> row(num_columns_);
      ForEachRun(from, to, [&](size_t, const double* run, size_t len) {
        for (size_t j = 0; j < len; ++j) {
          for (size_t c = 0; c < num_columns_; ++c) {
            row[c] = run[c * chunk_rows_ + j];
          }
          fn(row.data());
        }
        return true;
      });
    }

    /// \brief The delta walk of every exact delta scan: feeds the rows of
    /// [from, end()) that match queries[i] to accs[i], i < n, in append
    /// order, one BatchScan pass over the rows per BatchScan::kMaxQueries
    /// queries (the shared walk ExactEngine::AccumulateBatchOver runs
    /// over a table). A compiled query does not filter a run whose chunk
    /// its zone map rules out (Disjoint). With `until_match`, a query
    /// stops filtering after the first run that holds a match of it, and
    /// a pass ends once every query of it has one: `accs[i].count() > 0`
    /// then says whether any row matches, not how many (the accumulators
    /// must start empty). Returns the rows filtered, summed over queries.
    size_t Accumulate(size_t from, const QueryFunctionSpec& spec,
                      const QueryInstance* const* queries, size_t n,
                      AggregateAccumulator* accs,
                      bool until_match = false) const;

   private:
    friend class DeltaBuffer;

    /// Rows per ForEachRun run at most: one BatchScan block.
    static constexpr size_t kRun = BatchScan::kBlock;

    /// \brief Calls `fn(chunk, run, len)` for logical rows [from, to),
    /// clamped to [begin, end), in append order, one run of at most kRun
    /// rows of one chunk at a time; `chunk` identifies the run's chunk
    /// for Disjoint. The run is column-major: column c of the run's row j
    /// is `run[c * chunk_rows_ + j]`. `fn` returns false to stop the walk.
    template <typename Fn>
    void ForEachRun(size_t from, size_t to, Fn&& fn) const {
      if (from < begin_) from = begin_;
      if (to > end_) to = end_;
      if (from >= to) return;
      size_t ci = (from - chunk_base_) / chunk_rows_;
      size_t off = (from - chunk_base_) % chunk_rows_;
      for (size_t left = to - from; left > 0; ++ci, off = 0) {
        const size_t len = std::min(left, chunk_rows_ - off);
        left -= len;
        const double* cells = chunks_[ci]->data.data() + off;
        for (size_t done = 0; done < len;) {
          const size_t run = std::min(kRun, len - done);
          if (!fn(ci, cells + done, run)) return;
          done += run;
        }
      }
    }

    /// \brief Zone-map skip: true when no row of chunk `chunk` can match
    /// `range`, because on some active attribute the chunk holds no NaN
    /// and `max < lo || min >= hi` over its values, so every row fails
    /// that attribute's test. A NaN cell matches any range (see
    /// CompiledAxisRange), so a column with a NaN never rules its chunk
    /// out; a NaN bound makes both comparisons false, so it never rules
    /// one out either.
    bool Disjoint(size_t chunk, const CompiledAxisRange& range) const;

    std::vector<std::shared_ptr<const Chunk>> chunks_;
    // The chunk still being filled at Snap time (SIZE_MAX if none) and a
    // copy of its zone map, which covers at least the snapshot's rows.
    size_t open_chunk_ = static_cast<size_t>(-1);
    std::vector<ColumnZone> open_zone_;
    size_t chunk_base_ = 0;  // logical row index of chunks_[0]'s first slot
    size_t chunk_rows_ = 1;
    size_t num_columns_ = 0;
    size_t begin_ = 0;
    size_t end_ = 0;
  };

  /// \brief Take a read view covering [trimmed(), size()).
  Snapshot Snap() const;

  /// \brief Compaction: `upto` is a logical watermark — every row below
  /// logical index `upto` is no longer needed from the delta. Drops whole
  /// chunks that lie entirely below it (logical indices stay stable;
  /// trimmed() advances by whole chunks, so it may land short of `upto`).
  /// ONLY safe once the rows below `upto` are reflected in the dataset's
  /// registered base table: serving reads the delta from
  /// max(snapshot begin, base fold watermark, leaf watermark), so
  /// trimming rows the base does not hold silently drops them from
  /// answers. SketchStore::Compact is the production caller — it folds
  /// rows [folded, safe) into the StreamingTable, swaps the new version
  /// in, then trims at the safe fold watermark (see docs/SERVING.md,
  /// "Base-table compaction"). In-flight Snapshots own their chunks and
  /// stay valid across the trim. Returns rows dropped.
  size_t Trim(size_t upto);

 private:
  const size_t num_columns_;
  const size_t chunk_rows_;
  std::atomic<size_t> size_{0};

  /// Writes row `n` (logical index) into its slot, creating its chunk on
  /// demand, and keeps the zone maps; seals the chunk when the row fills
  /// it. Caller holds mu_.
  void WriteRowLocked(size_t n, const std::vector<double>& row);

  mutable std::mutex mu_;  // writers + chunk-list structure
  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::vector<ColumnZone> open_zone_;  // zone map of chunks_.back() if open
  size_t chunk_base_ = 0;  // logical index of chunks_[0]'s first slot
  size_t trimmed_ = 0;
  uint64_t appends_ = 0;
  uint64_t rows_appended_ = 0;
};

/// \brief The exact answers of queries[idx[j]] over base + delta, written
/// to out[idx[j]]: one accumulation per query, fed the pinned base table
/// first (ExactEngine::AccumulateBatchOver), then every delta row the
/// base does not already hold, in append order (Snapshot::Accumulate) —
/// bit-identical to a from-scratch scan of the appended table for every
/// aggregate (including the SUM/AVG row-order sum, Welford STD and
/// MEDIAN's order-sensitive buffer). The delta walk starts at the pinned
/// version's fold watermark: rows below it were compacted into the base
/// and counting them from the delta too would double them. The caller
/// takes the snapshot BEFORE pinning, so snap.begin() <= base.folded
/// always holds and the pair covers the logical history exactly once.
void ExactWithDelta(const ExactEngine::PinnedBase& base,
                    const QueryFunctionSpec& spec,
                    const std::vector<QueryInstance>& queries,
                    const std::vector<uint32_t>& idx,
                    const DeltaBuffer::Snapshot& snap, double* out);

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_DELTA_BUFFER_H_
