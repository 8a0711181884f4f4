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

#include "query/predicate.h"

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
    /// Rows per ForEachRun run at most.
    static constexpr size_t kRun = 1024;

    Snapshot() = default;

    size_t begin() const { return begin_; }
    size_t end() const { return end_; }
    bool empty() const { return begin_ >= end_; }
    size_t num_columns() const { return num_columns_; }
    /// Doubles between one column of a run and the next (ForEachRun).
    size_t chunk_rows() const { return chunk_rows_; }

    /// \brief Visit logical rows [from, to) in order; `fn(row)` gets a
    /// pointer to num_columns() doubles, the row gathered out of its
    /// chunk's columns into a buffer that the next row overwrites. The
    /// range is clamped to [begin, end).
    template <typename Fn>
    void ForEachRow(size_t from, size_t to, Fn&& fn) const {
      std::vector<double> row(num_columns_);
      ForEachRun(from, to, [&](size_t, size_t, const double* run,
                               size_t len) {
        for (size_t j = 0; j < len; ++j) {
          Gather(run + j, row.data());
          fn(row.data());
        }
        return true;
      });
    }

    /// \brief Copies the row whose column-0 cell is `cell` (a run
    /// pointer plus the row's offset in the run) to row[0, num_columns()).
    void Gather(const double* cell, double* row) const {
      for (size_t c = 0; c < num_columns_; ++c) row[c] = cell[c * chunk_rows_];
    }

    /// \brief Calls `fn(chunk, first, run, len)` for logical rows
    /// [from, to), clamped to [begin, end), in append order, one run of
    /// at most kRun rows of one chunk at a time. `first` is the logical
    /// index of the run's first row and `chunk` identifies its chunk for
    /// Disjoint. The run is column-major: column c of the run's row j is
    /// `run[c * chunk_rows() + j]`. `fn` returns false to stop the walk.
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
          if (!fn(ci, from, cells + done, run)) return;
          done += run;
          from += run;
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
    bool Disjoint(size_t chunk, const CompiledAxisRange& range) const {
      const std::vector<ColumnZone>& zone =
          chunk == open_chunk_ ? open_zone_ : chunks_[chunk]->zone;
      for (size_t k = 0; k < range.num_active(); ++k) {
        const ColumnZone& z = zone[range.column(k)];
        if (!z.nan && (z.max < range.lo(k) || z.min >= range.hi(k))) {
          return true;
        }
      }
      return false;
    }

    /// \brief Calls `fn(first, measure, sel, k)` for the rows in
    /// [from, end()) that match `range`, in append order, one run at a
    /// time: the i-th match of the run is logical row `first + sel[i]`,
    /// and its value in column `measure_col` is `measure[sel[i]]`. Chunks
    /// that Disjoint rules out are not read; the rest are filtered
    /// branch-free over unit-stride columns (CompiledAxisRange::Select).
    /// `fn` returns false to stop the walk. Returns the number of rows
    /// filtered.
    template <typename Fn>
    size_t ScanMatches(size_t from, const CompiledAxisRange& range,
                       size_t measure_col, Fn&& fn) const {
      size_t scanned = 0;
      uint32_t sel[kRun];
      ForEachRun(from, end_, [&](size_t chunk, size_t first,
                                 const double* run, size_t len) {
        if (Disjoint(chunk, range)) return true;
        scanned += len;
        const size_t k = range.Select(Columns(run), len, sel);
        return k == 0 || fn(first, run + measure_col * chunk_rows_,
                            static_cast<const uint32_t*>(sel), k);
      });
      return scanned;
    }

    /// \brief The `column_at` of a run for CompiledAxisRange::Select and
    /// BatchScan::Feed: column c of the run starts at the returned
    /// pointer.
    auto Columns(const double* run) const {
      return [run, pitch = chunk_rows_](size_t c) { return run + c * pitch; };
    }

   private:
    friend class DeltaBuffer;

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

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_DELTA_BUFFER_H_
