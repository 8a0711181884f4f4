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
//   snapshot iterates raw row pointers lock-free; chunks are shared_ptr
//   owned, so a Trim cannot pull storage out from under a reader.
#ifndef NEUROSKETCH_SERVE_DELTA_BUFFER_H_
#define NEUROSKETCH_SERVE_DELTA_BUFFER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

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

/// \brief Append-only, chunked row buffer for one streaming dataset.
class DeltaBuffer {
  struct Chunk {
    std::vector<double> data;  // chunk_rows_ * num_columns_, write-once
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
    /// pointer to num_columns() doubles. The range is clamped to
    /// [begin, end). Walks chunk by chunk: one division to find the
    /// first row, then a pointer stride per row.
    template <typename Fn>
    void ForEachRow(size_t from, size_t to, Fn&& fn) const {
      if (from < begin_) from = begin_;
      if (to > end_) to = end_;
      if (from >= to) return;
      size_t ci = (from - chunk_base_) / chunk_rows_;
      size_t off = (from - chunk_base_) % chunk_rows_;
      for (size_t left = to - from; left > 0; ++ci, off = 0) {
        const size_t len = std::min(left, chunk_rows_ - off);
        const double* row = chunks_[ci]->data.data() + off * num_columns_;
        for (size_t j = 0; j < len; ++j, row += num_columns_) fn(row);
        left -= len;
      }
    }

   private:
    friend class DeltaBuffer;
    std::vector<std::shared_ptr<const Chunk>> chunks_;
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

  mutable std::mutex mu_;  // writers + chunk-list structure
  std::vector<std::shared_ptr<Chunk>> chunks_;
  size_t chunk_base_ = 0;  // logical index of chunks_[0]'s first slot
  size_t trimmed_ = 0;
  uint64_t appends_ = 0;
  uint64_t rows_appended_ = 0;
};

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_DELTA_BUFFER_H_
