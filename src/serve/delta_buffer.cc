#include "serve/delta_buffer.h"

namespace neurosketch {
namespace serve {

DeltaBuffer::DeltaBuffer(size_t num_columns, size_t chunk_rows)
    : num_columns_(num_columns == 0 ? 1 : num_columns),
      chunk_rows_(chunk_rows == 0 ? 1 : chunk_rows) {}

void DeltaBuffer::WriteRowLocked(size_t n,
                                 const std::vector<double>& row) {
  const size_t slot = n - chunk_base_;
  if (slot / chunk_rows_ >= chunks_.size()) {
    auto chunk = std::make_shared<Chunk>();
    chunk->data.resize(chunk_rows_ * num_columns_);
    chunks_.push_back(std::move(chunk));
    open_zone_.assign(num_columns_, ColumnZone{});
  }
  Chunk& chunk = *chunks_[slot / chunk_rows_];
  // Column-major: the row's cell of column c is slot c * chunk_rows_ on.
  double* dst = chunk.data.data() + slot % chunk_rows_;
  for (size_t c = 0; c < num_columns_; ++c) {
    const double v = c < row.size() ? row[c] : 0.0;
    dst[c * chunk_rows_] = v;
    open_zone_[c].Add(v);
  }
  // The chunk's last slot: seal its zone map. Readers that saw the chunk
  // open keep their own copy and never read this field.
  if (slot % chunk_rows_ == chunk_rows_ - 1) chunk.zone = open_zone_;
}

size_t DeltaBuffer::Append(const std::vector<double>& row) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = size_.load(std::memory_order_relaxed);
  WriteRowLocked(n, row);
  ++appends_;
  ++rows_appended_;
  // Publish after the row data is fully written: a reader that observes
  // the new size (acquire) also observes the row's bytes.
  size_.store(n + 1, std::memory_order_release);
  return n + 1;
}

size_t DeltaBuffer::AppendRows(const std::vector<std::vector<double>>& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = size_.load(std::memory_order_relaxed);
  for (const auto& row : rows) WriteRowLocked(n++, row);
  // One call, one append — batch size lands in rows_appended. (Append and
  // AppendRows used to disagree here: per-row vs per-batch.)
  ++appends_;
  rows_appended_ += rows.size();
  size_.store(n, std::memory_order_release);
  return n;
}

size_t DeltaBuffer::trimmed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trimmed_;
}

DeltaBufferStats DeltaBuffer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DeltaBufferStats s;
  s.rows = size_.load(std::memory_order_relaxed) - trimmed_;
  s.bytes = chunks_.size() * chunk_rows_ * num_columns_ * sizeof(double);
  s.appends = appends_;
  s.rows_appended = rows_appended_;
  s.trimmed_rows = trimmed_;
  return s;
}

DeltaBuffer::Snapshot DeltaBuffer::Snap() const {
  // Read the published size FIRST (acquire): every row below it is fully
  // written, and the chunk list copied under the lock afterwards can only
  // be a superset of the chunks those rows live in.
  const size_t end = size_.load(std::memory_order_acquire);
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.chunks_.assign(chunks_.begin(), chunks_.end());
    snap.chunk_base_ = chunk_base_;
    snap.begin_ = trimmed_;
    // An open last chunk's zone map still changes with every append:
    // copy it here, under the writers' lock, where it covers every row
    // published so far and so every row of this snapshot.
    const size_t held = size_.load(std::memory_order_relaxed) - chunk_base_;
    if (held < chunks_.size() * chunk_rows_) {
      snap.open_chunk_ = chunks_.size() - 1;
      snap.open_zone_ = open_zone_;
    }
  }
  snap.chunk_rows_ = chunk_rows_;
  snap.num_columns_ = num_columns_;
  // A concurrent Trim between the size read and the lock can only raise
  // begin_; end stays valid because the snapshot owns its chunks.
  snap.end_ = end < snap.begin_ ? snap.begin_ : end;
  return snap;
}

bool DeltaBuffer::Snapshot::Disjoint(size_t chunk,
                                     const CompiledAxisRange& range) const {
  const std::vector<ColumnZone>& zone =
      chunk == open_chunk_ ? open_zone_ : chunks_[chunk]->zone;
  for (size_t k = 0; k < range.num_active(); ++k) {
    const ColumnZone& z = zone[range.column(k)];
    if (!z.nan && (z.max < range.lo(k) || z.min >= range.hi(k))) return true;
  }
  return false;
}

size_t DeltaBuffer::Snapshot::Accumulate(size_t from,
                                         const QueryFunctionSpec& spec,
                                         const QueryInstance* const* queries,
                                         size_t n, AggregateAccumulator* accs,
                                         bool until_match) const {
  if (std::max(from, begin_) >= end_) return 0;
  size_t filtered = 0;
  BatchScan& scan = BatchScan::ThreadLocal();
  for (size_t first = 0; first < n; first += BatchScan::kMaxQueries) {
    const size_t m = std::min(BatchScan::kMaxQueries, n - first);
    AggregateAccumulator* lanes = accs + first;
    scan.Prepare(spec, queries + first, m, num_columns_);
    ForEachRun(from, end_, [&](size_t chunk, const double* run, size_t len) {
      // Feed asks skip(i) once per query and run; the rest are filtered.
      scan.Feed([run, this](size_t c) { return run + c * chunk_rows_; }, len,
                run + spec.measure_col * chunk_rows_, lanes,
                [&](size_t i) {
                  const CompiledAxisRange* range = scan.compiled(i);
                  const bool skip =
                      (until_match && lanes[i].count() > 0) ||
                      (range != nullptr && Disjoint(chunk, *range));
                  if (!skip) filtered += len;
                  return skip;
                });
      if (!until_match) return true;
      for (size_t i = 0; i < m; ++i) {
        if (lanes[i].count() == 0) return true;
      }
      return false;
    });
  }
  return filtered;
}

void ExactWithDelta(const ExactEngine::PinnedBase& base,
                    const QueryFunctionSpec& spec,
                    const std::vector<QueryInstance>& queries,
                    const std::vector<uint32_t>& idx,
                    const DeltaBuffer::Snapshot& snap, double* out) {
  const size_t from = std::max<size_t>(snap.begin(), base.folded);
  // Groups of BatchScan::kMaxQueries queries, each finalized before the
  // next starts, which bounds the MEDIAN value buffers alive at once.
  const QueryInstance* group[BatchScan::kMaxQueries];
  std::vector<AggregateAccumulator> accs;
  for (size_t first = 0; first < idx.size();
       first += BatchScan::kMaxQueries) {
    const size_t m = std::min(BatchScan::kMaxQueries, idx.size() - first);
    for (size_t j = 0; j < m; ++j) group[j] = &queries[idx[first + j]];
    accs.assign(m, AggregateAccumulator(spec.agg));
    ExactEngine::AccumulateBatchOver(*base.table, spec, group, m,
                                     accs.data());
    snap.Accumulate(from, spec, group, m, accs.data());
    for (size_t j = 0; j < m; ++j) out[idx[first + j]] = accs[j].Finalize();
  }
}

size_t DeltaBuffer::Trim(size_t upto) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t published = size_.load(std::memory_order_relaxed);
  if (upto > published) upto = published;
  size_t dropped = 0;
  while (!chunks_.empty() && chunk_base_ + chunk_rows_ <= upto) {
    chunks_.erase(chunks_.begin());
    chunk_base_ += chunk_rows_;
    dropped += chunk_rows_;
  }
  if (chunk_base_ > trimmed_) {
    trimmed_ = chunk_base_;
  }
  return dropped;
}

}  // namespace serve
}  // namespace neurosketch
