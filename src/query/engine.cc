#include "query/engine.h"

#include <algorithm>

#include "query/aggregate.h"
#include "util/thread_pool.h"

namespace neurosketch {

BatchScan& BatchScan::ThreadLocal() {
  thread_local BatchScan scan;
  return scan;
}

BatchScan::BatchScan() : queries_(kMaxQueries), sel_(kMaxQueries * kBlock) {}

void BatchScan::Prepare(const QueryFunctionSpec& spec,
                        const QueryInstance* const* queries, size_t n,
                        size_t dim) {
  spec_ = &spec;
  n_ = n;
  dim_ = dim;
  bool per_row = false;
  for (size_t i = 0; i < n; ++i) {
    queries_[i].q = queries[i];
    queries_[i].compiled =
        queries_[i].range.Compile(*spec.predicate, *queries[i], dim);
    per_row |= !queries_[i].compiled;
  }
  if (per_row && row_.size() < dim) row_.resize(dim);
}

ExactEngine::ExactEngine(const Table* table) : table_(table) {}

ExactEngine::ExactEngine(const StreamingTable* streaming)
    : streaming_(streaming) {}

ExactEngine::PinnedBase ExactEngine::Pin() const {
  PinnedBase pinned;
  if (streaming_ != nullptr) {
    pinned.version = streaming_->Pin();
    pinned.table = &pinned.version->table;
    pinned.folded = pinned.version->folded;
  } else {
    pinned.table = table_;
  }
  return pinned;
}

size_t ExactEngine::num_columns() const {
  if (streaming_ != nullptr) return streaming_->num_columns();
  return table_->num_columns();
}

double ExactEngine::Answer(const QueryFunctionSpec& spec,
                           const QueryInstance& q) const {
  AggregateAccumulator acc(spec.agg);
  Accumulate(spec, q, &acc);
  return acc.Finalize();
}

void ExactEngine::AccumulateOver(const Table& table,
                                 const QueryFunctionSpec& spec,
                                 const QueryInstance& q,
                                 AggregateAccumulator* acc) {
  const QueryInstance* one = &q;
  AccumulateBatchOver(table, spec, &one, 1, acc);
}

void ExactEngine::AccumulateBatchOver(const Table& table,
                                      const QueryFunctionSpec& spec,
                                      const QueryInstance* const* queries,
                                      size_t n, AggregateAccumulator* accs) {
  const size_t rows = table.num_rows();
  const double* measure = table.column(spec.measure_col).data();
  BatchScan& scan = BatchScan::ThreadLocal();
  for (size_t first = 0; first < n; first += BatchScan::kMaxQueries) {
    const size_t m = std::min(BatchScan::kMaxQueries, n - first);
    scan.Prepare(spec, queries + first, m, table.num_columns());
    for (size_t begin = 0; begin < rows; begin += BatchScan::kBlock) {
      scan.Feed([&](size_t c) { return table.column(c).data() + begin; },
                std::min(BatchScan::kBlock, rows - begin), measure + begin,
                accs + first, [](size_t) { return false; });
    }
  }
}

void ExactEngine::Accumulate(const QueryFunctionSpec& spec,
                             const QueryInstance& q,
                             AggregateAccumulator* acc) const {
  const PinnedBase pinned = Pin();
  AccumulateOver(*pinned.table, spec, q, acc);
}

size_t ExactEngine::CountMatches(const QueryFunctionSpec& spec,
                                 const QueryInstance& q) const {
  AggregateAccumulator count(Aggregate::kCount);
  Accumulate(spec, q, &count);
  return count.count();
}

std::vector<double> ExactEngine::AnswerBatch(
    const QueryFunctionSpec& spec, const std::vector<QueryInstance>& queries,
    size_t num_threads) const {
  // One pin for the whole batch: a concurrent compaction swap must never
  // split a batch across two base versions.
  const PinnedBase pinned = Pin();
  const Table& t = *pinned.table;
  std::vector<double> out(queries.size());
  // Walks of BatchScan::kMaxQueries queries each, which also bounds the
  // MEDIAN value buffers alive at once.
  constexpr size_t kWalk = BatchScan::kMaxQueries;
  auto answer_range = [&](size_t begin, size_t end) {
    const QueryInstance* group[kWalk];
    std::vector<AggregateAccumulator> accs;
    for (size_t first = begin; first < end; first += kWalk) {
      const size_t m = std::min(kWalk, end - first);
      for (size_t i = 0; i < m; ++i) group[i] = &queries[first + i];
      accs.assign(m, AggregateAccumulator(spec.agg));
      AccumulateBatchOver(t, spec, group, m, accs.data());
      for (size_t i = 0; i < m; ++i) out[first + i] = accs[i].Finalize();
    }
  };
  ThreadPool& pool = ThreadPool::Shared();
  const size_t parallelism =
      num_threads == 0 ? pool.num_threads() + 1 : num_threads;
  if (parallelism <= 1 || queries.size() < 2 * parallelism) {
    answer_range(0, queries.size());
  } else {
    pool.ParallelForShards(
        queries.size(), parallelism,
        [&](size_t, size_t begin, size_t end) { answer_range(begin, end); });
  }
  return out;
}

}  // namespace neurosketch
