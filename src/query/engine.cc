#include "query/engine.h"

#include <algorithm>

#include "query/aggregate.h"
#include "util/thread_pool.h"

namespace neurosketch {

namespace {
/// Rows per filter block: the selection vector lives on the stack.
constexpr size_t kScanBlock = 1024;

/// Calls `fn(begin, sel, k)` for each block of rows of `t`, in row order:
/// rows begin + sel[0] < ... < begin + sel[k-1] are the block's matches
/// for q. An axis-range query is compiled once and filtered over its
/// active columns only, branch-free, into the selection vector (the
/// vectorized-scan shape of MonetDB/X100): no per-row gather, no virtual
/// call, no allocation. Any other predicate fills the same selection
/// vector from its per-row Matches test, its only path.
template <typename Fn>
void ForEachMatchBlock(const Table& t, const QueryFunctionSpec& spec,
                       const QueryInstance& q, Fn&& fn) {
  const size_t dim = t.num_columns();
  const size_t n = t.num_rows();
  CompiledAxisRange range;
  const bool compiled = range.Compile(*spec.predicate, q, dim);
  std::vector<double> row(compiled ? 0 : dim);
  uint32_t sel[kScanBlock] = {};
  for (size_t begin = 0; begin < n; begin += kScanBlock) {
    const size_t len = std::min(kScanBlock, n - begin);
    size_t k = 0;
    if (!compiled) {
      for (size_t j = 0; j < len; ++j) {
        for (size_t c = 0; c < dim; ++c) row[c] = t.column(c)[begin + j];
        sel[k] = static_cast<uint32_t>(j);
        k += spec.predicate->Matches(q, row.data(), dim);
      }
    } else if (range.num_active() == 0) {
      for (size_t j = 0; j < len; ++j) sel[j] = static_cast<uint32_t>(j);
      k = len;
    } else {
      // The first active column fills the selection vector; each further
      // column narrows it. Every step writes its slot and advances by the
      // test result, so the loops have no data-dependent branch.
      const double* x = t.column(range.column(0)).data() + begin;
      const double lo = range.lo(0), hi = range.hi(0);
      for (size_t j = 0; j < len; ++j) {
        sel[k] = static_cast<uint32_t>(j);
        k += CompiledAxisRange::InRange(x[j], lo, hi);
      }
      for (size_t a = 1; a < range.num_active(); ++a) {
        const double* y = t.column(range.column(a)).data() + begin;
        const double lo_a = range.lo(a), hi_a = range.hi(a);
        size_t kept = 0;
        for (size_t j = 0; j < k; ++j) {
          const uint32_t r = sel[j];
          sel[kept] = r;
          kept += CompiledAxisRange::InRange(y[r], lo_a, hi_a);
        }
        k = kept;
      }
    }
    if (k > 0) fn(begin, sel, k);
  }
}
}  // namespace

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
  const double* measure = table.column(spec.measure_col).data();
  ForEachMatchBlock(table, spec, q,
                    [&](size_t begin, const uint32_t* sel, size_t k) {
                      acc->AddSelected(measure + begin, sel, k);
                    });
}

void ExactEngine::Accumulate(const QueryFunctionSpec& spec,
                             const QueryInstance& q,
                             AggregateAccumulator* acc) const {
  const PinnedBase pinned = Pin();
  AccumulateOver(*pinned.table, spec, q, acc);
}

size_t ExactEngine::CountMatches(const QueryFunctionSpec& spec,
                                 const QueryInstance& q) const {
  const PinnedBase pinned = Pin();
  size_t matches = 0;
  ForEachMatchBlock(*pinned.table, spec, q,
                    [&](size_t, const uint32_t*, size_t k) { matches += k; });
  return matches;
}

std::vector<double> ExactEngine::AnswerBatch(
    const QueryFunctionSpec& spec, const std::vector<QueryInstance>& queries,
    size_t num_threads) const {
  // One pin for the whole batch: a concurrent compaction swap must never
  // split a batch across two base versions.
  const PinnedBase pinned = Pin();
  const Table& t = *pinned.table;
  auto answer_one = [&](const QueryInstance& q) {
    AggregateAccumulator acc(spec.agg);
    AccumulateOver(t, spec, q, &acc);
    return acc.Finalize();
  };
  std::vector<double> out(queries.size());
  ThreadPool& pool = ThreadPool::Shared();
  const size_t parallelism =
      num_threads == 0 ? pool.num_threads() + 1 : num_threads;
  if (parallelism <= 1 || queries.size() < 2 * parallelism) {
    for (size_t i = 0; i < queries.size(); ++i) {
      out[i] = answer_one(queries[i]);
    }
    return out;
  }
  pool.ParallelFor(queries.size(), parallelism,
                   [&](size_t i) { out[i] = answer_one(queries[i]); });
  return out;
}

}  // namespace neurosketch
