// Tests for the exact scan engine (ground truth provider), including the
// compiled axis-range scan and the shared batch walk: bit-identity against
// a per-row Matches reference and against the per-query scan, allocation
// silence on the warm path, and a selectivity-independent filter cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "data/generators.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/workload.h"
#include "util/random.h"
#include "util/simd_dispatch.h"
#include "util/stats.h"

// Global allocation counter for the zero-allocation test: every operator
// new in the binary ticks it, so a scan that allocates cannot hide.
namespace {
std::atomic<size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t sz) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(sz == 0 ? 1 : sz);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(sz == 0 ? 1 : sz);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// Out of line, so GCC cannot inline a delete next to its matching new and
// misreport the malloc/free pair as mismatched.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace neurosketch {
namespace {

Table SmallTable() {
  Schema s;
  s.columns = {"x", "y", "m"};
  Table t(s);
  // x, y in [0,1]; m is the measure.
  EXPECT_TRUE(t.AppendRow({0.1, 0.1, 10}).ok());
  EXPECT_TRUE(t.AppendRow({0.2, 0.8, 20}).ok());
  EXPECT_TRUE(t.AppendRow({0.5, 0.5, 30}).ok());
  EXPECT_TRUE(t.AppendRow({0.9, 0.2, 40}).ok());
  EXPECT_TRUE(t.AppendRow({0.95, 0.95, 50}).ok());
  return t;
}

QueryFunctionSpec AxisSpec(Aggregate agg, size_t measure) {
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = agg;
  spec.measure_col = measure;
  return spec;
}

TEST(EngineTest, CountOnKnownTable) {
  Table t = SmallTable();
  ExactEngine engine(&t);
  // x in [0, 0.6); y and the measure column unconstrained.
  QueryInstance q =
      QueryInstance::AxisRange({0.0, 0.0, 0.0}, {0.6, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(engine.Answer(AxisSpec(Aggregate::kCount, 2), q), 3.0);
  EXPECT_EQ(engine.CountMatches(AxisSpec(Aggregate::kCount, 2), q), 3u);
}

TEST(EngineTest, SumAvgOnKnownTable) {
  Table t = SmallTable();
  ExactEngine engine(&t);
  QueryInstance q =
      QueryInstance::AxisRange({0.0, 0.0, 0.0}, {0.6, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(engine.Answer(AxisSpec(Aggregate::kSum, 2), q), 60.0);
  EXPECT_DOUBLE_EQ(engine.Answer(AxisSpec(Aggregate::kAvg, 2), q), 20.0);
}

TEST(EngineTest, MedianStdMinMax) {
  Table t = SmallTable();
  ExactEngine engine(&t);
  QueryInstance all =
      QueryInstance::AxisRange({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(engine.Answer(AxisSpec(Aggregate::kMedian, 2), all), 30.0);
  EXPECT_DOUBLE_EQ(engine.Answer(AxisSpec(Aggregate::kMin, 2), all), 10.0);
  EXPECT_DOUBLE_EQ(engine.Answer(AxisSpec(Aggregate::kMax, 2), all), 50.0);
  EXPECT_NEAR(engine.Answer(AxisSpec(Aggregate::kStd, 2), all),
              stats::Stddev({10, 20, 30, 40, 50}), 1e-9);
}

TEST(EngineTest, EmptyRangeSemantics) {
  Table t = SmallTable();
  ExactEngine engine(&t);
  QueryInstance q =
      QueryInstance::AxisRange({0.3, 0.3, 0.0}, {0.05, 0.05, 1.0});
  EXPECT_DOUBLE_EQ(engine.Answer(AxisSpec(Aggregate::kCount, 2), q), 0.0);
  EXPECT_DOUBLE_EQ(engine.Answer(AxisSpec(Aggregate::kSum, 2), q), 0.0);
  EXPECT_TRUE(std::isnan(engine.Answer(AxisSpec(Aggregate::kAvg, 2), q)));
}

TEST(EngineTest, MeasureCanBeActiveAttribute) {
  // Query restricting the measure column itself.
  Table t = MakeUniformTable(5000, 2, 60);
  ExactEngine engine(&t);
  QueryInstance q = QueryInstance::AxisRange({0.0, 0.25}, {1.0, 0.5});
  const double avg = engine.Answer(AxisSpec(Aggregate::kAvg, 1), q);
  EXPECT_NEAR(avg, 0.5, 0.02);  // mean of U(0.25, 0.75)
  const double count = engine.Answer(AxisSpec(Aggregate::kCount, 1), q);
  EXPECT_NEAR(count / 5000.0, 0.5, 0.03);
}

TEST(EngineTest, BatchMatchesSingle) {
  Table t = MakeUniformTable(2000, 3, 61);
  ExactEngine engine(&t);
  QueryFunctionSpec spec = AxisSpec(Aggregate::kAvg, 2);
  WorkloadConfig cfg;
  cfg.num_active = 2;
  cfg.seed = 62;
  WorkloadGenerator gen(3, cfg);
  auto queries = gen.GenerateMany(50);
  auto batch = engine.AnswerBatch(spec, queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const double single = engine.Answer(spec, queries[i]);
    if (std::isnan(single)) {
      EXPECT_TRUE(std::isnan(batch[i]));
    } else {
      EXPECT_DOUBLE_EQ(batch[i], single);
    }
  }
}

TEST(EngineTest, ParallelBatchMatchesSerial) {
  Table t = MakeUniformTable(3000, 3, 63);
  ExactEngine engine(&t);
  QueryFunctionSpec spec = AxisSpec(Aggregate::kSum, 1);
  WorkloadConfig cfg;
  cfg.seed = 64;
  WorkloadGenerator gen(3, cfg);
  auto queries = gen.GenerateMany(64);
  auto serial = engine.AnswerBatch(spec, queries, 1);
  auto parallel = engine.AnswerBatch(spec, queries, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]);
  }
}

TEST(EngineTest, UniformCountMatchesExpectation) {
  // On uniform data, COUNT(c, r) ~ n * prod(r) (Sec. 3.3.3's g-hat model).
  Table t = MakeUniformTable(50000, 2, 65);
  ExactEngine engine(&t);
  QueryInstance q = QueryInstance::AxisRange({0.2, 0.3}, {0.4, 0.5});
  const double count = engine.Answer(AxisSpec(Aggregate::kCount, 0), q);
  EXPECT_NEAR(count / 50000.0, 0.4 * 0.5, 0.01);
}

TEST(EngineTest, RotatedRectPredicateWorks) {
  Table t = MakeUniformTable(20000, 2, 66);
  ExactEngine engine(&t);
  QueryFunctionSpec spec;
  spec.predicate = RotatedRectPredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  // Area w*h = 0.3*0.2 = 0.06 regardless of rotation (fully inside).
  const double phi = M_PI / 6;
  const double px = 0.4, py = 0.3, w = 0.3, h = 0.2;
  const double qx = px + std::cos(phi) * w - std::sin(phi) * h;
  const double qy = py + std::sin(phi) * w + std::cos(phi) * h;
  QueryInstance q(std::vector<double>{px, py, qx, qy, phi});
  const double count = engine.Answer(spec, q);
  EXPECT_NEAR(count / 20000.0, 0.06, 0.01);
}

// ---------------------------------------------------------------------
// Compiled axis-range scan vs the per-row Matches reference.

constexpr Aggregate kAllAggregates[] = {
    Aggregate::kCount, Aggregate::kSum,    Aggregate::kAvg, Aggregate::kStd,
    Aggregate::kMedian, Aggregate::kMin,   Aggregate::kMax};

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// The reference the compiled scan must reproduce: gather each row and
/// ask the predicate, feeding matches in row order.
void ReferenceAccumulate(const Table& t, const QueryFunctionSpec& spec,
                         const QueryInstance& q, AggregateAccumulator* acc) {
  const size_t dim = t.num_columns();
  std::vector<double> row(dim);
  for (size_t i = 0; i < t.num_rows(); ++i) {
    for (size_t c = 0; c < dim; ++c) row[c] = t.at(i, c);
    if (spec.predicate->Matches(q, row.data(), dim)) {
      acc->Add(t.at(i, spec.measure_col));
    }
  }
}

/// Random query over `dim` attributes with `active` of them constrained;
/// the rest carry the inactive encoding (0, 1). Some active attributes
/// start at exactly 0 or carry a NaN bound to probe the inactive rule and
/// the NaN comparison semantics.
QueryInstance RandomAxisQuery(size_t dim, size_t active, Rng* rng) {
  std::vector<double> c(dim, 0.0), r(dim, 1.0);
  for (size_t a : rng->SampleWithoutReplacement(dim, active)) {
    const double u = rng->Uniform();
    if (u < 0.1) {
      c[a] = 0.0;  // active despite c == 0: r < 1
      r[a] = rng->Uniform(0.05, 0.95);
    } else if (u < 0.13) {
      c[a] = std::numeric_limits<double>::quiet_NaN();
      r[a] = 0.3;
    } else {
      c[a] = rng->Uniform(0.0, 0.9);
      r[a] = rng->Uniform(0.01, 1.0 - c[a]);
    }
  }
  return QueryInstance::AxisRange(c, r);
}

/// Random table whose cells include NaN, exact lower bounds c, exact
/// upper bounds c + r (as Matches computes them) and 1.0 under inactive
/// attributes.
Table RandomEdgeTable(size_t rows, size_t dim, const QueryInstance& q,
                      Rng* rng) {
  std::vector<std::vector<double>> cols(dim, std::vector<double>(rows));
  for (size_t col = 0; col < dim; ++col) {
    const double c = q[col], r = q[dim + col];
    const bool inactive = c == 0.0 && r >= 1.0;
    for (double& v : cols[col]) {
      const double u = rng->Uniform();
      if (u < 0.03) {
        v = std::numeric_limits<double>::quiet_NaN();
      } else if (u < 0.08) {
        v = inactive ? 1.0 : c;
      } else if (u < 0.13) {
        v = inactive ? 1.0 : c + r;
      } else {
        v = rng->Uniform();
      }
    }
  }
  Schema s;
  for (size_t col = 0; col < dim; ++col) {
    s.columns.push_back("a" + std::to_string(col));
  }
  Table t(s);
  EXPECT_TRUE(t.SetColumns(std::move(cols)).ok());
  return t;
}

TEST(EngineScanTest, CompiledScanMatchesPerRowReferenceBitForBit) {
  Rng rng(4242);
  size_t compared = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const size_t dim = 1 + static_cast<size_t>(rng.Int(0, 19));
    const size_t active = static_cast<size_t>(rng.Int(0, dim));
    // 0 rows (empty table), a partial block, and several full blocks.
    const size_t rows = trial % 12 == 0
                            ? 0
                            : static_cast<size_t>(rng.Int(1, 2600));
    const QueryInstance q = RandomAxisQuery(dim, active, &rng);
    const Table t = RandomEdgeTable(rows, dim, q, &rng);
    ExactEngine engine(&t);
    for (Aggregate agg : kAllAggregates) {
      const QueryFunctionSpec spec = AxisSpec(agg, rng.Index(dim));
      AggregateAccumulator got(agg), want(agg);
      ExactEngine::AccumulateOver(t, spec, q, &got);
      ReferenceAccumulate(t, spec, q, &want);
      ASSERT_EQ(got.count(), want.count())
          << "trial " << trial << " dim " << dim << " active " << active;
      ASSERT_EQ(Bits(got.Finalize()), Bits(want.Finalize()))
          << "trial " << trial << " agg " << AggregateName(agg);
      ASSERT_EQ(engine.CountMatches(spec, q), want.count())
          << "trial " << trial;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 240u * 7u);
}

TEST(EngineScanTest, QueriesBeyondCompiledCapacityKeepPerRowPath) {
  // More active attributes than CompiledAxisRange holds: the query does
  // not compile and the generic path answers it, still exactly.
  const size_t dim = CompiledAxisRange::kMaxActive + 6;
  Rng rng(77);
  const QueryInstance q = RandomAxisQuery(dim, dim, &rng);
  CompiledAxisRange range;
  EXPECT_FALSE(range.Compile(AxisRangePredicate(), q, dim));
  const Table t = RandomEdgeTable(500, dim, q, &rng);
  for (Aggregate agg : kAllAggregates) {
    const QueryFunctionSpec spec = AxisSpec(agg, 3);
    AggregateAccumulator got(agg), want(agg);
    ExactEngine::AccumulateOver(t, spec, q, &got);
    ReferenceAccumulate(t, spec, q, &want);
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(Bits(got.Finalize()), Bits(want.Finalize()));
  }
}

TEST(EngineScanTest, CompileKeepsOnlyActiveAttributes) {
  CompiledAxisRange range;
  const QueryInstance q =
      QueryInstance::AxisRange({0.0, 0.2, 0.0, 0.0}, {1.0, 0.3, 0.5, 1.5});
  ASSERT_TRUE(range.Compile(AxisRangePredicate(), q, 4));
  ASSERT_EQ(range.num_active(), 2u);
  EXPECT_EQ(range.column(0), 1u);
  EXPECT_EQ(range.lo(0), 0.2);
  EXPECT_EQ(range.hi(0), 0.2 + 0.3);
  EXPECT_EQ(range.column(1), 2u);
  EXPECT_EQ(range.hi(1), 0.5);
  // Non-axis predicates do not compile.
  EXPECT_FALSE(range.Compile(HalfSpacePredicate(), q, 4));
}

TEST(EngineScanTest, AxisScanIsZeroAllocationWhenWarm) {
  const Table t = MakeUniformTable(5000, 4, 91);
  ExactEngine engine(&t);
  WorkloadConfig cfg;
  cfg.num_active = 2;
  cfg.seed = 92;
  WorkloadGenerator gen(4, cfg);
  const auto queries = gen.GenerateMany(32);
  const QueryFunctionSpec spec = AxisSpec(Aggregate::kAvg, 3);
  AggregateAccumulator acc(Aggregate::kAvg);
  size_t sink = 0;
  for (const auto& q : queries) {  // warm-up
    ExactEngine::AccumulateOver(t, spec, q, &acc);
    sink += engine.CountMatches(spec, q);
  }

  const size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (const auto& q : queries) {
    ExactEngine::AccumulateOver(t, spec, q, &acc);
    sink += engine.CountMatches(spec, q);
  }
  const size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "the axis-range scan allocated";
  EXPECT_EQ(acc.count(), sink);
  EXPECT_GT(sink, 0u);
}

// ---------------------------------------------------------------------
// Shared batch walk (AccumulateBatchOver) vs the per-query scan.

/// The non-axis predicates a batch walk must also serve, with a random
/// query of each.
struct OtherPredicate {
  std::shared_ptr<const PredicateFunction> predicate;
  QueryInstance (*make)(Rng* rng);
};
const OtherPredicate kOtherPredicates[] = {
    {HalfSpacePredicate::Make(),
     [](Rng* rng) {
       return QueryInstance(
           std::vector<double>{rng->Uniform(-1.0, 1.0), rng->Uniform()});
     }},
    {CircularPredicate::Make(1),
     [](Rng* rng) {
       return QueryInstance(
           std::vector<double>{rng->Uniform(), rng->Uniform(0.05, 0.5)});
     }},
    {RotatedRectPredicate::Make(),
     [](Rng* rng) {
       return QueryInstance(std::vector<double>{
           rng->Uniform(0.0, 0.5), rng->Uniform(0.0, 0.5),
           rng->Uniform(0.5, 1.0), rng->Uniform(0.5, 1.0),
           rng->Uniform(0.0, 1.5)});
     }},
};

TEST(EngineBatchScanTest, BatchWalkMatchesPerQueryScanBitForBit) {
  // Table sizes around the 1024-row block edge, plus empty and tiny.
  const size_t kRows[] = {0, 1, 1023, 1024, 1025, 3000};
  Rng rng(5151);
  size_t compared = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const size_t rows = kRows[trial % 6] + (trial % 6 == 5 ? rng.Index(64) : 0);
    // Every 8th trial is wider than a compiled query holds, so queries
    // with every attribute active keep the per-row path while narrower
    // ones in the same batch compile; every 8th (offset 4) batch runs a
    // non-axis predicate, which never compiles.
    const bool wide = trial % 8 == 0;
    const bool other = trial % 8 == 4;
    const size_t dim = wide ? CompiledAxisRange::kMaxActive + 2
                            : 2 + static_cast<size_t>(rng.Int(0, 6));
    const size_t nq = 1 + static_cast<size_t>(rng.Int(0, 8));
    const OtherPredicate& op = kOtherPredicates[trial % 3];
    std::vector<QueryInstance> queries;
    for (size_t i = 0; i < nq; ++i) {
      if (other) {
        queries.push_back(op.make(&rng));
        continue;
      }
      // No active attribute, one, or many (all of them for wide tables
      // now and then); RandomAxisQuery plants NaN bounds.
      const size_t pick = rng.Index(4);
      const size_t active = pick == 0   ? 0
                            : pick == 1 ? 1
                            : wide && pick == 3
                                ? dim
                                : static_cast<size_t>(
                                      rng.Int(2, std::min<int64_t>(dim, 12)));
      queries.push_back(RandomAxisQuery(dim, active, &rng));
    }
    // NaN cells and bound-edge cells, planted from the first query.
    const Table t = RandomEdgeTable(
        rows, dim, other ? RandomAxisQuery(dim, dim, &rng) : queries[0], &rng);
    std::vector<const QueryInstance*> ptrs;
    for (const auto& q : queries) ptrs.push_back(&q);
    for (Aggregate agg : kAllAggregates) {
      QueryFunctionSpec spec = AxisSpec(agg, rng.Index(dim));
      if (other) spec.predicate = op.predicate;
      std::vector<AggregateAccumulator> got(nq, AggregateAccumulator(agg));
      ExactEngine::AccumulateBatchOver(t, spec, ptrs.data(), nq, got.data());
      for (size_t i = 0; i < nq; ++i) {
        AggregateAccumulator want(agg);
        ExactEngine::AccumulateOver(t, spec, queries[i], &want);
        ASSERT_EQ(got[i].count(), want.count())
            << "trial " << trial << " query " << i << " of " << nq;
        ASSERT_EQ(Bits(got[i].Finalize()), Bits(want.Finalize()))
            << "trial " << trial << " query " << i << " of " << nq << " agg "
            << AggregateName(agg);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 240u * 7u);
}

TEST(EngineBatchScanTest, BatchWalkContinuesExistingAccumulations) {
  // Accumulators that already hold rows (the serve path continues a base
  // walk over delta rows; a caller may walk two tables in turn): the
  // walk folds into the existing state exactly as AccumulateOver does.
  Rng rng(808);
  const size_t dim = 3;
  std::vector<QueryInstance> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(RandomAxisQuery(dim, 2, &rng));
  const Table first = RandomEdgeTable(1500, dim, queries[0], &rng);
  const Table second = RandomEdgeTable(700, dim, queries[1], &rng);
  std::vector<const QueryInstance*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);
  for (Aggregate agg : kAllAggregates) {
    const QueryFunctionSpec spec = AxisSpec(agg, 2);
    std::vector<AggregateAccumulator> got(queries.size(),
                                          AggregateAccumulator(agg));
    ExactEngine::AccumulateBatchOver(first, spec, ptrs.data(), ptrs.size(),
                                     got.data());
    ExactEngine::AccumulateBatchOver(second, spec, ptrs.data(), ptrs.size(),
                                     got.data());
    for (size_t i = 0; i < queries.size(); ++i) {
      AggregateAccumulator want(agg);
      ExactEngine::AccumulateOver(first, spec, queries[i], &want);
      ExactEngine::AccumulateOver(second, spec, queries[i], &want);
      EXPECT_EQ(got[i].count(), want.count());
      EXPECT_EQ(Bits(got[i].Finalize()), Bits(want.Finalize()))
          << AggregateName(agg) << " query " << i;
    }
  }
}

TEST(EngineBatchScanTest, AnswerBatchEqualsPerQueryAnswers) {
  // More queries than one shared walk takes, serial and sharded.
  const Table t = MakeUniformTable(2500, 3, 17);
  ExactEngine engine(&t);
  WorkloadConfig cfg;
  cfg.num_active = 2;
  cfg.seed = 18;
  WorkloadGenerator gen(3, cfg);
  const auto queries = gen.GenerateMany(150);
  for (Aggregate agg : kAllAggregates) {
    const QueryFunctionSpec spec = AxisSpec(agg, 2);
    const std::vector<double> serial = engine.AnswerBatch(spec, queries, 1);
    const std::vector<double> sharded = engine.AnswerBatch(spec, queries, 3);
    ASSERT_EQ(serial.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const double want = engine.Answer(spec, queries[i]);
      EXPECT_EQ(Bits(serial[i]), Bits(want)) << AggregateName(agg) << " " << i;
      EXPECT_EQ(Bits(sharded[i]), Bits(want)) << AggregateName(agg) << " " << i;
    }
  }
}

TEST(EngineBatchScanTest, BatchWalkIsZeroAllocationWhenWarm) {
  const Table t = MakeUniformTable(5000, 4, 93);
  WorkloadConfig cfg;
  cfg.num_active = 2;
  cfg.seed = 94;
  WorkloadGenerator gen(4, cfg);
  const auto queries = gen.GenerateMany(9);
  std::vector<const QueryInstance*> ptrs;
  for (const auto& q : queries) ptrs.push_back(&q);
  const Aggregate aggs[] = {Aggregate::kAvg, Aggregate::kStd,
                            Aggregate::kCount};
  std::vector<QueryFunctionSpec> specs;
  std::vector<std::vector<AggregateAccumulator>> accs;
  for (Aggregate agg : aggs) {
    specs.push_back(AxisSpec(agg, 3));
    accs.emplace_back(queries.size(), AggregateAccumulator(agg));
  }
  auto walk_all = [&] {
    for (size_t a = 0; a < accs.size(); ++a) {
      ExactEngine::AccumulateBatchOver(t, specs[a], ptrs.data(), ptrs.size(),
                                       accs[a].data());
    }
  };
  walk_all();  // warm-up: the thread's compiled-query scratch
  const size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  walk_all();
  const size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "the shared walk allocated";
  EXPECT_GT(accs[2][0].count(), 0u);
}

/// Best of `reps` timings of `fn`, in nanoseconds.
template <typename Fn>
double BestNs(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  return best;
}

TEST(EngineScanTest, FilterCostDoesNotDependOnSelectivity) {
  // The filter is branch-free: a scan whose rows match at random, half of
  // them, costs about what a scan matching every row costs. A filter that
  // branches on either bound test mispredicts on a large share of the
  // rows at 50% and runs about twice as slow there.
  const Table t = MakeUniformTable(1 << 16, 2, 95);
  ExactEngine engine(&t);
  const QueryFunctionSpec spec = AxisSpec(Aggregate::kCount, 1);
  // Attribute 0 active in both queries: rows fail on either side of
  // [0.25, 0.75), and [-1, 2) holds every row.
  const QueryInstance half = QueryInstance::AxisRange({0.25, 0.0}, {0.5, 1.0});
  const QueryInstance all = QueryInstance::AxisRange({-1.0, 0.0}, {3.0, 1.0});
  size_t sink = 0;
  double half_ns = 1e300, all_ns = 1e300;
  for (int round = 0; round < 3; ++round) {  // interleaved: shared drift
    half_ns = std::min(
        half_ns, BestNs(7, [&] { sink += engine.CountMatches(spec, half); }));
    all_ns = std::min(
        all_ns, BestNs(7, [&] { sink += engine.CountMatches(spec, all); }));
  }
  EXPECT_GT(sink, 0u);
  EXPECT_LT(half_ns, 1.5 * all_ns)
      << "random-selectivity scan " << half_ns << " ns vs all-match scan "
      << all_ns << " ns";
}

// ---------------------------------------------------------------------
// Per-ISA range-filter kernels vs the scalar loop they replace.

/// The first-attribute filter as the scalar Select loop runs it: the
/// selection vector every kernel must write.
size_t ScalarSelect(const double* x, size_t stride, size_t len, double lo,
                    double hi, uint32_t* sel) {
  size_t k = 0;
  for (size_t j = 0; j < len; ++j) {
    sel[k] = static_cast<uint32_t>(j * stride);
    k += !(x[j * stride] < lo) & !(x[j * stride] >= hi);
  }
  return k;
}

/// The whole scalar Select: the first attribute fills `sel`, each further
/// one narrows it.
size_t ScalarSelectAll(const CompiledAxisRange& range,
                       const double* const* columns, size_t stride,
                       size_t len, uint32_t* sel) {
  if (range.num_active() == 0) {
    for (size_t j = 0; j < len; ++j) sel[j] = static_cast<uint32_t>(j * stride);
    return len;
  }
  size_t k = ScalarSelect(columns[range.column(0)], stride, len, range.lo(0),
                          range.hi(0), sel);
  for (size_t a = 1; a < range.num_active(); ++a) {
    const double* y = columns[range.column(a)];
    size_t kept = 0;
    for (size_t j = 0; j < k; ++j) {
      const uint32_t r = sel[j];
      sel[kept] = r;
      kept += !(y[r] < range.lo(a)) & !(y[r] >= range.hi(a));
    }
    k = kept;
  }
  return k;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bounds that probe the compare predicates: plain, signed zeros, empty
/// (lo == hi) and inverted (lo > hi) ranges, NaN and infinite bounds.
constexpr double kEdgeBounds[][2] = {
    {0.25, 0.75}, {0.0, 0.5},    {-0.0, 0.0},  {0.0, -0.0},
    {0.5, 0.5},   {0.75, 0.25},  {kNaN, 0.5},  {0.25, kNaN},
    {kNaN, kNaN}, {-kInf, kInf}, {-kInf, 0.5}, {0.5, kInf},
    {kInf, kInf}, {-kInf, -kInf}};

/// Cells mixing uniform values with NaN, +-inf, +-0.0 and every bound in
/// kEdgeBounds, so each compare meets equality and unordered operands.
std::vector<double> EdgeCells(size_t n, Rng* rng) {
  const double specials[] = {kNaN, kInf, -kInf, 0.0, -0.0, 0.25, 0.5, 0.75};
  std::vector<double> cells(n);
  for (double& v : cells) {
    v = rng->Bernoulli(0.3) ? specials[rng->Index(std::size(specials))]
                            : rng->Uniform(-0.25, 1.25);
  }
  return cells;
}

TEST(EngineScanTest, RangeSelectKernelsCoverEverySupportedIsa) {
  const std::vector<RangeSelectKernel>& kernels = RangeSelectKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().isa, "baseline");
  std::vector<std::string> isas;
  for (const RangeSelectKernel& k : kernels) isas.push_back(k.isa);
#if NS_SIMD_DISPATCH
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool avx512 = __builtin_cpu_supports("avx512f");
#else
  const bool avx2 = false, avx512 = false;
#endif
  EXPECT_EQ(std::count(isas.begin(), isas.end(), "avx2"), avx2 ? 1 : 0);
  EXPECT_EQ(std::count(isas.begin(), isas.end(), "avx512f"), avx512 ? 1 : 0);
  EXPECT_EQ(isas.size(), 1u + avx2 + avx512);
}

TEST(EngineScanTest, RangeSelectKernelsMatchScalarLoopAtEveryLength) {
  // Every length 0..1030 hits every tail size of every vector step. The
  // input ends where the kernel's rows end, so a read past `len` leaves
  // the buffer (ASan), and guard slots after sel[len) must stay untouched.
  constexpr size_t kMaxLen = 1030, kGuard = 32;
  constexpr uint32_t kPoison = 0xDEADBEEFu;
  Rng rng(2121);
  const std::vector<double> cells = EdgeCells(kMaxLen, &rng);
  std::vector<uint32_t> want(kMaxLen), got(kMaxLen + kGuard);
  size_t compared = 0;
  for (const RangeSelectKernel& kernel : RangeSelectKernels()) {
    for (const auto& bounds : kEdgeBounds) {
      const double lo = bounds[0], hi = bounds[1];
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const double* x = cells.data() + kMaxLen - len;
        const size_t n = ScalarSelect(x, 1, len, lo, hi, want.data());
        std::fill(got.begin(), got.end(), kPoison);
        ASSERT_EQ(kernel.select(x, len, lo, hi, got.data()), n)
            << kernel.isa << " len " << len << " [" << lo << ", " << hi << ")";
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], want[i]) << kernel.isa << " len " << len
                                     << " slot " << i << " [" << lo << ", "
                                     << hi << ")";
        }
        for (size_t i = len; i < len + kGuard; ++i) {
          ASSERT_EQ(got[i], kPoison)
              << kernel.isa << " wrote past len " << len << " at " << i;
        }
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, RangeSelectKernels().size() *
                          std::size(kEdgeBounds) * (kMaxLen + 1));
}

TEST(EngineScanTest, SelectMatchesScalarLoopOnEveryStride) {
  // Stride 1: separate columns (the dispatched kernel, then narrowing).
  // Strides 2..20: row-major blocks of that many attributes (the scalar
  // path). Queries draw 0..3 active attributes with edge bounds.
  Rng rng(3131);
  std::vector<uint32_t> want(BatchScan::kBlock), got(BatchScan::kBlock);
  for (size_t stride = 1; stride <= 20; ++stride) {
    for (int trial = 0; trial < 40; ++trial) {
      const size_t dim = stride == 1 ? 1 + rng.Index(4) : stride;
      const size_t len = trial < 2 ? static_cast<size_t>(trial)
                                   : rng.Index(BatchScan::kBlock + 1);
      const std::vector<double> cells = EdgeCells(len * dim, &rng);
      const double* columns[20];
      for (size_t c = 0; c < dim; ++c) {
        columns[c] = stride == 1 ? cells.data() + c * len : cells.data() + c;
      }
      std::vector<double> lo(dim, 0.0), width(dim, 1.0);
      const size_t active = rng.Index(std::min<size_t>(dim, 3) + 1);
      for (size_t a : rng.SampleWithoutReplacement(dim, active)) {
        const auto& bounds = kEdgeBounds[rng.Index(std::size(kEdgeBounds))];
        lo[a] = bounds[0];
        width[a] = bounds[1] - bounds[0];
        if (lo[a] == 0.0 && width[a] >= 1.0) width[a] = 0.5;  // stay active
      }
      CompiledAxisRange range;
      ASSERT_TRUE(range.Compile(AxisRangePredicate(),
                                QueryInstance::AxisRange(lo, width), dim));
      const size_t n =
          ScalarSelectAll(range, columns, stride, len, want.data());
      const size_t k = range.Select(
          [&columns](size_t c) { return columns[c]; }, stride, len,
          got.data());
      ASSERT_EQ(k, n) << "stride " << stride << " trial " << trial;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i])
            << "stride " << stride << " trial " << trial << " slot " << i;
      }
    }
  }
}

}  // namespace
}  // namespace neurosketch
