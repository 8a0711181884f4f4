// Micro-benchmarks (google-benchmark) for the hot kernels behind the
// paper's query-time numbers: NeuroSketch forward pass (the few-microsecond
// claim), kd-tree routing, R-tree range queries, exact scans, the range
// filter per ISA, the lockstep accumulate step and GEMM.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "serve/delta_buffer.h"

using namespace neurosketch;
using namespace neurosketch::bench;

namespace {

// Shared fixtures built once.
struct Fixtures {
  PreparedDataset data = Prepare("VS");
  Workbench wb;
  Result<NeuroSketch> sketch = Status::Unknown("unbuilt");
  TreeAgg tree_agg;
  Fixtures() : wb(MakeWorkbench(Prepare("VS"), Aggregate::kAvg,
                                DefaultWorkload("VS", 1500), 800, 100)) {
    NeuroSketchConfig cfg = DefaultSketchConfig();
    cfg.train.epochs = 40;
    sketch = NeuroSketch::Train(wb.train_q, wb.train_a, cfg);
    TreeAggConfig tc;
    tc.sample_size = 4000;
    tree_agg = TreeAgg::Build(wb.data.normalized, tc);
  }
};

Fixtures& F() {
  static Fixtures fixtures;
  return fixtures;
}

void BM_NeuroSketchAnswer(benchmark::State& state) {
  auto& f = F();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.sketch.value().Answer(f.wb.test_q[i++ % f.wb.test_q.size()]));
  }
}
BENCHMARK(BM_NeuroSketchAnswer);

void BM_MlpForward(benchmark::State& state) {
  nn::Mlp model(nn::MlpConfig::Paper(6, state.range(0), 60, 30), 7);
  std::vector<double> x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictOne(x));
  }
}
BENCHMARK(BM_MlpForward)->Arg(3)->Arg(5)->Arg(10);

void BM_CompiledMlpForward(benchmark::State& state) {
  nn::Mlp model(nn::MlpConfig::Paper(6, state.range(0), 60, 30), 7);
  nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);
  nn::Workspace ws;
  std::vector<double> x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.PredictOne(x.data(), &ws));
  }
}
BENCHMARK(BM_CompiledMlpForward)->Arg(3)->Arg(5)->Arg(10);

void BM_CompiledMlpF32Forward(benchmark::State& state) {
  nn::Mlp model(nn::MlpConfig::Paper(6, state.range(0), 60, 30), 7);
  nn::CompiledMlpF32 plan =
      nn::CompiledMlpF32::FromPlan(nn::CompiledMlp::FromMlp(model));
  nn::Workspace ws;
  std::vector<double> x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.PredictOne(x.data(), &ws));
  }
}
BENCHMARK(BM_CompiledMlpF32Forward)->Arg(3)->Arg(5)->Arg(10);

// Batched forward pass over state.range(1) queries (the serve path's
// per-leaf batches): rows 1 take the kernel's row loop, rows 4 and 64 its
// 4-row register tiles. Reports ns_per_query.
template <typename Plan>
void CompiledMlpBatchForward(benchmark::State& state, const Plan& plan) {
  const size_t rows = static_cast<size_t>(state.range(1));
  Rng rng(1604);
  std::vector<double> x(rows * 6);
  for (auto& v : x) v = rng.Uniform();
  std::vector<double> out(rows);
  nn::Workspace ws;
  for (auto _ : state) {
    plan.PredictBatch(x.data(), rows, &ws, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_query"] = benchmark::Counter(
      static_cast<double>(rows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_CompiledMlpBatchForward(benchmark::State& state) {
  nn::Mlp model(nn::MlpConfig::Paper(6, state.range(0), 60, 30), 7);
  CompiledMlpBatchForward(state, nn::CompiledMlp::FromMlp(model));
}
BENCHMARK(BM_CompiledMlpBatchForward)
    ->Args({5, 1})
    ->Args({5, 4})
    ->Args({5, 64});

void BM_CompiledMlpF32BatchForward(benchmark::State& state) {
  nn::Mlp model(nn::MlpConfig::Paper(6, state.range(0), 60, 30), 7);
  CompiledMlpBatchForward(
      state, nn::CompiledMlpF32::FromPlan(nn::CompiledMlp::FromMlp(model)));
}
BENCHMARK(BM_CompiledMlpF32BatchForward)
    ->Args({5, 1})
    ->Args({5, 4})
    ->Args({5, 64});

void BM_TreeAggAnswer(benchmark::State& state) {
  auto& f = F();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.tree_agg.Answer(f.wb.spec, f.wb.test_q[i++ % f.wb.test_q.size()]));
  }
}
BENCHMARK(BM_TreeAggAnswer);

void BM_ExactScan(benchmark::State& state) {
  auto& f = F();
  ExactEngine engine(&f.wb.data.normalized);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Answer(f.wb.spec, f.wb.test_q[i++ % f.wb.test_q.size()]));
  }
}
BENCHMARK(BM_ExactScan);

// The filter under every exact scan (CompiledAxisRange::Select's first
// attribute): one 1024-row column block at 50% selectivity, one arm per
// ISA kernel this host runs. Reports ns_per_row.
void BM_RangeSelect(benchmark::State& state, RangeSelectKernel kernel) {
  Rng rng(1605);
  std::vector<double> x(BatchScan::kBlock);
  for (auto& v : x) v = rng.Uniform();
  std::vector<uint32_t> sel(x.size());
  const double lo = 0.25, hi = lo + 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernel.select(x.data(), x.size(), lo, hi, sel.data()));
    benchmark::DoNotOptimize(sel.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(x.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

const bool kRangeSelectRegistered = [] {
  for (const RangeSelectKernel& kernel : RangeSelectKernels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_RangeSelect/") + kernel.isa).c_str(), BM_RangeSelect,
        kernel);
  }
  return true;
}();

// The streaming delta's walk (DeltaBuffer::Snapshot::Accumulate, as
// every delta scan runs it) for one SUM query: one active attribute over
// a 4096-row delta of four 1024-row chunks at 50% selectivity. Reports
// ns_per_row.
void BM_DeltaScanMatches(benchmark::State& state) {
  constexpr size_t kColumns = 4, kChunkRows = 1024, kRows = 4 * kChunkRows;
  serve::DeltaBuffer delta(kColumns, kChunkRows);
  Rng rng(1607);
  std::vector<double> row(kColumns);
  for (size_t i = 0; i < kRows; ++i) {
    for (double& v : row) v = rng.Uniform();
    delta.Append(row);
  }
  const serve::DeltaBuffer::Snapshot snap = delta.Snap();
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kSum;
  spec.measure_col = kColumns - 1;
  const QueryInstance q =
      QueryInstance::AxisRange({0.25, 0.0, 0.0, 0.0}, {0.5, 1.0, 1.0, 1.0});
  const QueryInstance* queries[] = {&q};
  for (auto _ : state) {
    AggregateAccumulator sum(Aggregate::kSum);
    snap.Accumulate(0, spec, queries, 1, &sum);
    benchmark::DoNotOptimize(sum);
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(kRows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_DeltaScanMatches);

// The accumulate step under every exact scan: one 1024-row block's
// matches fed to 10 queries' accumulators in one AddSelectedLanes call
// (`stream` recomputes about 9.75 queries per batch), at selectivities
// spread over 5-95%, one arm per aggregate. Reports ns_per_value, per
// matched value.
void BM_AccumulateLanes(benchmark::State& state, Aggregate agg) {
  constexpr size_t kLanes = 10;
  Rng rng(1606);
  std::vector<double> values(BatchScan::kBlock);
  for (auto& v : values) v = rng.Uniform();
  std::vector<std::vector<uint32_t>> sels(kLanes);
  const uint32_t* sel[kLanes];
  size_t counts[kLanes];
  size_t matched = 0;
  for (size_t l = 0; l < kLanes; ++l) {
    const double selectivity = 0.05 + 0.1 * static_cast<double>(l);
    for (uint32_t r = 0; r < values.size(); ++r) {
      if (rng.Uniform() < selectivity) sels[l].push_back(r);
    }
    sel[l] = sels[l].data();
    counts[l] = sels[l].size();
    matched += counts[l];
  }
  std::vector<AggregateAccumulator> accs(kLanes, AggregateAccumulator(agg));
  for (auto _ : state) {
    AggregateAccumulator::AddSelectedLanes(accs.data(), kLanes, values.data(),
                                           sel, counts);
    benchmark::DoNotOptimize(accs.data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(accs[0].Finalize());
  state.counters["ns_per_value"] = benchmark::Counter(
      static_cast<double>(matched),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

const bool kAccumulateLanesRegistered = [] {
  for (Aggregate agg : {Aggregate::kAvg, Aggregate::kSum, Aggregate::kStd}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_AccumulateLanes/") + AggregateName(agg)).c_str(),
        BM_AccumulateLanes, agg);
  }
  return true;
}();

void BM_RTreeRangeQuery(benchmark::State& state) {
  Rng rng(1600);
  std::vector<std::vector<double>> points(
      static_cast<size_t>(state.range(0)), std::vector<double>(3));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Uniform();
  }
  RTree tree = RTree::BulkLoad(points);
  std::vector<double> lo = {0.3, 0.3, 0.3}, hi = {0.5, 0.5, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeQuery(lo, hi));
  }
}
BENCHMARK(BM_RTreeRangeQuery)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Gemm(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1601);
  Matrix a(n, n), b(n, n), out;
  for (size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Uniform();
  for (size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.Uniform();
  for (auto _ : state) {
    Gemm(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Gemm)->Arg(16)->Arg(64)->Arg(128);

void BM_KdTreeRoute(benchmark::State& state) {
  Rng rng(1602);
  std::vector<QueryInstance> queries;
  for (int i = 0; i < 2000; ++i) {
    std::vector<double> v(6);
    for (auto& x : v) x = rng.Uniform();
    queries.emplace_back(std::move(v));
  }
  auto tree = QuerySpaceKdTree::Build(queries, 4);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Route(queries[i++ % queries.size()]));
  }
}
BENCHMARK(BM_KdTreeRoute);

}  // namespace

BENCHMARK_MAIN();
