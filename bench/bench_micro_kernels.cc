// Micro-benchmarks (google-benchmark) for the hot kernels behind the
// paper's query-time numbers: NeuroSketch forward pass (the few-microsecond
// claim), kd-tree routing, R-tree range queries, exact scans, the range
// filter per ISA and GEMM.
#include <benchmark/benchmark.h>

#include "bench_common.h"

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

void BM_CompiledMlpI8Forward(benchmark::State& state) {
  nn::Mlp model(nn::MlpConfig::Paper(6, state.range(0), 60, 30), 7);
  nn::CompiledMlp f64 = nn::CompiledMlp::FromMlp(model);
  nn::Workspace ws;
  // Calibrate per-layer activation ranges on a small random workload, as
  // NeuroSketch::EnableInt8 does.
  Rng rng(1603);
  std::vector<double> absmax(f64.layers().size(), 0.0);
  for (int i = 0; i < 64; ++i) {
    std::vector<double> probe(6);
    for (auto& v : probe) v = rng.Uniform();
    f64.CalibrateOne(probe.data(), &ws, absmax.data());
  }
  nn::CompiledMlpI8 plan = nn::CompiledMlpI8::FromPlan(f64, absmax);
  std::vector<double> x = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.PredictOne(x.data(), &ws));
  }
}
BENCHMARK(BM_CompiledMlpI8Forward)->Arg(3)->Arg(5)->Arg(10);

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
