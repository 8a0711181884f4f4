// Golden equivalence tests for the compiled inference-plan layer: the
// CompiledMlp flat-buffer path must be bit-identical to the Matrix-based
// scalar path on every surface (PredictOne, batches, sketch Answer*,
// serialization), parallel construction must reproduce the sequential
// build exactly, and the serve hot path must not allocate per query.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include "core/neurosketch.h"
#include "data/generators.h"
#include "nn/inference_plan.h"
#include "nn/serialize.h"
#include "query/predicate.h"
#include "util/random.h"

// Global allocation counter for the zero-allocation test. Counting every
// operator new in the binary is coarse but exact: a hot path that performs
// zero allocations leaves the counter untouched.
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace neurosketch {
namespace {

std::vector<double> RandomInput(Rng* rng, size_t dim) {
  std::vector<double> x(dim);
  for (double& v : x) v = rng->Uniform(-1.0, 1.0);
  return x;
}

// Compare a compiled-plan answer against the f64 scalar reference. At the
// default precision the contract is bitwise equality; when the CI matrix
// forces the f32 tier (NEUROSKETCH_FORCE_F32_PLANS=1) the compiled path
// legitimately diverges within that tier's validated error bound, so
// compare with an answer-space tolerance instead. The bound is in
// standardized units; answer-space divergence is bound x the leaf's target
// scale, so callers pass `answer_scale` = 1 + the workload's max |answer|
// (an upper proxy for any leaf's target stddev).
void ExpectMatchesScalar(const NeuroSketch& sketch, double compiled,
                         double scalar, double answer_scale) {
  if (sketch.plan_precision() == PlanPrecision::kF32) {
    EXPECT_NEAR(compiled, scalar, sketch.f32_error_bound() * answer_scale);
  } else {
    EXPECT_EQ(compiled, scalar);
  }
}

double AnswerScale(const NeuroSketch& sketch,
                   const std::vector<QueryInstance>& probes) {
  double max_abs = 0.0;
  for (const auto& q : probes) {
    const double a = sketch.AnswerScalar(q);
    if (std::isfinite(a)) max_abs = std::max(max_abs, std::fabs(a));
  }
  return 1.0 + max_abs;
}

TEST(CompiledMlpTest, PredictOneBitIdenticalAcrossActivations) {
  Rng rng(101);
  for (nn::Activation act : {nn::Activation::kRelu, nn::Activation::kTanh,
                             nn::Activation::kSigmoid}) {
    for (size_t in_dim : {1u, 3u, 7u}) {
      nn::MlpConfig cfg;
      cfg.in_dim = in_dim;
      cfg.hidden = {13, 5};
      cfg.hidden_act = act;
      nn::Mlp model(cfg, /*seed=*/900 + in_dim);
      nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);
      EXPECT_EQ(plan.num_params(), model.num_params());
      nn::Workspace ws;
      for (int trial = 0; trial < 20; ++trial) {
        const std::vector<double> x = RandomInput(&rng, in_dim);
        // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the claim is bitwise equality.
        EXPECT_EQ(plan.PredictOne(x.data(), &ws), model.PredictOne(x));
      }
    }
  }
}

TEST(CompiledMlpTest, PredictBatchBitIdenticalToMlpPredict) {
  Rng rng(202);
  // Row counts on both sides of the kernel's 4-row tile; the second model's
  // hidden widths (30, 13) are not multiples of any vector width, so its
  // layers end in overlapping tail tiles or column tiles.
  for (const nn::MlpConfig& cfg : {nn::MlpConfig::Paper(4, 5, 32, 16),
                                   nn::MlpConfig::Paper(4, 5, 30, 13)}) {
    nn::Mlp model(cfg, 7);
    nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);
    nn::CompiledMlpF32 plan32 = nn::CompiledMlpF32::FromPlan(plan);
    nn::Workspace ws;
    for (size_t rows : {1u, 2u, 3u, 4u, 5u, 17u, 64u, 255u}) {
      Matrix inputs(rows, 4);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < 4; ++c) inputs(r, c) = rng.Uniform();
      }
      Matrix expect;
      model.Predict(inputs, &expect);
      std::vector<double> got(rows), got32(rows);
      plan.PredictBatch(inputs.data(), rows, &ws, got.data());
      plan32.PredictBatch(inputs.data(), rows, &ws, got32.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(got[r], expect(r, 0)) << "rows=" << rows << " r=" << r;
        EXPECT_EQ(got32[r], plan32.PredictOne(inputs.row(r), &ws))
            << "f32 rows=" << rows << " r=" << r;
      }
    }
  }
}

TEST(CompiledMlpTest, SerializationMatchesMlpByteForByte) {
  nn::Mlp model(nn::MlpConfig::Paper(3, 4, 20, 10), 55);
  nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);

  std::ostringstream via_mlp, via_plan;
  ASSERT_TRUE(nn::SaveMlp(model, &via_mlp).ok());
  ASSERT_TRUE(nn::SaveCompiledMlp(plan, &via_plan).ok());
  EXPECT_EQ(via_mlp.str(), via_plan.str());

  std::istringstream in(via_plan.str());
  auto loaded = nn::LoadCompiledMlp(&in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().params(), plan.params());

  // ToMlp rehydrates the trainable form bit-exactly.
  nn::Mlp back = loaded.value().ToMlp();
  Rng rng(66);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<double> x = RandomInput(&rng, 3);
    EXPECT_EQ(back.PredictOne(x), model.PredictOne(x));
  }
}

// Build a sketch over a real (synthetic-data) query function, as the
// serving path would.
Result<NeuroSketch> BuildSketch(uint64_t seed, size_t train_threads,
                                std::vector<QueryInstance>* probes) {
  Table t = MakeUniformTable(4000, 2, seed);
  ExactEngine engine(&t);
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  WorkloadConfig wc;
  wc.num_active = 1;
  wc.seed = seed + 1;
  WorkloadGenerator gen(2, wc);
  auto queries = gen.GenerateMany(500, &engine, &spec);
  auto answers = engine.AnswerBatch(spec, queries);

  NeuroSketchConfig cfg;
  cfg.tree_height = 2;
  cfg.target_partitions = 4;
  cfg.n_layers = 4;
  cfg.l_first = 24;
  cfg.l_rest = 16;
  cfg.train.epochs = 40;
  cfg.seed = seed + 2;
  cfg.train_threads = train_threads;

  if (probes != nullptr) {
    WorkloadConfig pc = wc;
    pc.seed = seed + 3;
    WorkloadGenerator pgen(2, pc);
    *probes = pgen.GenerateMany(200, &engine, &spec);
  }
  return NeuroSketch::Train(queries, answers, cfg);
}

TEST(InferencePlanGoldenTest, AnswerSurfacesBitIdentical) {
  // Several randomly-built sketches: every answering surface (compiled
  // Answer, scalar reference, serial batch, vectorized batch) must return
  // the exact same doubles.
  for (uint64_t seed : {11u, 223u, 4999u}) {
    std::vector<QueryInstance> probes;
    auto sketch = BuildSketch(seed, /*train_threads=*/0, &probes);
    ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
    EXPECT_TRUE(sketch.value().compiled());

    const auto serial = sketch.value().AnswerBatch(probes);
    const auto vectorized = sketch.value().AnswerBatchVectorized(probes);
    ASSERT_EQ(serial.size(), probes.size());
    ASSERT_EQ(vectorized.size(), probes.size());
    const double scale = AnswerScale(sketch.value(), probes);
    for (size_t i = 0; i < probes.size(); ++i) {
      const double compiled = sketch.value().Answer(probes[i]);
      const double scalar = sketch.value().AnswerScalar(probes[i]);
      // All compiled surfaces serve the same bits as Answer regardless of
      // tier; only the scalar-reference comparison is precision-aware.
      ExpectMatchesScalar(sketch.value(), compiled, scalar, scale);
      EXPECT_EQ(compiled, serial[i]) << "probe " << i << " seed " << seed;
      EXPECT_EQ(compiled, vectorized[i]) << "probe " << i << " seed " << seed;
    }
  }
}

TEST(InferencePlanGoldenTest, ParallelConstructionReproducesSequential) {
  std::vector<QueryInstance> probes;
  auto sequential = BuildSketch(31, /*train_threads=*/1, &probes);
  ASSERT_TRUE(sequential.ok());
  for (size_t threads : {0u, 2u, 5u}) {
    auto parallel = BuildSketch(31, threads, nullptr);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel.value().SizeBytes(), sequential.value().SizeBytes());
    EXPECT_EQ(parallel.value().num_partitions(),
              sequential.value().num_partitions());
    for (const auto& q : probes) {
      EXPECT_EQ(parallel.value().Answer(q), sequential.value().Answer(q));
    }
  }
}

TEST(InferencePlanGoldenTest, SaveLoadServesIdenticalAnswers) {
  std::vector<QueryInstance> probes;
  auto sketch = BuildSketch(77, 0, &probes);
  ASSERT_TRUE(sketch.ok());

  const std::string path = "/tmp/ns_plan_roundtrip.sketch";
  ASSERT_TRUE(sketch.value().Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_TRUE(loaded.value().compiled());
  EXPECT_EQ(loaded.value().SizeBytes(), sketch.value().SizeBytes());
  const double scale = AnswerScale(loaded.value(), probes);
  for (const auto& q : probes) {
    EXPECT_EQ(loaded.value().Answer(q), sketch.value().Answer(q));
    ExpectMatchesScalar(loaded.value(), sketch.value().Answer(q),
                        loaded.value().AnswerScalar(q), scale);
  }
}

TEST(InferencePlanGoldenTest, AnswerIsZeroAllocationWhenWarm) {
  std::vector<QueryInstance> probes;
  auto sketch = BuildSketch(55, 0, &probes);
  ASSERT_TRUE(sketch.ok());

  // Warm the calling thread's workspace, then demand allocation silence.
  double sink = 0.0;
  for (const auto& q : probes) sink += sketch.value().Answer(q);

  const size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 10; ++rep) {
    for (const auto& q : probes) sink += sketch.value().Answer(q);
  }
  const size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "Answer allocated on the hot path";
  // Keep `sink` observable so the loop cannot be optimized away.
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(InferencePlanGoldenTest, BatchVectorizedIsZeroAllocationWhenWarm) {
  std::vector<QueryInstance> probes;
  auto sketch = BuildSketch(56, 0, &probes);
  ASSERT_TRUE(sketch.ok());

  // The allocation-free surface takes a caller-owned output buffer; the
  // bucketing scratch and all model math live in the thread-local arena.
  std::vector<double> out(probes.size());
  for (int rep = 0; rep < 3; ++rep) {
    sketch.value().AnswerBatchVectorizedTo(probes, out.data());
  }

  const size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int rep = 0; rep < 10; ++rep) {
    sketch.value().AnswerBatchVectorizedTo(probes, out.data());
  }
  const size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "AnswerBatchVectorizedTo allocated on the warm batch path";

  // And it answers exactly what the serial surface answers.
  const auto serial = sketch.value().AnswerBatch(probes);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(out[i], serial[i]) << "probe " << i;
  }
}

}  // namespace
}  // namespace neurosketch
