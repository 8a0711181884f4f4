// Tests for the opt-in narrow compiled-plan tiers (f32 and int8):
// activation under the error bound, automatic fallback chaining
// (int8 -> f32 -> f64) when bounds are blown, bitwise f64 golden behavior
// at the default precision, precision + calibration surviving
// serialization, tier switching, serialized-size accounting (SizeBytes()
// == bytes Save() writes), and int8 calibration edge cases (zero-range
// layers, saturating outliers).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "core/neurosketch.h"
#include "data/generators.h"
#include "nn/inference_plan.h"
#include "nn/mlp.h"
#include "query/predicate.h"
#include "serve/sketch_store.h"
#include "util/random.h"

namespace neurosketch {
namespace {

struct Bench {
  std::vector<QueryInstance> train_q;
  std::vector<double> train_a;
  std::vector<QueryInstance> probes;
  NeuroSketchConfig cfg;
};

Bench MakeBench(uint64_t seed) {
  Bench b;
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
  b.train_q = gen.GenerateMany(500, &engine, &spec);
  b.train_a = engine.AnswerBatch(spec, b.train_q);

  WorkloadConfig pc = wc;
  pc.seed = seed + 3;
  WorkloadGenerator pgen(2, pc);
  b.probes = pgen.GenerateMany(200, &engine, &spec);

  b.cfg.tree_height = 2;
  b.cfg.target_partitions = 4;
  b.cfg.n_layers = 4;
  b.cfg.l_first = 24;
  b.cfg.l_rest = 16;
  b.cfg.train.epochs = 40;
  b.cfg.seed = seed + 2;
  return b;
}

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

TEST(PrecisionTest, F32ActivatesWithinBoundAndStaysCloseToF64) {
  Bench b = MakeBench(91);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const NeuroSketch& ns = sketch.value();

  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kF32)
      << "f32 tier should activate under the default bound (measured "
      << ns.f32_max_divergence() << ")";
  EXPECT_TRUE(ns.has_f32_plans());
  EXPECT_GT(ns.f32_max_divergence(), 0.0);
  EXPECT_LE(ns.f32_max_divergence(), ns.f32_error_bound());
  // The f32 tier halves the resident flat-buffer footprint.
  EXPECT_EQ(ns.PlanBytes(PlanPrecision::kF32),
            ns.PlanBytes(PlanPrecision::kF64) / 2);

  // Every batch surface serves the same f32 bits as single-query Answer,
  // and all of them stay close to the f64 scalar reference. The bound is
  // in standardized units; scale it into answer space by the workload's
  // max |answer|, an upper proxy for any leaf's target stddev.
  const auto serial = ns.AnswerBatch(b.probes);
  const auto vectorized = ns.AnswerBatchVectorized(b.probes);
  double max_abs = 0.0;
  for (const auto& q : b.probes) {
    max_abs = std::max(max_abs, std::fabs(ns.AnswerScalar(q)));
  }
  const double tol = ns.f32_error_bound() * (1.0 + max_abs);
  for (size_t i = 0; i < b.probes.size(); ++i) {
    const double f32_answer = ns.Answer(b.probes[i]);
    const double f64_answer = ns.AnswerScalar(b.probes[i]);
    EXPECT_EQ(f32_answer, serial[i]) << "probe " << i;
    EXPECT_EQ(f32_answer, vectorized[i]) << "probe " << i;
    EXPECT_NEAR(f32_answer, f64_answer, tol) << "probe " << i;
  }
}

TEST(PrecisionTest, BlownErrorBoundFallsBackToF64) {
  Bench b = MakeBench(92);
  b.cfg.plan_precision = PlanPrecision::kF32;
  b.cfg.f32_error_bound = 0.0;  // nothing passes: force the fallback
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const NeuroSketch& ns = sketch.value();

  EXPECT_EQ(ns.plan_precision(), PlanPrecision::kF64);
  EXPECT_FALSE(ns.has_f32_plans());
  EXPECT_GT(ns.f32_max_divergence(), 0.0);  // measured, then rejected
  // Fallback means the golden contract holds: bit-identical to scalar.
  for (const auto& q : b.probes) {
    EXPECT_EQ(ns.Answer(q), ns.AnswerScalar(q));
  }
}

TEST(PrecisionTest, DefaultPrecisionIsBitwiseGolden) {
  if (ForceF32PlansFromEnv() || ForceInt8PlansFromEnv()) {
    GTEST_SKIP() << "NEUROSKETCH_FORCE_*_PLANS upgrades the default tier";
  }
  Bench b = MakeBench(93);
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  EXPECT_EQ(sketch.value().plan_precision(), PlanPrecision::kF64);
  for (const auto& q : b.probes) {
    EXPECT_EQ(sketch.value().Answer(q), sketch.value().AnswerScalar(q));
  }
}

TEST(PrecisionTest, SelectPrecisionSwitchesTiers) {
  Bench b = MakeBench(94);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  NeuroSketch& ns = sketch.value();
  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kF32);
  const double f32_answer = ns.Answer(b.probes[0]);

  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF64).ok());
  EXPECT_EQ(ns.Answer(b.probes[0]), ns.AnswerScalar(b.probes[0]));
  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF32).ok());
  EXPECT_EQ(ns.Answer(b.probes[0]), f32_answer);

  // A sketch without f32 plans refuses the f32 tier.
  Bench b64 = MakeBench(95);
  b64.cfg.plan_precision = PlanPrecision::kF64;
  auto plain = NeuroSketch::Train(b64.train_q, b64.train_a, b64.cfg);
  ASSERT_TRUE(plain.ok());
  if (!plain.value().has_f32_plans()) {
    EXPECT_FALSE(plain.value().SelectPrecision(PlanPrecision::kF32).ok());
  }
  // EnableF32 compiles the tier after the fact.
  EXPECT_TRUE(plain.value().EnableF32(b64.train_q,
                                      NeuroSketchConfig().f32_error_bound));
  EXPECT_EQ(plain.value().plan_precision(), PlanPrecision::kF32);
}

TEST(PrecisionTest, VectorizedLeafIdsMatchRouteOnEveryTier) {
  // AnswerBatchVectorizedTo reports the leaf model it routed each query
  // to, so a caller need not route again; asking for the ids leaves the
  // answers bit-identical on every tier, the single-query path included.
  Bench b = MakeBench(96);
  b.cfg.plan_precision = PlanPrecision::kInt8;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  NeuroSketch& ns = sketch.value();
  if (!ns.has_f32_plans()) {
    ASSERT_TRUE(ns.EnableF32(b.train_q, 1.0));
  }
  const std::vector<QueryInstance>& probes = b.probes;
  size_t tiers = 0;
  for (PlanPrecision tier :
       {PlanPrecision::kF64, PlanPrecision::kF32, PlanPrecision::kInt8}) {
    if (!ns.SelectPrecision(tier).ok()) continue;
    ++tiers;
    for (size_t n : {size_t{1}, probes.size()}) {
      const std::vector<QueryInstance> batch(probes.begin(),
                                             probes.begin() + n);
      std::vector<double> plain(n), with_ids(n);
      std::vector<int> ids(n, -7);
      ns.AnswerBatchVectorizedTo(batch, plain.data());
      ns.AnswerBatchVectorizedTo(batch, with_ids.data(), ids.data());
      for (size_t i = 0; i < n; ++i) {
        const auto* leaf = ns.tree().Route(batch[i]);
        const int want = leaf != nullptr ? leaf->leaf_id : -1;
        EXPECT_EQ(ids[i], want) << "probe " << i;
        if (std::isnan(plain[i])) {
          EXPECT_TRUE(std::isnan(with_ids[i]));
        } else {
          EXPECT_EQ(plain[i], with_ids[i]) << "probe " << i;
          EXPECT_GE(ids[i], 0) << "an answered probe has a leaf model";
        }
      }
    }
  }
  EXPECT_EQ(tiers, 3u);
}

TEST(PrecisionTest, EnableF32RefusesEmptyValidation) {
  Bench b = MakeBench(99);
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  // No validation coverage -> f32 must not activate: it is never served
  // blind.
  EXPECT_FALSE(sketch.value().EnableF32(
      {}, NeuroSketchConfig().f32_error_bound));
  EXPECT_EQ(sketch.value().plan_precision(), PlanPrecision::kF64);
  EXPECT_FALSE(sketch.value().has_f32_plans());
}

TEST(PrecisionTest, PrecisionSurvivesSaveLoadBitExactly) {
  Bench b = MakeBench(96);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  ASSERT_EQ(sketch.value().plan_precision(), PlanPrecision::kF32);

  const std::string path = testing::TempDir() + "/ns_precision_roundtrip.bin";
  ASSERT_TRUE(sketch.value().Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded.value().plan_precision(), PlanPrecision::kF32);
  EXPECT_TRUE(loaded.value().has_f32_plans());
  EXPECT_EQ(loaded.value().f32_max_divergence(),
            sketch.value().f32_max_divergence());
  EXPECT_EQ(loaded.value().f32_error_bound(),
            sketch.value().f32_error_bound());
  for (const auto& q : b.probes) {
    // The f32 narrowing is deterministic, so the loaded sketch serves the
    // exact same f32 bits, and its f64 reference is untouched.
    EXPECT_EQ(loaded.value().Answer(q), sketch.value().Answer(q));
    EXPECT_EQ(loaded.value().AnswerScalar(q), sketch.value().AnswerScalar(q));
  }
}

TEST(PrecisionTest, InactiveF32TierSurvivesSaveLoad) {
  Bench b = MakeBench(90);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  NeuroSketch& ns = sketch.value();
  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kF32);
  const double f32_answer = ns.Answer(b.probes[0]);

  // Serve the reference tier for a while, then Save: the validated f32
  // plans must not be lost across the round-trip.
  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF64).ok());
  const std::string path = testing::TempDir() + "/ns_inactive_f32.bin";
  ASSERT_TRUE(ns.Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded.value().plan_precision(), PlanPrecision::kF64);
  EXPECT_TRUE(loaded.value().has_f32_plans());
  ASSERT_TRUE(loaded.value().SelectPrecision(PlanPrecision::kF32).ok());
  EXPECT_EQ(loaded.value().Answer(b.probes[0]), f32_answer);
}

TEST(PrecisionTest, SizeBytesMatchesSaveOutputExactly) {
  for (PlanPrecision p :
       {PlanPrecision::kF64, PlanPrecision::kF32, PlanPrecision::kInt8}) {
    Bench b = MakeBench(97);
    b.cfg.plan_precision = p;
    auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
    ASSERT_TRUE(sketch.ok());
    const std::string path = testing::TempDir() + "/ns_sizebytes.bin";
    ASSERT_TRUE(sketch.value().Save(path).ok());
    EXPECT_EQ(sketch.value().SizeBytes(), FileBytes(path))
        << "precision " << PlanPrecisionName(sketch.value().plan_precision());
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------- int8

TEST(PrecisionTest, Int8ActivatesWithinBoundAndShrinksFootprint) {
  Bench b = MakeBench(81);
  b.cfg.plan_precision = PlanPrecision::kInt8;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const NeuroSketch& ns = sketch.value();

  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kInt8)
      << "int8 tier should activate under the default bound (measured "
      << ns.int8_max_divergence() << ")";
  EXPECT_TRUE(ns.has_int8_plans());
  EXPECT_GT(ns.int8_max_divergence(), 0.0);
  EXPECT_LE(ns.int8_max_divergence(), ns.int8_error_bound());
  // The headline footprint claim: the int8 tier's resident plan bytes are
  // at most a quarter of the f64 tier's (int8 weights are 1/8; the f32
  // bias/dequant epilogue and calibration record eat some of that back).
  EXPECT_LE(ns.PlanBytes(PlanPrecision::kInt8),
            ns.PlanBytes(PlanPrecision::kF64) / 4);

  // Every batch surface serves the same int8 bits as single-query Answer,
  // and all stay within the standardized bound of the f64 reference.
  const auto serial = ns.AnswerBatch(b.probes);
  const auto vectorized = ns.AnswerBatchVectorized(b.probes);
  double max_abs = 0.0;
  for (const auto& q : b.probes) {
    max_abs = std::max(max_abs, std::fabs(ns.AnswerScalar(q)));
  }
  const double tol = ns.int8_error_bound() * (1.0 + max_abs);
  for (size_t i = 0; i < b.probes.size(); ++i) {
    const double int8_answer = ns.Answer(b.probes[i]);
    const double f64_answer = ns.AnswerScalar(b.probes[i]);
    EXPECT_EQ(int8_answer, serial[i]) << "probe " << i;
    EXPECT_EQ(int8_answer, vectorized[i]) << "probe " << i;
    EXPECT_NEAR(int8_answer, f64_answer, tol) << "probe " << i;
  }
}

TEST(PrecisionTest, Int8BlownBoundChainsToF32ThenF64) {
  {
    // Int8 bound blown, f32 bound fine: the chain lands on f32.
    Bench b = MakeBench(82);
    b.cfg.plan_precision = PlanPrecision::kInt8;
    b.cfg.int8_error_bound = 0.0;  // nothing passes: force the demotion
    auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
    ASSERT_TRUE(sketch.ok());
    EXPECT_EQ(sketch.value().plan_precision(), PlanPrecision::kF32);
    EXPECT_FALSE(sketch.value().has_int8_plans());
    EXPECT_TRUE(sketch.value().has_f32_plans());
    EXPECT_GT(sketch.value().int8_max_divergence(), 0.0);  // measured
  }
  {
    // Both narrow bounds blown: the chain bottoms out on the f64 golden
    // reference, bit-identical to the scalar path.
    Bench b = MakeBench(82);
    b.cfg.plan_precision = PlanPrecision::kInt8;
    b.cfg.int8_error_bound = 0.0;
    b.cfg.f32_error_bound = 0.0;
    auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
    ASSERT_TRUE(sketch.ok());
    const NeuroSketch& ns = sketch.value();
    EXPECT_EQ(ns.plan_precision(), PlanPrecision::kF64);
    EXPECT_FALSE(ns.has_int8_plans());
    EXPECT_FALSE(ns.has_f32_plans());
    for (const auto& q : b.probes) {
      EXPECT_EQ(ns.Answer(q), ns.AnswerScalar(q));
    }
  }
}

TEST(PrecisionTest, EnableInt8RefusesEmptyValidation) {
  Bench b = MakeBench(83);
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  // No calibration coverage at all -> int8 must not activate. A non-int8
  // serving tier (f64, or the tier a forced CI matrix trained) is left
  // untouched; a previously active int8 tier is dropped rather than kept
  // serving bits the failed re-validation no longer vouches for.
  const PlanPrecision before = sketch.value().plan_precision();
  EXPECT_FALSE(sketch.value().EnableInt8(
      {}, NeuroSketchConfig().int8_error_bound));
  EXPECT_NE(sketch.value().plan_precision(), PlanPrecision::kInt8);
  if (before != PlanPrecision::kInt8) {
    EXPECT_EQ(sketch.value().plan_precision(), before);
  }
  EXPECT_FALSE(sketch.value().has_int8_plans());
}

// A layer whose input is identically zero (dead first layer) has a
// zero-range calibration: its activations quantize to all zeros and the
// layer degenerates to act(bias), matching the f64 reference up to the
// f32 bias cast.
TEST(PrecisionTest, Int8ZeroRangeLayerDegeneratesToBias) {
  nn::MlpConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden = {8, 4};
  nn::Mlp model(cfg, 7);
  // Kill layer 0: zero weights and bias -> its ReLU output is exactly 0,
  // so layer 1 calibrates a zero range.
  model.layers()[0].weight().Zero();
  model.layers()[0].bias().Zero();
  nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);

  nn::Workspace ws;
  std::vector<double> absmax(plan.layers().size(), 0.0);
  Rng rng(19);
  std::vector<std::vector<double>> calib;
  for (int i = 0; i < 32; ++i) {
    std::vector<double> x(3);
    for (double& v : x) v = rng.Uniform(-1.0, 1.0);
    plan.CalibrateOne(x.data(), &ws, absmax.data());
    calib.push_back(std::move(x));
  }
  ASSERT_GT(absmax[0], 0.0);
  EXPECT_EQ(absmax[1], 0.0) << "dead layer must calibrate a zero range";

  nn::CompiledMlpI8 i8 = nn::CompiledMlpI8::FromPlan(plan, absmax);
  for (const auto& x : calib) {
    const double got = i8.PredictOne(x.data(), &ws);
    const double want = plan.PredictOne(x.data(), &ws);
    EXPECT_TRUE(std::isfinite(got));
    // Everything downstream of the dead layer is a bias chain; the only
    // divergence left is the f64 -> f32 bias narrowing.
    EXPECT_NEAR(got, want, 1e-5);
  }
}

// Serve-time activations beyond the calibrated range saturate at the
// +/-127 quantization boundary instead of wrapping: an outlier input
// answers exactly what the boundary input answers.
TEST(PrecisionTest, Int8SaturatingOutliersClampAtCalibrationBoundary) {
  nn::MlpConfig cfg;
  cfg.in_dim = 1;
  cfg.hidden = {};  // single linear output layer
  nn::Mlp model(cfg, 3);
  nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);

  nn::Workspace ws;
  std::vector<double> absmax(plan.layers().size(), 0.0);
  for (double x : {-1.0, 0.25, 1.0}) {
    plan.CalibrateOne(&x, &ws, absmax.data());
  }
  ASSERT_EQ(absmax[0], 1.0);

  nn::CompiledMlpI8 i8 = nn::CompiledMlpI8::FromPlan(plan, absmax);
  const double boundary = 1.0, outlier = 10.0, far_outlier = 1e6;
  const double at_boundary = i8.PredictOne(&boundary, &ws);
  EXPECT_TRUE(std::isfinite(at_boundary));
  EXPECT_EQ(i8.PredictOne(&outlier, &ws), at_boundary);
  EXPECT_EQ(i8.PredictOne(&far_outlier, &ws), at_boundary);
  const double neg = -5.0;
  const double neg_boundary = -1.0;
  EXPECT_EQ(i8.PredictOne(&neg, &ws), i8.PredictOne(&neg_boundary, &ws));
}

// Pins the current *signed* symmetric activation-quantization scheme
// (127 levels per side, step = absmax/127) — including for ReLU layers
// whose activations are non-negative and would fit an unsigned 0..255
// grid with half the step (the deferred ROADMAP item: unsigned ReLU
// activation quantization would roughly halve measured divergence at the
// same width). If that scheme lands, this test is the one that must
// change: the pinned step below halves, and the zero-range / saturating
// behavior must be re-pinned under the new grid (today those edges are
// covered by Int8ZeroRangeLayerDegeneratesToBias and
// Int8SaturatingOutliersClampAtCalibrationBoundary, both of which are
// grid-agnostic on the negative side only for signed grids).
TEST(PrecisionTest, Int8ActivationQuantizationPinnedToSignedGrid) {
  // Identity network: 1 input, single linear layer, weight 1, bias 0.
  // With absmax = 127 the activation multiplier is exactly 127/127 = 1,
  // so PredictOne(x) == round(x) exposes the quantization grid directly.
  nn::MlpConfig cfg;
  cfg.in_dim = 1;
  cfg.hidden = {};
  nn::Mlp model(cfg, 5);
  model.layers()[0].weight()(0, 0) = 1.0;
  model.layers()[0].bias()(0, 0) = 0.0;
  nn::CompiledMlp plan = nn::CompiledMlp::FromMlp(model);
  nn::CompiledMlpI8 i8 = nn::CompiledMlpI8::FromPlan(plan, {127.0});

  nn::Workspace ws;
  // Signed grid: step = absmax/127 = 1.0, symmetric about zero. An
  // unsigned 0..255 grid for the same range would have step 127/255 and
  // these expectations would fail (e.g. 2.4 would quantize near 2.49; the
  // 1e-4 tolerance absorbs only the f32 dequant-multiplier rounding, not
  // a grid change).
  const struct { double in, out; } pinned[] = {
      {0.0, 0.0},  {0.4, 0.0},  {0.6, 1.0},  {2.4, 2.0},   {2.6, 3.0},
      {-0.4, 0.0}, {-0.6, -1.0}, {-2.6, -3.0}, {126.4, 126.0},
  };
  for (const auto& c : pinned) {
    EXPECT_NEAR(i8.PredictOne(&c.in, &ws), c.out, 1e-4) << "input " << c.in;
  }
  // The worst-case rounding error of the signed grid is half a step,
  // absmax/254 — twice what the deferred unsigned scheme would measure on
  // non-negative (ReLU-range) inputs. Pin it from above *and* below so a
  // silent scheme change in either direction trips here.
  double max_err = 0.0;
  for (double x = 0.0; x <= 127.0; x += 0.01) {
    max_err = std::max(max_err, std::fabs(i8.PredictOne(&x, &ws) - x));
  }
  EXPECT_NEAR(max_err, 127.0 / 254.0, 1e-2);
  EXPECT_GT(max_err, 127.0 / 510.0) << "unsigned-grid error bound reached: "
                                       "re-pin this test to the new scheme";
}

TEST(PrecisionTest, Int8PrecisionAndCalibrationSurviveSaveLoad) {
  Bench b = MakeBench(84);
  b.cfg.plan_precision = PlanPrecision::kInt8;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  ASSERT_EQ(sketch.value().plan_precision(), PlanPrecision::kInt8);

  const std::string path = testing::TempDir() + "/ns_int8_roundtrip.bin";
  ASSERT_TRUE(sketch.value().Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded.value().plan_precision(), PlanPrecision::kInt8);
  EXPECT_TRUE(loaded.value().has_int8_plans());
  EXPECT_EQ(loaded.value().int8_max_divergence(),
            sketch.value().int8_max_divergence());
  EXPECT_EQ(loaded.value().int8_error_bound(),
            sketch.value().int8_error_bound());
  for (const auto& q : b.probes) {
    // Re-quantizing the saved f64 parameters with the saved calibration
    // scales is deterministic: the loaded sketch serves the exact same
    // int8 bits, and the f64 reference is untouched.
    EXPECT_EQ(loaded.value().Answer(q), sketch.value().Answer(q));
    EXPECT_EQ(loaded.value().AnswerScalar(q), sketch.value().AnswerScalar(q));
  }
}

TEST(PrecisionTest, InactiveInt8TierSurvivesSaveLoad) {
  Bench b = MakeBench(85);
  b.cfg.plan_precision = PlanPrecision::kInt8;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  NeuroSketch& ns = sketch.value();
  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kInt8);
  const double int8_answer = ns.Answer(b.probes[0]);

  // Serve the reference tier for a while, then Save: the validated int8
  // plans (and their calibration) must survive the round-trip.
  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF64).ok());
  const std::string path = testing::TempDir() + "/ns_inactive_int8.bin";
  ASSERT_TRUE(ns.Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded.value().plan_precision(), PlanPrecision::kF64);
  EXPECT_TRUE(loaded.value().has_int8_plans());
  EXPECT_EQ(loaded.value().Answer(b.probes[0]),
            loaded.value().AnswerScalar(b.probes[0]));
  ASSERT_TRUE(loaded.value().SelectPrecision(PlanPrecision::kInt8).ok());
  EXPECT_EQ(loaded.value().Answer(b.probes[0]), int8_answer);
}

TEST(PrecisionTest, StoreListingReportsInt8Precision) {
  Bench b = MakeBench(86);
  b.cfg.plan_precision = PlanPrecision::kInt8;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  ASSERT_EQ(sketch.value().plan_precision(), PlanPrecision::kInt8);

  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  serve::SketchStore store;
  ASSERT_TRUE(store.Register("uni", spec, std::move(sketch).value()).ok());
  const auto listings = store.List();
  ASSERT_EQ(listings.size(), 1u);
  EXPECT_EQ(listings[0].precision, PlanPrecision::kInt8);
  EXPECT_TRUE(listings[0].compiled);
}

TEST(PrecisionTest, StoreListingReportsPrecision) {
  Bench b = MakeBench(98);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  ASSERT_EQ(sketch.value().plan_precision(), PlanPrecision::kF32);

  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  serve::SketchStore store;
  ASSERT_TRUE(store.Register("uni", spec, std::move(sketch).value()).ok());
  const auto listings = store.List();
  ASSERT_EQ(listings.size(), 1u);
  EXPECT_EQ(listings[0].precision, PlanPrecision::kF32);
  EXPECT_TRUE(listings[0].compiled);
}

}  // namespace
}  // namespace neurosketch
