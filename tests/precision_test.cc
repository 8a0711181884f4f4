// Tests for the opt-in f32 compiled-plan tier: activation under the error
// bound, automatic fallback to f64 when the bound is blown, bitwise f64
// golden behavior at the default precision, precision surviving
// serialization, tier switching, serialized-size accounting (SizeBytes()
// == bytes Save() writes), and loading images written with the retired
// int8 tier's calibration block.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/neurosketch.h"
#include "data/generators.h"
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
  if (ForceF32PlansFromEnv()) {
    GTEST_SKIP() << "NEUROSKETCH_FORCE_F32_PLANS upgrades the default tier";
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
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  NeuroSketch& ns = sketch.value();
  if (!ns.has_f32_plans()) {
    ASSERT_TRUE(ns.EnableF32(b.train_q, 1.0));
  }
  const std::vector<QueryInstance>& probes = b.probes;
  size_t tiers = 0;
  for (PlanPrecision tier : {PlanPrecision::kF64, PlanPrecision::kF32}) {
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
  EXPECT_EQ(tiers, 2u);
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
  for (PlanPrecision p : {PlanPrecision::kF64, PlanPrecision::kF32}) {
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

// ------------------------------------------------------ legacy int8 images

std::string SaveToString(const NeuroSketch& ns) {
  std::ostringstream out;
  EXPECT_TRUE(ns.SaveTo(&out).ok());
  return out.str();
}

Result<NeuroSketch> LoadFromString(const std::string& image) {
  std::istringstream in(image);
  return NeuroSketch::LoadFrom(&in);
}

// Rewrites a current image the way the retired int8 tier wrote it: trailer
// bits 2 (int8 active) and 3 (int8 carried) set, `clear` bits cleared, and
// the calibration block appended — the int8 bound, its measured
// divergence, then per leaf a layer count and that many per-layer absmax
// doubles. Leaf 0 is uncovered (0 layers); leaf 1 claims `nl_skew` more
// layers than its model has.
std::string WithLegacyInt8Block(const std::string& image, const NeuroSketch& ns,
                                const NeuroSketchConfig& cfg, uint32_t clear,
                                uint64_t nl_skew = 0) {
  std::string out = image;
  // The trailer ends the image: magic, precision word, f32 bound, f32
  // divergence.
  const size_t word = out.size() - 2 * sizeof(double) - sizeof(uint32_t);
  uint32_t precision;
  std::memcpy(&precision, out.data() + word, sizeof(precision));
  precision = (precision & ~clear) | 4u | 8u;
  std::memcpy(&out[word], &precision, sizeof(precision));
  auto put = [&out](const auto& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(0.25);
  put(0.12);
  const uint64_t layers = nn::MlpConfig::Paper(ns.query_dim(), cfg.n_layers,
                                               cfg.l_first, cfg.l_rest)
                              .hidden.size() +
                          1;
  for (size_t leaf = 0; leaf < ns.num_partitions(); ++leaf) {
    const uint64_t nl = leaf == 0 ? 0 : layers + (leaf == 1 ? nl_skew : 0);
    put(nl);
    for (uint64_t l = 0; l < nl; ++l) put(0.5 + static_cast<double>(l));
  }
  return out;
}

TEST(PrecisionTest, LegacyInt8ImagesLoadOnF32OrF64) {
  for (PlanPrecision p : {PlanPrecision::kF64, PlanPrecision::kF32}) {
    SCOPED_TRACE(PlanPrecisionName(p));
    Bench b = MakeBench(88);
    b.cfg.plan_precision = p;
    auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
    ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
    const NeuroSketch& src = sketch.value();
    if (p == PlanPrecision::kF32) {
      ASSERT_EQ(src.plan_precision(), PlanPrecision::kF32);
    }
    ASSERT_GE(src.num_partitions(), 2u);
    const std::string image = SaveToString(src);
    // clear = 1: an int8-active image, whose f32-active bit was never
    // set; bit 1 alone (f32 carried) must put it on f32.
    for (uint32_t clear : {0u, 1u}) {
      SCOPED_TRACE(clear);
      const std::string legacy =
          WithLegacyInt8Block(image, src, b.cfg, clear);
      ASSERT_GT(legacy.size(), image.size());
      auto loaded = LoadFromString(legacy);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      const NeuroSketch& ns = loaded.value();
      EXPECT_EQ(ns.plan_precision(), src.plan_precision());
      EXPECT_EQ(ns.has_f32_plans(), src.has_f32_plans());
      for (const auto& q : b.probes) {
        const double got = ns.Answer(q), want = src.Answer(q);
        if (std::isnan(want)) {
          EXPECT_TRUE(std::isnan(got));
        } else {
          EXPECT_EQ(got, want);
        }
      }
      // Re-saving drops the calibration block: the image is the source's
      // own, byte for byte, and SizeBytes() accounts for exactly it.
      const std::string resaved = SaveToString(ns);
      EXPECT_EQ(resaved, image);
      EXPECT_EQ(ns.SizeBytes(), resaved.size());
    }
  }
}

TEST(PrecisionTest, LegacyInt8BlockIsValidated) {
  Bench b = MakeBench(89);
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const NeuroSketch& src = sketch.value();
  ASSERT_GE(src.num_partitions(), 2u);
  const std::string image = SaveToString(src);
  const std::string legacy = WithLegacyInt8Block(image, src, b.cfg, 0u);

  // Every cut inside the calibration block is a truncated image.
  for (size_t cut = image.size(); cut < legacy.size(); ++cut) {
    auto loaded = LoadFromString(legacy.substr(0, cut));
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError) << "cut at " << cut;
  }

  // A layer count that does not match the leaf's model is rejected.
  for (uint64_t skew : {uint64_t{1}, ~uint64_t{0}}) {
    auto loaded = LoadFromString(
        WithLegacyInt8Block(image, src, b.cfg, 0u, /*nl_skew=*/skew));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace neurosketch
