// The construction determinism contract: every phase of NeuroSketch::Train
// — kd-tree partition/merge, per-leaf training, and the f32 validate
// replay — runs on the shared pool under NeuroSketchConfig::train_threads,
// and the resulting sketch must be bit-identical for every thread count.
// This battery builds at train_threads ∈ {1, 2, hw} and pins partitions
// (routing encoding and leaf query sets), per-leaf model parameters
// (serialized bytes), per-leaf AQC, the f32 validation record, and every
// served answer, against the serial build. It extends the seeded-determinism pattern of
// inference_plan_test.cc from the training phase to the whole pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/neurosketch.h"
#include "core/partitioner.h"
#include "index/kdtree.h"
#include "util/random.h"

namespace neurosketch {
namespace {

// hw concurrency is spelled 0 throughout the config surface.
constexpr unsigned kHardware = 0;

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string SaveToBytes(const NeuroSketch& sketch, const char* tag) {
  const std::string path =
      testing::TempDir() + "/ns_ctor_parallel_" + tag + ".bin";
  EXPECT_TRUE(sketch.Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

// A synthetic training set large enough (> the kd-tree sequential-build
// cutoff of 2048) that the parallel tree path actually engages, with a
// closed-form target so no exact engine is needed.
void MakeTrainingSet(uint64_t seed, size_t n,
                     std::vector<QueryInstance>* queries,
                     std::vector<double>* answers) {
  Rng rng(seed);
  queries->clear();
  answers->clear();
  for (size_t i = 0; i < n; ++i) {
    const double c = rng.Uniform();
    const double r = rng.Uniform(0.0, 0.5);
    queries->push_back(QueryInstance(std::vector<double>{c, r}));
    answers->push_back(std::sin(5.0 * c) * (1.0 + r) + 0.3 * c * c);
  }
}

NeuroSketchConfig MakeConfig(uint64_t seed, size_t train_threads,
                             PlanPrecision precision) {
  NeuroSketchConfig cfg;
  cfg.tree_height = 4;       // 16 initial leaves...
  cfg.target_partitions = 8; // ...so the AQC merge loop engages
  cfg.n_layers = 3;
  cfg.l_first = 16;
  cfg.l_rest = 12;
  cfg.train.epochs = 8;
  cfg.seed = seed;
  cfg.train_threads = train_threads;
  cfg.plan_precision = precision;
  return cfg;
}

// ---------------------------------------------------------------- kd-tree

TEST(ConstructionParallelTest, KdTreeParallelBuildBitIdentical) {
  for (size_t dim : {2u, 4u}) {
    Rng rng(600 + dim);
    std::vector<QueryInstance> queries;
    for (int i = 0; i < 6000; ++i) {
      std::vector<double> v(dim);
      for (double& x : v) x = rng.Uniform();
      queries.emplace_back(std::move(v));
    }
    for (size_t height : {3u, 5u}) {
      auto serial = QuerySpaceKdTree::Build(queries, height, 1);
      const auto serial_routing = serial.EncodeRouting();
      const auto serial_leaves = serial.Leaves();
      for (size_t parallelism : {2u, 3u, kHardware}) {
        auto parallel = QuerySpaceKdTree::Build(queries, height, parallelism);
        // Same split dims/values and leaf ids, in the same pre-order.
        EXPECT_EQ(parallel.EncodeRouting(), serial_routing)
            << "dim=" << dim << " height=" << height
            << " parallelism=" << parallelism;
        // Same leaf boundaries: each leaf owns the identical ordered set
        // of training-query ids.
        const auto leaves = parallel.Leaves();
        ASSERT_EQ(leaves.size(), serial_leaves.size());
        for (size_t l = 0; l < leaves.size(); ++l) {
          EXPECT_EQ(leaves[l]->query_ids, serial_leaves[l]->query_ids)
              << "leaf " << l << " parallelism " << parallelism;
        }
      }
    }
  }
}

TEST(ConstructionParallelTest, PartitionMergeBitIdenticalAcrossThreads) {
  std::vector<QueryInstance> queries;
  std::vector<double> answers;
  MakeTrainingSet(610, 4000, &queries, &answers);
  PartitionConfig pc;
  pc.tree_height = 4;
  pc.target_leaves = 6;  // forces several AQC-guided merge rounds
  pc.num_threads = 1;
  PartitionResult serial = PartitionQuerySpace(queries, answers, pc);
  const auto serial_routing = serial.tree.EncodeRouting();
  for (size_t threads : {2u, kHardware}) {
    pc.num_threads = threads;
    PartitionResult parallel = PartitionQuerySpace(queries, answers, pc);
    EXPECT_EQ(parallel.tree.EncodeRouting(), serial_routing)
        << "threads=" << threads;
    ASSERT_EQ(parallel.leaf_aqc.size(), serial.leaf_aqc.size());
    for (size_t i = 0; i < serial.leaf_aqc.size(); ++i) {
      // Bitwise: the AQC pair sums are computed per leaf in query order
      // regardless of which pool thread runs the leaf.
      EXPECT_EQ(parallel.leaf_aqc[i], serial.leaf_aqc[i]) << "leaf " << i;
    }
  }
}

// ------------------------------------------------------------ full builds

// End-to-end: serial reference build at train_threads = 1, then the same
// build at 2 and hw threads must reproduce every observable bit.
void ExpectBitIdenticalBuilds(PlanPrecision precision, uint64_t seed) {
  std::vector<QueryInstance> queries;
  std::vector<double> answers;
  MakeTrainingSet(seed, 3000, &queries, &answers);
  std::vector<QueryInstance> probes;
  std::vector<double> probe_answers_unused;
  MakeTrainingSet(seed + 1, 300, &probes, &probe_answers_unused);

  auto serial = NeuroSketch::Train(queries, answers,
                                   MakeConfig(seed, 1, precision));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string serial_bytes = SaveToBytes(serial.value(), "serial");
  const auto serial_routing = serial.value().tree().EncodeRouting();

  for (size_t threads : {2u, kHardware}) {
    auto parallel = NeuroSketch::Train(queries, answers,
                                       MakeConfig(seed, threads, precision));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    const NeuroSketch& p = parallel.value();
    const NeuroSketch& s = serial.value();

    // Partition: identical routing tree and per-leaf AQC.
    EXPECT_EQ(p.tree().EncodeRouting(), serial_routing)
        << "threads=" << threads;
    EXPECT_EQ(p.num_partitions(), s.num_partitions());
    ASSERT_EQ(p.stats().leaf_aqc.size(), s.stats().leaf_aqc.size());
    for (size_t i = 0; i < s.stats().leaf_aqc.size(); ++i) {
      EXPECT_EQ(p.stats().leaf_aqc[i], s.stats().leaf_aqc[i]) << "leaf " << i;
    }

    // Tier selection and validation records: bitwise.
    EXPECT_EQ(p.plan_precision(), s.plan_precision());
    EXPECT_EQ(p.f32_max_divergence(), s.f32_max_divergence());
    EXPECT_EQ(p.f32_error_bound(), s.f32_error_bound());

    // Per-leaf parameters, scales, routing, trailer: the serialized form
    // captures all of them — demand byte equality.
    EXPECT_EQ(p.SizeBytes(), s.SizeBytes());
    EXPECT_EQ(SaveToBytes(p, "parallel"), serial_bytes)
        << "threads=" << threads;

    // And the sketch serves the same bits.
    for (const auto& q : probes) {
      EXPECT_EQ(p.Answer(q), s.Answer(q));
      EXPECT_EQ(p.AnswerScalar(q), s.AnswerScalar(q));
    }
  }
}

TEST(ConstructionParallelTest, F64BuildBitIdenticalAcrossThreadCounts) {
  ExpectBitIdenticalBuilds(PlanPrecision::kF64, 620);
}

TEST(ConstructionParallelTest, F32BuildBitIdenticalAcrossThreadCounts) {
  ExpectBitIdenticalBuilds(PlanPrecision::kF32, 630);
}

// ------------------------------------------------- post-hoc Enable passes

// EnableF32 on an already-trained sketch: the sharded validation replay
// must reproduce the serial record bit-for-bit. Training is deterministic, so two builds of
// the same config are interchangeable serial/parallel subjects.
TEST(ConstructionParallelTest, EnableTiersParallelMatchesSerial) {
  std::vector<QueryInstance> queries;
  std::vector<double> answers;
  MakeTrainingSet(650, 3000, &queries, &answers);
  const NeuroSketchConfig cfg = MakeConfig(650, 1, PlanPrecision::kF64);

  for (size_t threads : {2u, kHardware}) {
    auto a = NeuroSketch::Train(queries, answers, cfg);
    auto b = NeuroSketch::Train(queries, answers, cfg);
    ASSERT_TRUE(a.ok() && b.ok());

    const double bound_f32 = NeuroSketchConfig().f32_error_bound;
    ASSERT_TRUE(a.value().EnableF32(queries, bound_f32, /*num_threads=*/1));
    ASSERT_TRUE(b.value().EnableF32(queries, bound_f32, threads));
    EXPECT_EQ(b.value().f32_max_divergence(), a.value().f32_max_divergence())
        << "threads=" << threads;
    EXPECT_EQ(SaveToBytes(b.value(), "enable_b"),
              SaveToBytes(a.value(), "enable_a"))
        << "threads=" << threads;
  }
}

// ------------------------------------------------------------ build stats

TEST(ConstructionParallelTest, PhaseWallTimesPopulatedAtEveryThreadCount) {
  std::vector<QueryInstance> queries;
  std::vector<double> answers;
  MakeTrainingSet(660, 2500, &queries, &answers);
  for (size_t threads : {1u, 2u, kHardware}) {
    auto sketch = NeuroSketch::Train(
        queries, answers, MakeConfig(660, threads, PlanPrecision::kF32));
    ASSERT_TRUE(sketch.ok());
    const auto& stats = sketch.value().stats();
    EXPECT_GT(stats.partition_seconds, 0.0) << "threads=" << threads;
    EXPECT_GT(stats.train_seconds, 0.0) << "threads=" << threads;
    EXPECT_GT(stats.calibrate_seconds, 0.0) << "threads=" << threads;
    EXPECT_EQ(stats.training_queries, queries.size());
  }
}

}  // namespace
}  // namespace neurosketch
