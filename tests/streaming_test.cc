// Streaming ingest + drift-driven online refresh: the concurrency/fault
// battery. Covers the DeltaBuffer publish/snapshot/trim contract, exact
// delta composition against a from-scratch scan for every aggregate, the
// RetrainLeaves bit-identity contract, leaf-granular drift attribution,
// fault-injected refreshes (exception and out-of-bound validation), the
// f32 -> f64 fallback during retrain, NaN-probe accounting in
// DriftMonitor, base-table compaction (StreamingTable swap atomicity, the
// safe fold watermark, controller-triggered folds, bit-identity across a
// compaction), and multi-thread serve+append+refresh+compact races (run
// under TSan in CI next to shard_test/paging_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/drift.h"
#include "core/neurosketch.h"
#include "data/datasets.h"
#include "data/normalizer.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/workload.h"
#include "data/streaming_table.h"
#include "data/table.h"
#include "nn/inference_plan.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "serve/delta_buffer.h"
#include "serve/refresh.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/random.h"

namespace neurosketch {
namespace {

using serve::DeltaBuffer;
using serve::RefreshController;
using serve::RefreshOptions;
using serve::RefreshOutcome;
using serve::RefreshTarget;
using serve::ServeEngine;
using serve::ServeKey;
using serve::ServeOptions;
using serve::ServeResult;
using serve::SketchStore;

QueryFunctionSpec AxisSpec(Aggregate agg, size_t measure) {
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = agg;
  spec.measure_col = measure;
  return spec;
}

NeuroSketchConfig SmallConfig() {
  NeuroSketchConfig cfg;
  cfg.tree_height = 2;
  cfg.target_partitions = 4;
  cfg.n_layers = 3;
  cfg.l_first = 16;
  cfg.l_rest = 8;
  cfg.train.epochs = 30;
  return cfg;
}

/// Bit-exact clone through the serialization round-trip (NeuroSketch is
/// move-only).
NeuroSketch CloneSketch(const NeuroSketch& s) {
  std::stringstream buf;
  Status st = s.SaveTo(&buf);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto loaded = NeuroSketch::LoadFrom(&buf);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

/// Count of `rows` matching (spec, q) — the reference delta correction.
size_t MatchCount(const std::vector<std::vector<double>>& rows,
                  const QueryFunctionSpec& spec, const QueryInstance& q) {
  size_t n = 0;
  for (const auto& r : rows) {
    if (spec.predicate->Matches(q, r.data(), r.size())) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------
// DeltaBuffer unit contract.

TEST(DeltaBufferTest, AppendSnapshotTrimKeepLogicalIndicesStable) {
  DeltaBuffer buf(2, /*chunk_rows=*/4);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.Snap().empty());
  for (int i = 0; i < 10; ++i) {
    buf.Append({static_cast<double>(i), 0.5 * i});
  }
  EXPECT_EQ(buf.size(), 10u);

  DeltaBuffer::Snapshot snap = buf.Snap();
  EXPECT_EQ(snap.begin(), 0u);
  EXPECT_EQ(snap.end(), 10u);
  size_t seen = 0;
  snap.ForEachRow(0, 100, [&](const double* row) {
    EXPECT_DOUBLE_EQ(row[0], static_cast<double>(seen));
    EXPECT_DOUBLE_EQ(row[1], 0.5 * seen);
    ++seen;
  });
  EXPECT_EQ(seen, 10u);

  // Trim drops whole chunks strictly below the watermark (chunk_rows=4):
  // upto=6 drops exactly rows [0,4).
  EXPECT_EQ(buf.Trim(6), 4u);
  EXPECT_EQ(buf.trimmed(), 4u);
  EXPECT_EQ(buf.size(), 10u);  // logical count is monotone
  DeltaBuffer::Snapshot after = buf.Snap();
  EXPECT_EQ(after.begin(), 4u);
  size_t idx = 4;
  after.ForEachRow(0, 100, [&](const double* row) {
    EXPECT_DOUBLE_EQ(row[0], static_cast<double>(idx));
    ++idx;
  });
  EXPECT_EQ(idx, 10u);

  // The pre-trim snapshot pins its chunks: trimmed rows stay readable.
  seen = 0;
  snap.ForEachRow(0, 10, [&](const double*) { ++seen; });
  EXPECT_EQ(seen, 10u);

  const auto stats = buf.Stats();
  EXPECT_EQ(stats.rows, 6u);
  EXPECT_EQ(stats.trimmed_rows, 4u);
  EXPECT_EQ(stats.appends, 10u);
}

TEST(DeltaBufferTest, ForEachRowWalksEveryRangeAcrossChunkEdges) {
  // Every [from, to) over a 4-row-chunk buffer: starts and ends mid-chunk,
  // exactly on chunk edges, past either end, empty, and after a Trim.
  DeltaBuffer buf(2, /*chunk_rows=*/4);
  {
    size_t visits = 0;
    buf.Snap().ForEachRow(0, 10, [&](const double*) { ++visits; });
    EXPECT_EQ(visits, 0u);  // empty buffer
  }
  for (int i = 0; i < 23; ++i) {
    buf.Append({static_cast<double>(i), -static_cast<double>(i)});
  }
  auto check_all_ranges = [](const DeltaBuffer::Snapshot& snap) {
    for (size_t from = 0; from <= snap.end() + 2; ++from) {
      for (size_t to = 0; to <= snap.end() + 2; ++to) {
        const size_t lo = std::max(from, snap.begin());
        const size_t hi = std::min(to, snap.end());
        size_t next = lo;
        snap.ForEachRow(from, to, [&](const double* row) {
          ASSERT_EQ(row[0], static_cast<double>(next));
          ASSERT_EQ(row[1], -static_cast<double>(next));
          ++next;
        });
        EXPECT_EQ(next, hi > lo ? hi : lo) << "from " << from << " to " << to;
      }
    }
  };
  check_all_ranges(buf.Snap());
  EXPECT_EQ(buf.Trim(9), 8u);  // chunk_base moves to logical row 8
  const DeltaBuffer::Snapshot trimmed = buf.Snap();
  EXPECT_EQ(trimmed.begin(), 8u);
  check_all_ranges(trimmed);
}

TEST(DeltaBufferTest, ConcurrentAppendersPublishOnlyWholeRows) {
  DeltaBuffer buf(3, /*chunk_rows=*/8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&buf, w] {
      for (int i = 0; i < 400; ++i) {
        const double v = 1.0 + w * 1000 + i;
        buf.Append({v, 2.0 * v, 3.0 * v});
      }
    });
  }
  // Readers must never observe a half-written row: every published row is
  // internally consistent (release/acquire on the size).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      DeltaBuffer::Snapshot snap = buf.Snap();
      snap.ForEachRow(snap.begin(), snap.end(), [](const double* row) {
        ASSERT_GT(row[0], 0.0);
        ASSERT_DOUBLE_EQ(row[1], 2.0 * row[0]);
        ASSERT_DOUBLE_EQ(row[2], 3.0 * row[0]);
      });
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(buf.size(), 1200u);
}

// ---------------------------------------------------------------------
// Composition exactness, exact path: with no sketch registered, every
// served answer over a streaming dataset must be BIT-IDENTICAL to a
// from-scratch exact scan of the appended table, for every aggregate —
// including the order-dependent ones (Welford STD, MEDIAN).

class StreamingExactSweep : public testing::TestWithParam<Aggregate> {};

TEST_P(StreamingExactSweep, ServeEqualsFromScratchScanOfAppendedTable) {
  const Aggregate agg = GetParam();
  Dataset ds = MakeGmmDataset(1200, 3, 3, /*seed=*/41);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  const QueryFunctionSpec spec = AxisSpec(agg, ds.measure_col);
  ExactEngine engine(&base);

  WorkloadConfig wc;
  wc.num_active = 2;
  wc.range_frac_lo = 0.1;
  wc.range_frac_hi = 0.4;
  wc.seed = 611 + static_cast<uint64_t>(agg);
  WorkloadGenerator gen(base.num_columns(), wc);
  const auto queries = gen.GenerateMany(30, &engine, &spec);

  // Appended rows: jittered copies of base rows, so predicates match a
  // healthy share of them.
  Rng rng(77);
  std::vector<std::vector<double>> appended;
  for (int i = 0; i < 250; ++i) {
    std::vector<double> row(base.num_columns());
    const size_t src = rng.Index(base.num_rows());
    for (size_t c = 0; c < base.num_columns(); ++c) {
      row[c] = std::clamp(base.at(src, c) + rng.Uniform(-0.05, 0.05), 0.0, 1.0);
    }
    appended.push_back(std::move(row));
  }

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", base.num_columns()).ok());
  ASSERT_TRUE(store.AppendRows("gmm", appended).ok());

  Table merged = base;
  for (const auto& r : appended) ASSERT_TRUE(merged.AppendRow(r).ok());
  ExactEngine merged_engine(&merged);

  ServeOptions so;
  so.num_shards = 2;
  so.batch_window_us = 0.0;
  ServeEngine serve(&store, so);
  size_t with_delta_effect = 0;
  for (const auto& q : queries) {
    const ServeResult got = serve.Answer("gmm", spec, q);
    const double want = merged_engine.Answer(spec, q);
    EXPECT_FALSE(got.used_sketch);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got.value));
    } else {
      EXPECT_EQ(got.value, want) << AggregateName(agg);
    }
    if (want != engine.Answer(spec, q)) ++with_delta_effect;
  }
  // The sweep must actually exercise the delta, not vacuously pass.
  EXPECT_GT(with_delta_effect, 0u) << AggregateName(agg);
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, StreamingExactSweep,
    testing::Values(Aggregate::kCount, Aggregate::kSum, Aggregate::kAvg,
                    Aggregate::kStd, Aggregate::kMedian, Aggregate::kMin,
                    Aggregate::kMax),
    [](const testing::TestParamInfo<Aggregate>& info) {
      return AggregateName(info.param);
    });

// ---------------------------------------------------------------------
// Composition on the sketch path: decomposable aggregates stay on the
// sketch and gain an exact scalar correction; non-decomposable aggregates
// with matching unfolded rows are recomputed exactly; queries the delta
// does not touch serve the untouched sketch answer bit-for-bit.

TEST(StreamingSketchPathTest, DecomposableCorrectedNonDecomposableExact) {
  Dataset ds = MakeGmmDataset(1500, 3, 3, /*seed=*/52);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  ExactEngine engine(&base);
  const QueryFunctionSpec count_spec = AxisSpec(Aggregate::kCount, ds.measure_col);
  const QueryFunctionSpec avg_spec = AxisSpec(Aggregate::kAvg, ds.measure_col);

  NeuroSketchConfig cfg = SmallConfig();
  WorkloadConfig wc;
  wc.num_active = 2;
  wc.seed = 7;
  WorkloadGenerator gen(base.num_columns(), wc);
  const auto train_q = gen.GenerateMany(400, &engine, &count_spec);

  auto count_sketch = NeuroSketch::Train(
      train_q, engine.AnswerBatch(count_spec, train_q), cfg);
  ASSERT_TRUE(count_sketch.ok()) << count_sketch.status().ToString();
  auto avg_sketch =
      NeuroSketch::Train(train_q, engine.AnswerBatch(avg_spec, train_q), cfg);
  ASSERT_TRUE(avg_sketch.ok()) << avg_sketch.status().ToString();

  auto count_sp = std::make_shared<const NeuroSketch>(
      std::move(count_sketch).value());
  auto avg_sp =
      std::make_shared<const NeuroSketch>(std::move(avg_sketch).value());

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", count_spec, count_sp).ok());
  ASSERT_TRUE(store.Register("gmm", avg_spec, avg_sp).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", base.num_columns()).ok());

  // Appends clustered in the middle of the domain so some queries match
  // delta rows and others provably match none.
  Rng rng(88);
  std::vector<std::vector<double>> appended;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> row(base.num_columns());
    for (size_t c = 0; c < base.num_columns(); ++c) {
      row[c] = rng.Uniform(0.45, 0.55);
    }
    appended.push_back(std::move(row));
  }
  ASSERT_TRUE(store.AppendRows("gmm", appended).ok());

  Table merged = base;
  for (const auto& r : appended) ASSERT_TRUE(merged.AppendRow(r).ok());
  ExactEngine merged_engine(&merged);

  WorkloadConfig qc = wc;
  qc.seed = 901;
  WorkloadGenerator qgen(base.num_columns(), qc);
  const auto queries = qgen.GenerateMany(40, &engine, &count_spec);

  ServeOptions so;
  so.num_shards = 2;
  so.batch_window_us = 0.0;
  ServeEngine serve(&store, so);

  size_t corrected = 0, exact_recomputed = 0, untouched = 0;
  for (const auto& q : queries) {
    const size_t matched = MatchCount(appended, count_spec, q);
    // COUNT (decomposable): serve answer == sketch answer + exact delta
    // match count, bit-for-bit, and the answer stays a sketch answer.
    const ServeResult c = serve.Answer("gmm", count_spec, q);
    EXPECT_TRUE(c.used_sketch);
    EXPECT_EQ(c.value,
              count_sp->Answer(q) + static_cast<double>(matched));
    // AVG (non-decomposable): with matching delta rows the serve answer
    // is recomputed exactly over base+delta; with none it is the sketch
    // answer untouched.
    const ServeResult a = serve.Answer("gmm", avg_spec, q);
    if (matched > 0) {
      EXPECT_FALSE(a.used_sketch);
      EXPECT_EQ(a.value, merged_engine.Answer(avg_spec, q));
      ++exact_recomputed;
      ++corrected;
    } else {
      EXPECT_TRUE(a.used_sketch);
      EXPECT_EQ(a.value, avg_sp->Answer(q));
      ++untouched;
    }
  }
  EXPECT_GT(corrected, 0u);
  EXPECT_GT(exact_recomputed, 0u);
  EXPECT_GT(untouched, 0u);

  const auto stats = serve.Snapshot();
  EXPECT_GT(stats.delta_corrected_answers, 0u);
  EXPECT_EQ(stats.delta_exact_answers, exact_recomputed);
  // The composition counters add up across scopes: engine total == sum
  // of shards == sum of stores.
  for (uint64_t serve::ServeCounts::*field :
       {&serve::ServeCounts::delta_corrected_answers,
        &serve::ServeCounts::delta_exact_answers}) {
    uint64_t shard_sum = 0, store_sum = 0;
    for (const auto& sd : stats.per_shard) shard_sum += sd.*field;
    for (const auto& ss : stats.per_store) store_sum += ss.*field;
    EXPECT_EQ(shard_sum, stats.*field);
    EXPECT_EQ(store_sum, stats.*field);
  }
}

// Tier coverage: the composition contract holds on the f32 tier too — the
// correction applies to whatever the tier answered.
TEST(StreamingSketchPathTest, CompositionHoldsOnNarrowTiers) {
  Dataset ds = MakeGmmDataset(1200, 3, 3, /*seed=*/53);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  ExactEngine engine(&base);
  const QueryFunctionSpec spec = AxisSpec(Aggregate::kCount, ds.measure_col);

  WorkloadConfig wc;
  wc.num_active = 2;
  wc.seed = 8;
  WorkloadGenerator gen(base.num_columns(), wc);
  const auto train_q = gen.GenerateMany(400, &engine, &spec);
  const auto train_a = engine.AnswerBatch(spec, train_q);

  NeuroSketchConfig cfg = SmallConfig();
  cfg.plan_precision = PlanPrecision::kF32;
  auto sk = NeuroSketch::Train(train_q, train_a, cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  auto sp = std::make_shared<const NeuroSketch>(std::move(sk).value());

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", spec, sp).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", base.num_columns()).ok());
  std::vector<std::vector<double>> appended;
  Rng rng(99);
  for (int i = 0; i < 120; ++i) {
    std::vector<double> row(base.num_columns());
    for (size_t c = 0; c < base.num_columns(); ++c) {
      row[c] = rng.Uniform(0.4, 0.6);
    }
    appended.push_back(std::move(row));
  }
  ASSERT_TRUE(store.AppendRows("gmm", appended).ok());

  ServeOptions so;
  so.num_shards = 1;
  so.batch_window_us = 0.0;
  ServeEngine serve(&store, so);
  WorkloadConfig qc = wc;
  qc.seed = 902;
  WorkloadGenerator qgen(base.num_columns(), qc);
  for (const auto& q : qgen.GenerateMany(20, &engine, &spec)) {
    const ServeResult got = serve.Answer("gmm", spec, q);
    EXPECT_TRUE(got.used_sketch);
    EXPECT_EQ(got.value,
              sp->Answer(q) + static_cast<double>(
                                  MatchCount(appended, spec, q)))
        << "tier=" << PlanPrecisionName(sp->plan_precision());
  }
}

// ---------------------------------------------------------------------
// RetrainLeaves bit-identity: retraining leaf L alone must produce exactly
// the parameters a retrain of ALL leaves (same fixed partition, same data)
// produces for L, and must leave every other leaf's answers untouched
// bit-for-bit. SizeBytes() == Save() stays pinned.

TEST(RetrainLeavesTest, PartialRetrainBitIdenticalAndPreservesUntouched) {
  Dataset ds = MakeGmmDataset(1500, 3, 3, /*seed=*/61);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  ExactEngine engine(&base);
  const QueryFunctionSpec spec = AxisSpec(Aggregate::kAvg, ds.measure_col);
  NeuroSketchConfig cfg = SmallConfig();

  WorkloadConfig wc;
  wc.num_active = 2;
  wc.seed = 9;
  WorkloadGenerator gen(base.num_columns(), wc);
  const auto train_q = gen.GenerateMany(400, &engine, &spec);
  auto trained =
      NeuroSketch::Train(train_q, engine.AnswerBatch(spec, train_q), cfg);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  NeuroSketch original = std::move(trained).value();
  ASSERT_GE(original.num_partitions(), 2u);

  // New data: append shifted rows, rebuild the training answers.
  Table merged = base;
  Rng rng(62);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> row(base.num_columns());
    for (size_t c = 0; c < base.num_columns(); ++c) row[c] = rng.Uniform();
    ASSERT_TRUE(merged.AppendRow(row).ok());
  }
  ExactEngine merged_engine(&merged);
  const auto new_a = merged_engine.AnswerBatch(spec, train_q);

  NeuroSketch partial = CloneSketch(original);
  NeuroSketch full = CloneSketch(original);
  std::vector<int> all_leaves;
  for (size_t i = 0; i < original.num_partitions(); ++i) {
    all_leaves.push_back(static_cast<int>(i));
  }
  const std::vector<int> subset = {all_leaves.front()};
  ASSERT_TRUE(partial.RetrainLeaves(subset, train_q, new_a, cfg).ok());
  ASSERT_TRUE(full.RetrainLeaves(all_leaves, train_q, new_a, cfg).ok());

  WorkloadConfig pc = wc;
  pc.seed = 63;
  WorkloadGenerator pgen(base.num_columns(), pc);
  size_t on_subset = 0, off_subset = 0;
  for (const auto& q : pgen.GenerateMany(200, &engine, &spec)) {
    const auto* leaf = original.tree().Route(q);
    ASSERT_NE(leaf, nullptr);
    if (leaf->leaf_id == subset.front()) {
      // Retrained leaf: bit-identical to the all-leaves retrain (per-leaf
      // training is independent given the fixed partition).
      EXPECT_EQ(partial.Answer(q), full.Answer(q));
      ++on_subset;
    } else {
      // Untouched leaf: bit-identical to the original.
      EXPECT_EQ(partial.Answer(q), original.Answer(q));
      ++off_subset;
    }
  }
  EXPECT_GT(on_subset, 0u);
  EXPECT_GT(off_subset, 0u);

  // Storage-accounting invariant survives the partial retrain.
  const std::string path = "streaming_retrain_size_check.nsk";
  ASSERT_TRUE(partial.Save(path).ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  EXPECT_EQ(static_cast<size_t>(in.tellg()), partial.SizeBytes());
  in.close();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Drift scenario shared by the attribution and fault-injection tests: a
// trained COUNT sketch plus appended rows constructed to match probes of
// exactly ONE kd-tree leaf.

struct DriftScenario {
  Table base;
  std::unique_ptr<ExactEngine> engine;
  QueryFunctionSpec spec;
  NeuroSketchConfig cfg;
  std::vector<QueryInstance> train_q;
  std::vector<QueryInstance> probes;
  std::shared_ptr<const NeuroSketch> sketch;
  DriftPolicy policy;
  int target_leaf = -1;
  std::vector<std::vector<double>> drift_rows;  // expanded (with copies)

  /// Built once and shared read-only: training the sketch is the
  /// expensive step and five tests consume the same scenario (each builds
  /// its own store / serve engine / controller on top).
  static const DriftScenario& Shared() {
    static std::unique_ptr<DriftScenario> s = Make();
    return *s;
  }

  static std::unique_ptr<DriftScenario> Make() {
    auto s = std::make_unique<DriftScenario>();
    Dataset ds = MakeGmmDataset(1500, 3, 3, /*seed=*/91);
    s->base = Normalizer::Fit(ds.table).Transform(ds.table);
    s->engine = std::make_unique<ExactEngine>(&s->base);
    s->spec = AxisSpec(Aggregate::kCount, ds.measure_col);
    s->cfg = SmallConfig();
    s->cfg.n_layers = 4;
    s->cfg.l_first = 32;
    s->cfg.l_rest = 16;
    s->cfg.train.epochs = 150;

    WorkloadConfig wc;
    wc.num_active = 3;  // every attribute active: probe boxes are compact
    wc.range_frac_lo = 0.3;
    wc.range_frac_hi = 0.6;
    wc.seed = 17;
    WorkloadGenerator gen(s->base.num_columns(), wc);
    s->train_q = gen.GenerateMany(800, s->engine.get(), &s->spec);
    auto trained = NeuroSketch::Train(
        s->train_q, s->engine->AnswerBatch(s->spec, s->train_q), s->cfg);
    EXPECT_TRUE(trained.ok()) << trained.status().ToString();
    s->sketch =
        std::make_shared<const NeuroSketch>(std::move(trained).value());
    EXPECT_GE(s->sketch->num_partitions(), 2u);

    WorkloadConfig pc = wc;
    pc.seed = 29;
    WorkloadGenerator pgen(s->base.num_columns(), pc);
    s->probes = pgen.GenerateMany(120, s->engine.get(), &s->spec);

    // Route the probes; pick the best-covered leaf as the drift target.
    std::map<int, std::vector<size_t>> by_leaf;
    for (size_t i = 0; i < s->probes.size(); ++i) {
      const auto* leaf = s->sketch->tree().Route(s->probes[i]);
      if (leaf != nullptr) by_leaf[leaf->leaf_id].push_back(i);
    }
    for (const auto& [id, members] : by_leaf) {
      if (s->target_leaf < 0 ||
          members.size() > by_leaf[s->target_leaf].size()) {
        s->target_leaf = id;
      }
    }
    EXPECT_GE(by_leaf[s->target_leaf].size(), 3u);

    // Policy: bound well above the trained baseline, well below the
    // injected drift. The scenario is only valid if the fresh sketch
    // clears the bound with margin on every leaf — assert it loudly so a
    // training regression fails here, not in a downstream refresh test.
    s->policy.max_normalized_mae = 0.5;
    s->policy.min_probes = 10;
    s->policy.min_leaf_probes = 3;
    const std::vector<double> base_truth =
        s->engine->AnswerBatch(s->spec, s->probes);
    const DriftReport baseline =
        DriftMonitor(s->spec, s->probes, s->policy)
            .CheckAgainst(*s->sketch, base_truth);
    EXPECT_LT(baseline.normalized_mae, 0.3)
        << "fresh sketch too inaccurate for a drift scenario";
    for (const LeafDrift& l : baseline.per_leaf) {
      EXPECT_LT(l.normalized_mae, 0.4) << "leaf " << l.leaf_id;
    }

    // Drift rows: a smooth distribution shift confined to ONE leaf. Seed
    // points are centers of target-leaf probe boxes; the appended cloud is
    // Gaussian noise around them, reject-sampled so no row matches a probe
    // routed to any other leaf — drift attribution has a unique ground
    // truth, and the drifted count surface stays smooth enough for the
    // partial retrain to fit back inside the policy bound. The cloud is
    // sized by accumulated match mass: when the added matches reach 3x the
    // baseline truth mass S, the post-drift normalized MAE is at least
    // 3S / (S + 3S) = 0.75 against the 0.5 bound, by construction.
    double truth_mass = 0.0;
    for (double t : base_truth) {
      if (!std::isnan(t)) truth_mass += std::abs(t);
    }
    const size_t d = s->base.num_columns();
    std::vector<std::vector<double>> centers;
    for (const size_t pi : by_leaf[s->target_leaf]) {
      const QueryInstance& p = s->probes[pi];
      std::vector<double> row(d);
      for (size_t c = 0; c < d; ++c) {
        row[c] = std::clamp(p.q[c] + 0.5 * p.q[d + c], 0.0, 1.0);
      }
      bool clean = true;
      for (const auto& [id, members] : by_leaf) {
        if (id == s->target_leaf) continue;
        for (const size_t oi : members) {
          if (s->spec.predicate->Matches(s->probes[oi], row.data(), d)) {
            clean = false;
            break;
          }
        }
        if (!clean) break;
      }
      if (clean) centers.push_back(std::move(row));
      if (centers.size() >= 3) break;
    }
    EXPECT_FALSE(centers.empty()) << "no isolatable drift row found";
    if (centers.empty()) return s;
    const std::vector<size_t>& target_probes = by_leaf[s->target_leaf];
    Rng noise(777);
    double added_mass = 0.0;
    const double goal = 3.0 * std::max(truth_mass, 1.0);
    for (size_t iter = 0; added_mass < goal && iter < 2000000; ++iter) {
      const std::vector<double>& center = centers[iter % centers.size()];
      std::vector<double> row(d);
      for (size_t c = 0; c < d; ++c) {
        row[c] = std::clamp(center[c] + noise.Normal(0.0, 0.08), 0.0, 1.0);
      }
      bool clean = true;
      for (const auto& [id, members] : by_leaf) {
        if (id == s->target_leaf) continue;
        for (const size_t oi : members) {
          if (s->spec.predicate->Matches(s->probes[oi], row.data(), d)) {
            clean = false;
            break;
          }
        }
        if (!clean) break;
      }
      if (!clean) continue;
      size_t matched = 0;
      for (const size_t pi : target_probes) {
        if (s->spec.predicate->Matches(s->probes[pi], row.data(), d)) {
          ++matched;
        }
      }
      if (matched == 0) continue;  // harmless but useless: skip
      added_mass += static_cast<double>(matched);
      s->drift_rows.push_back(std::move(row));
    }
    EXPECT_GE(added_mass, goal) << "drift cloud could not reach the "
                                   "target match mass";
    return s;
  }

  RefreshTarget Target() const {
    // Train queries include the probes so a retrained leaf can actually
    // fit the drifted targets the validation gate re-checks.
    std::vector<QueryInstance> tq = train_q;
    tq.insert(tq.end(), probes.begin(), probes.end());
    return RefreshTarget{"gmm", DriftMonitor(spec, probes, policy), cfg,
                         std::move(tq)};
  }
};

TEST(DriftAttributionTest, InjectedShiftFlagsOnlyTheTouchedLeaf) {
  const DriftScenario* s = &DriftScenario::Shared();
  ASSERT_FALSE(s->drift_rows.empty());

  // Baseline: no drift recommended on the unchanged data.
  DriftMonitor monitor(s->spec, s->probes, s->policy);
  const DriftReport before = monitor.Check(*s->sketch, *s->engine);
  EXPECT_TRUE(before.conclusive);
  EXPECT_FALSE(before.retrain_recommended)
      << "baseline normalized MAE " << before.normalized_mae;

  Table merged = s->base;
  for (const auto& r : s->drift_rows) ASSERT_TRUE(merged.AppendRow(r).ok());
  ExactEngine merged_engine(&merged);
  const DriftReport after = monitor.Check(*s->sketch, merged_engine);
  EXPECT_TRUE(after.conclusive);
  EXPECT_TRUE(after.retrain_recommended);
  EXPECT_GT(after.normalized_mae, s->policy.max_normalized_mae);
  const std::vector<int> stale = after.StaleLeaves();
  ASSERT_EQ(stale.size(), 1u) << "drift bled outside the injected leaf";
  EXPECT_EQ(stale.front(), s->target_leaf);
}

TEST(RefreshTest, RefreshRetrainsOnlyFlaggedLeafAndSwapsAtomically) {
  const DriftScenario* s = &DriftScenario::Shared();
  ASSERT_FALSE(s->drift_rows.empty());
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", s->engine.get()).ok());
  ASSERT_TRUE(store.Register("gmm", s->spec, s->sketch).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", s->base.num_columns()).ok());
  ASSERT_TRUE(store.AppendRows("gmm", s->drift_rows).ok());

  RefreshOptions ro;
  ro.probe_threads = 0;  // hardware concurrency; batch results are thread-count invariant
  RefreshController ctrl(&store, nullptr, ro);
  ctrl.AddTarget(s->Target());

  const ServeKey key = ServeKey::From("gmm", s->spec);
  const auto old_sketch = store.Lookup(key);
  auto res = ctrl.RefreshNow("gmm", s->spec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const RefreshOutcome out = res.value();
  EXPECT_TRUE(out.probed);
  EXPECT_TRUE(out.retrained);
  EXPECT_TRUE(out.swapped) << out.message;
  EXPECT_FALSE(out.failed);
  ASSERT_EQ(out.stale_leaves.size(), 1u);
  EXPECT_EQ(out.stale_leaves.front(), s->target_leaf);
  EXPECT_EQ(out.retrained_leaves, 1u);
  EXPECT_GT(out.pre_mae, s->policy.max_normalized_mae);
  EXPECT_LE(out.post_mae, s->policy.max_normalized_mae);

  // The swap landed: a new version serves, the old one is still pinned
  // and usable by in-flight readers.
  const auto view = store.LookupServed(key);
  ASSERT_NE(view.sketch, nullptr);
  EXPECT_NE(view.sketch.get(), old_sketch.get());
  ASSERT_NE(view.leaf_folded, nullptr);
  ASSERT_EQ(view.leaf_folded->size(), view.sketch->num_partitions());
  for (size_t i = 0; i < view.leaf_folded->size(); ++i) {
    if (static_cast<int>(i) == s->target_leaf) {
      EXPECT_EQ((*view.leaf_folded)[i], s->drift_rows.size());
    } else {
      EXPECT_EQ((*view.leaf_folded)[i], 0u);
    }
  }

  // Only the flagged leaf changed: probes routed elsewhere answer
  // bit-identically on old and new versions.
  size_t checked = 0;
  for (const auto& p : s->probes) {
    const auto* leaf = old_sketch->tree().Route(p);
    ASSERT_NE(leaf, nullptr);
    if (leaf->leaf_id == s->target_leaf) continue;
    if (view.sketch->plan_precision() == PlanPrecision::kF64) {
      EXPECT_EQ(view.sketch->Answer(p), old_sketch->Answer(p));
    } else {
      // An env-forced f32 tier re-validates the whole sketch over the
      // refresh workload, so compiled f32 answers may shift on every
      // leaf; the untouched leaves' trainable f64 parameters must not —
      // the scalar path pins that.
      EXPECT_EQ(view.sketch->AnswerScalar(p), old_sketch->AnswerScalar(p));
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);

  const auto stats = ctrl.Stats();
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.retrained_leaves, 1u);
  EXPECT_EQ(stats.failures, 0u);
}

// ---------------------------------------------------------------------
// Fault injection: a refresh that throws must leave the old version
// serving and count a failure; a streak demotes the store to exact.

TEST(RefreshTest, ThrowingRefreshLeavesOldVersionServingThenDemotes) {
  const DriftScenario* s = &DriftScenario::Shared();
  ASSERT_FALSE(s->drift_rows.empty());
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", s->engine.get()).ok());
  ASSERT_TRUE(store.Register("gmm", s->spec, s->sketch).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", s->base.num_columns()).ok());
  ASSERT_TRUE(store.AppendRows("gmm", s->drift_rows).ok());

  ServeOptions so;
  so.num_shards = 2;
  so.batch_window_us = 0.0;
  ServeEngine serve(&store, so);

  RefreshOptions ro;
  ro.probe_threads = 0;  // hardware concurrency; batch results are thread-count invariant
  ro.max_failures_before_demote = 2;
  RefreshController ctrl(&store, &serve, ro);
  ctrl.AddTarget(s->Target());
  ctrl.SetFaultHook(
      [](NeuroSketch*) { throw std::runtime_error("injected fault"); });

  const ServeKey key = ServeKey::From("gmm", s->spec);
  const auto old_sketch = store.Lookup(key);

  auto r1 = ctrl.RefreshNow("gmm", s->spec);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1.value().failed);
  EXPECT_FALSE(r1.value().swapped);
  EXPECT_FALSE(r1.value().demoted);
  EXPECT_EQ(ctrl.Stats().failures, 1u);
  // Old version still serving, answers unchanged.
  EXPECT_EQ(store.Lookup(key).get(), old_sketch.get());
  {
    const ServeResult got = serve.Answer("gmm", s->spec, s->probes.front());
    EXPECT_TRUE(got.used_sketch);
    EXPECT_EQ(got.value,
              old_sketch->Answer(s->probes.front()) +
                  static_cast<double>(MatchCount(s->drift_rows, s->spec,
                                                 s->probes.front())));
  }

  // Second failure crosses the streak: the store demotes to exact.
  auto r2 = ctrl.RefreshNow("gmm", s->spec);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r2.value().failed);
  EXPECT_TRUE(r2.value().demoted);
  EXPECT_EQ(ctrl.Stats().failures, 2u);
  EXPECT_EQ(ctrl.Stats().demotions, 1u);

  // Demoted serving is exact over base+delta (fresh answers, no sketch).
  Table merged = s->base;
  for (const auto& r : s->drift_rows) ASSERT_TRUE(merged.AppendRow(r).ok());
  ExactEngine merged_engine(&merged);
  for (size_t i = 0; i < 5; ++i) {
    const ServeResult got = serve.Answer("gmm", s->spec, s->probes[i]);
    EXPECT_FALSE(got.used_sketch);
    EXPECT_EQ(got.value, merged_engine.Answer(s->spec, s->probes[i]));
  }
  const auto stats = serve.Snapshot();
  EXPECT_GE(stats.budget_trips, 1u);
  bool found = false;
  for (const auto& ss : stats.per_store) {
    if (ss.store.rfind("gmm/", 0) == 0) {
      EXPECT_TRUE(ss.demoted);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(RefreshTest, OutOfBoundRetrainIsRejectedNotSwapped) {
  const DriftScenario* s = &DriftScenario::Shared();
  ASSERT_FALSE(s->drift_rows.empty());
  // On f32 the retrained copy fails the probe gate on the f32 tier, so
  // the controller first demotes it to f64 and re-checks; the f64
  // reference is out of bound too, so the swap is still rejected.
  for (PlanPrecision tier : {PlanPrecision::kF64, PlanPrecision::kF32}) {
    SCOPED_TRACE(PlanPrecisionName(tier));
    SketchStore store;
    ASSERT_TRUE(store.RegisterDataset("gmm", s->engine.get()).ok());
    ASSERT_TRUE(store.Register("gmm", s->spec, s->sketch).ok());
    ASSERT_TRUE(store.EnableStreaming("gmm", s->base.num_columns()).ok());
    ASSERT_TRUE(store.AppendRows("gmm", s->drift_rows).ok());

    RefreshOptions ro;
    ro.probe_threads = 0;  // hardware concurrency; batch results are thread-count invariant
    RefreshController ctrl(&store, nullptr, ro);
    RefreshTarget target = s->Target();
    target.config.plan_precision = tier;
    ctrl.AddTarget(std::move(target));
    // The hook corrupts the retrained copy: every leaf re-fit against
    // garbage targets, so the validation gate must reject the swap.
    NeuroSketchConfig cfg = s->cfg;
    cfg.plan_precision = tier;
    const bool on_f32 = tier == PlanPrecision::kF32 || ForceF32PlansFromEnv();
    ctrl.SetFaultHook([s, cfg, on_f32](NeuroSketch* sk) {
      std::vector<int> all;
      for (size_t i = 0; i < sk->num_partitions(); ++i) {
        all.push_back(static_cast<int>(i));
      }
      std::vector<double> garbage(s->train_q.size(), 1e9);
      const Status st = sk->RetrainLeaves(all, s->train_q, garbage, cfg);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(sk->plan_precision(),
                on_f32 ? PlanPrecision::kF32 : PlanPrecision::kF64);
    });

    const ServeKey key = ServeKey::From("gmm", s->spec);
    const auto old_sketch = store.Lookup(key);
    auto res = ctrl.RefreshNow("gmm", s->spec);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_TRUE(res.value().retrained);
    EXPECT_TRUE(res.value().failed);
    EXPECT_FALSE(res.value().swapped);
    EXPECT_GT(res.value().post_mae, s->policy.max_normalized_mae);
    EXPECT_NE(res.value().message.find("out of bound"), std::string::npos)
        << res.value().message;
    const size_t fallbacks = on_f32 ? 1 : 0;
    EXPECT_EQ(res.value().tier_fallbacks, fallbacks);
    EXPECT_EQ(store.Lookup(key).get(), old_sketch.get());
    EXPECT_EQ(ctrl.Stats().failures, 1u);
    EXPECT_EQ(ctrl.Stats().swaps, 0u);
    EXPECT_EQ(ctrl.Stats().tier_fallbacks, fallbacks);
  }
}

// The store keeps one sketch per key: each refresh swap replaces the
// previous sketch, which lives on only while a reader holds it.
TEST(RefreshTest, RepeatedSwapsKeepOneSketchPerKey) {
  const DriftScenario* s = &DriftScenario::Shared();
  ASSERT_FALSE(s->drift_rows.empty());
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", s->engine.get()).ok());
  ASSERT_TRUE(store.Register("gmm", s->spec, s->sketch).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", s->base.num_columns()).ok());

  RefreshOptions ro;
  ro.probe_threads = 0;  // hardware concurrency; batch results are thread-count invariant
  RefreshController ctrl(&store, nullptr, ro);
  ctrl.AddTarget(s->Target());

  const ServeKey key = ServeKey::From("gmm", s->spec);
  std::shared_ptr<const NeuroSketch> reader;
  std::weak_ptr<const NeuroSketch> superseded;
  constexpr int kSwaps = 3;
  for (int round = 0; round < kSwaps; ++round) {
    SCOPED_TRACE(round);
    // Each round drifts the target leaf further than the last refresh
    // absorbed: 1, 2, then 4 more copies of the drift rows.
    for (int copy = 0; copy < (1 << round); ++copy) {
      ASSERT_TRUE(store.AppendRows("gmm", s->drift_rows).ok());
    }
    auto res = ctrl.RefreshNow("gmm", s->spec);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_TRUE(res.value().swapped)
        << res.value().message << " pre " << res.value().pre_mae << " post "
        << res.value().post_mae << " probed " << res.value().probed;
    EXPECT_EQ(store.num_sketches(), 1u);
    if (round == 0) {
      // The first refreshed sketch: held by the store and this reader.
      reader = store.Lookup(key);
      superseded = reader;
    }
  }
  const auto listings = store.List();
  ASSERT_EQ(listings.size(), 1u);
  EXPECT_EQ(listings[0].version, static_cast<uint64_t>(kSwaps + 1));

  // Superseded, but pinned by the reader; gone once the reader lets go.
  ASSERT_FALSE(superseded.expired());
  EXPECT_NE(store.Lookup(key).get(), reader.get());
  reader.reset();
  EXPECT_TRUE(superseded.expired());
}

// The f32 -> f64 validation fallback during retrain: an impossible f32
// bound must fall back to f64, not fail the refresh.
TEST(RefreshTest, RetrainTierChainFallsBackWithoutFailing) {
  const DriftScenario* s = &DriftScenario::Shared();
  ASSERT_FALSE(s->drift_rows.empty());

  // Rebuild the deployed sketch with an f32 request so it carries the
  // f32 tier into the refresh.
  NeuroSketchConfig cfg = s->cfg;
  cfg.plan_precision = PlanPrecision::kF32;
  auto trained = NeuroSketch::Train(
      s->train_q, s->engine->AnswerBatch(s->spec, s->train_q), cfg);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  auto sp = std::make_shared<const NeuroSketch>(std::move(trained).value());

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", s->engine.get()).ok());
  ASSERT_TRUE(store.Register("gmm", s->spec, sp).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", s->base.num_columns()).ok());
  ASSERT_TRUE(store.AppendRows("gmm", s->drift_rows).ok());

  RefreshOptions ro;
  ro.probe_threads = 0;  // hardware concurrency; batch results are thread-count invariant
  RefreshController ctrl(&store, nullptr, ro);
  RefreshTarget target = s->Target();
  // Unachievable f32 bound: the retrain's re-validation must fall back
  // to f64 and still swap successfully.
  target.config.plan_precision = PlanPrecision::kF32;
  target.config.f32_error_bound = 0.0;
  ctrl.AddTarget(std::move(target));

  auto res = ctrl.RefreshNow("gmm", s->spec);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res.value().swapped) << res.value().message;
  EXPECT_FALSE(res.value().failed);
  const auto view = store.LookupServed(ServeKey::From("gmm", s->spec));
  ASSERT_NE(view.sketch, nullptr);
  EXPECT_EQ(view.sketch->plan_precision(), PlanPrecision::kF64);
  EXPECT_FALSE(view.sketch->has_f32_plans());
}

// ---------------------------------------------------------------------
// DriftMonitor NaN accounting: probes whose exact answer is undefined are
// counted, not silently dropped, and an all-NaN probe set must yield an
// inconclusive report with no retrain recommendation.

TEST(DriftMonitorTest, AllNaNProbesAreCountedAndInconclusive) {
  const DriftScenario* s = &DriftScenario::Shared();
  DriftMonitor monitor(s->spec, s->probes, s->policy);

  // Degenerate truth: every probe undefined.
  const std::vector<double> all_nan(s->probes.size(),
                                    std::nan(""));
  const DriftReport r = monitor.CheckAgainst(*s->sketch, all_nan);
  EXPECT_EQ(r.probes_used, 0u);
  EXPECT_EQ(r.probes_skipped, s->probes.size());
  EXPECT_FALSE(r.conclusive);
  EXPECT_FALSE(r.retrain_recommended);
  EXPECT_TRUE(r.per_leaf.empty());
  EXPECT_TRUE(r.StaleLeaves().empty());

  // Same through the engine path: AVG over an empty table is NaN for
  // every probe.
  Table empty(s->base.schema());
  ExactEngine empty_engine(&empty);
  const QueryFunctionSpec avg = AxisSpec(Aggregate::kAvg, s->spec.measure_col);
  DriftMonitor avg_monitor(avg, s->probes, s->policy);
  const DriftReport re = avg_monitor.Check(*s->sketch, empty_engine);
  EXPECT_EQ(re.probes_used, 0u);
  EXPECT_EQ(re.probes_skipped, s->probes.size());
  EXPECT_FALSE(re.conclusive);
  EXPECT_FALSE(re.retrain_recommended);
}

// ---------------------------------------------------------------------
// The 8-thread race: concurrent submitters, appenders, a background
// refresh loop, and a stats scraper. Run under TSan in CI. Correctness
// here is absence of data races plus conservation of the counters.

TEST(StreamingRaceTest, ServeAppendRefreshSnapshotConcurrently) {
  const DriftScenario* s = &DriftScenario::Shared();
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", s->engine.get()).ok());
  ASSERT_TRUE(store.Register("gmm", s->spec, s->sketch).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", s->base.num_columns()).ok());
  const QueryFunctionSpec avg = AxisSpec(Aggregate::kAvg, s->spec.measure_col);
  WorkloadConfig wc;
  wc.num_active = 2;
  wc.seed = 404;
  WorkloadGenerator gen(s->base.num_columns(), wc);
  const auto avg_train = gen.GenerateMany(300, s->engine.get(), &avg);
  auto avg_trained = NeuroSketch::Train(
      avg_train, s->engine->AnswerBatch(avg, avg_train), s->cfg);
  ASSERT_TRUE(avg_trained.ok());
  ASSERT_TRUE(store
                  .Register("gmm", avg,
                            std::make_shared<const NeuroSketch>(
                                std::move(avg_trained).value()))
                  .ok());

  ServeOptions so;
  so.num_shards = 2;
  so.batch_window_us = 20.0;
  ServeEngine serve(&store, so);

  RefreshOptions ro;
  ro.interval_ms = 5;
  ro.probe_threads = 0;  // hardware concurrency; batch results are thread-count invariant
  RefreshController ctrl(&store, &serve, ro);
  ctrl.AddTarget(s->Target());
  ctrl.Start();

  constexpr int kQueriesPerThread = 150;
  std::atomic<size_t> submitted{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  // 4 submitters (2 per spec): answers must always be finite — the delta
  // path composes exactly, so no NaN can appear for COUNT, and AVG
  // queries were generated with min_matches >= 1 on the base table.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const QueryFunctionSpec& spec = (t % 2 == 0) ? s->spec : avg;
      WorkloadConfig qc;
      qc.num_active = 2;
      qc.seed = 500 + t;
      WorkloadGenerator qgen(s->base.num_columns(), qc);
      auto qs = qgen.GenerateMany(kQueriesPerThread, s->engine.get(), &spec);
      for (auto& q : qs) {
        const ServeResult r = serve.Answer("gmm", spec, std::move(q));
        ASSERT_TRUE(std::isfinite(r.value));
        submitted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // 2 appenders: drift rows plus benign jittered rows.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(600 + t);
      for (int i = 0; i < 400; ++i) {
        if (t == 0 && !s->drift_rows.empty()) {
          ASSERT_TRUE(
              store.Append("gmm", s->drift_rows[i % s->drift_rows.size()])
                  .ok());
        } else {
          std::vector<double> row(s->base.num_columns());
          for (auto& v : row) v = rng.Uniform();
          ASSERT_TRUE(store.Append("gmm", row).ok());
        }
      }
    });
  }
  // 1 old-version pinner: holds the original shared_ptr across swaps and
  // keeps answering on it — refresh must never invalidate it.
  threads.emplace_back([&] {
    const auto pinned = s->sketch;
    size_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      const double v = pinned->Answer(s->probes[i % s->probes.size()]);
      ASSERT_TRUE(std::isfinite(v));
      ++i;
    }
  });
  // 1 scraper: snapshots, delta stats, refresh stats, metric export.
  threads.emplace_back([&] {
    metrics::MetricsRegistry registry;
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = serve.Snapshot();
      ASSERT_LE(snap.fallback_answers + snap.sketch_answers +
                    snap.failed_answers,
                snap.queries + so.num_shards * so.max_batch);
      (void)store.DeltaStats();
      (void)ctrl.Stats();
      serve.ExportMetrics(&registry);
      ctrl.ExportMetrics(&registry);
      std::this_thread::yield();
    }
  });

  for (size_t t = 0; t < 6; ++t) threads[t].join();  // submitters+appenders
  done.store(true, std::memory_order_release);
  threads[6].join();
  threads[7].join();
  ctrl.Stop();

  EXPECT_EQ(submitted.load(), 4u * kQueriesPerThread);
  const auto stats = serve.Snapshot();
  EXPECT_EQ(stats.queries, 4u * kQueriesPerThread);
  EXPECT_EQ(stats.queries,
            stats.sketch_answers + stats.fallback_answers +
                stats.failed_answers);
  EXPECT_EQ(stats.failed_answers, 0u);
  const auto dstats = store.DeltaStats();
  ASSERT_EQ(dstats.size(), 1u);
  EXPECT_EQ(dstats[0].second.rows, 800u);
  EXPECT_GE(ctrl.Stats().runs, 1u);
}

// ---------------------------------------------------------------------
// DeltaBuffer counter semantics: `appends` counts writer CALLS (one per
// Append and one per AppendRows regardless of batch size) and
// `rows_appended` counts rows accepted across all calls. The two used to
// disagree (Append bumped per row, AppendRows per batch); this pins the
// contract.

TEST(DeltaBufferTest, AppendCountersCountCallsAndRowsSeparately) {
  DeltaBuffer buf(2, /*chunk_rows=*/4);
  for (int i = 0; i < 3; ++i) buf.Append({1.0 * i, 2.0 * i});
  auto stats = buf.Stats();
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_EQ(stats.rows_appended, 3u);

  buf.AppendRows({{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}});
  stats = buf.Stats();
  EXPECT_EQ(stats.appends, 4u);  // one call, five rows
  EXPECT_EQ(stats.rows_appended, 8u);
  EXPECT_EQ(stats.rows, 8u);

  buf.AppendRows({});  // an empty batch is still one call
  stats = buf.Stats();
  EXPECT_EQ(stats.appends, 5u);
  EXPECT_EQ(stats.rows_appended, 8u);
  EXPECT_EQ(buf.size(), 8u);
}

// Trim(upto) is a logical watermark, not a keep-count: whole chunks
// strictly below it drop, anything it lands inside survives. Boundary
// cases: exactly ON a chunk edge drops the chunk; one PAST the edge does
// not touch the next chunk.
TEST(DeltaBufferTest, TrimBoundariesAreChunkGranular) {
  DeltaBuffer buf(1, /*chunk_rows=*/4);
  for (int i = 0; i < 8; ++i) buf.Append({static_cast<double>(i)});

  EXPECT_EQ(buf.Trim(3), 0u);  // watermark inside chunk [0,4): keep it
  EXPECT_EQ(buf.trimmed(), 0u);
  EXPECT_EQ(buf.Trim(4), 4u);  // exactly on the edge: [0,4) drops
  EXPECT_EQ(buf.trimmed(), 4u);
  EXPECT_EQ(buf.Trim(5), 0u);  // one past the edge: [4,8) survives whole
  EXPECT_EQ(buf.trimmed(), 4u);

  DeltaBuffer::Snapshot snap = buf.Snap();
  EXPECT_EQ(snap.begin(), 4u);
  EXPECT_EQ(snap.end(), 8u);
  size_t idx = 4;
  snap.ForEachRow(snap.begin(), snap.end(), [&](const double* row) {
    EXPECT_DOUBLE_EQ(row[0], static_cast<double>(idx));
    ++idx;
  });
  EXPECT_EQ(idx, 8u);

  EXPECT_EQ(buf.Trim(100), 4u);  // clamped to the published size
  EXPECT_EQ(buf.trimmed(), 8u);
  EXPECT_EQ(buf.Stats().rows, 0u);
}

// ---------------------------------------------------------------------
// StreamingTable: the swappable (table, fold watermark) pair compaction
// publishes through.

TEST(StreamingTableTest, PinSwapEnforcesPrefixExtension) {
  Schema schema;
  schema.columns = {"a", "b"};
  Table base(schema);
  ASSERT_TRUE(base.AppendRow({1, 2}).ok());
  ASSERT_TRUE(base.AppendRow({3, 4}).ok());
  StreamingTable table(base);
  EXPECT_EQ(table.num_columns(), 2u);
  EXPECT_EQ(table.folded(), 0u);

  const auto v0 = table.Pin();
  EXPECT_EQ(v0->table.num_rows(), 2u);
  EXPECT_EQ(v0->folded, 0u);

  Table next = v0->table;
  ASSERT_TRUE(next.AppendRow({5, 6}).ok());
  ASSERT_TRUE(table.Swap(next, 1).ok());
  EXPECT_EQ(table.folded(), 1u);
  const auto v1 = table.Pin();
  EXPECT_EQ(v1->table.num_rows(), 3u);
  EXPECT_EQ(v1->folded, 1u);
  // The pre-swap pin stays alive and untouched across the swap.
  EXPECT_EQ(v0->table.num_rows(), 2u);
  EXPECT_EQ(v0->folded, 0u);

  // The fold watermark can never move backwards...
  EXPECT_FALSE(table.Swap(v1->table, 0).ok());
  // ...the column count can never change...
  Schema narrow;
  narrow.columns = {"a"};
  EXPECT_FALSE(table.Swap(Table(narrow), 2).ok());
  // ...but republishing at the same watermark is legal.
  EXPECT_TRUE(table.Swap(v1->table, 1).ok());
  EXPECT_EQ(table.folded(), 1u);
}

// ---------------------------------------------------------------------
// Compaction, exact path: with no sketches registered the safe watermark
// is the whole delta, so Compact folds every row into the table and trims.
// Every served answer must be bit-identical to a from-scratch scan of the
// full logical table before, across, and after the compaction — for every
// aggregate, including the order-dependent ones.

class CompactionExactSweep : public testing::TestWithParam<Aggregate> {};

TEST_P(CompactionExactSweep, AnswersBitIdenticalAcrossCompaction) {
  const Aggregate agg = GetParam();
  Dataset ds = MakeGmmDataset(1000, 3, 3, /*seed=*/43);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  const QueryFunctionSpec spec = AxisSpec(agg, ds.measure_col);
  StreamingTable table(base);
  ExactEngine engine(&table);

  WorkloadConfig wc;
  wc.num_active = 2;
  wc.range_frac_lo = 0.1;
  wc.range_frac_hi = 0.4;
  wc.seed = 711 + static_cast<uint64_t>(agg);
  WorkloadGenerator gen(base.num_columns(), wc);
  const auto queries = gen.GenerateMany(25, &engine, &spec);

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(
      store.EnableStreaming("gmm", base.num_columns(), /*chunk_rows=*/64)
          .ok());
  ASSERT_TRUE(store.AttachStreamingTable("gmm", &table).ok());

  Rng rng(78);
  auto jittered_row = [&] {
    std::vector<double> row(base.num_columns());
    const size_t src = rng.Index(base.num_rows());
    for (size_t c = 0; c < base.num_columns(); ++c) {
      row[c] = std::clamp(base.at(src, c) + rng.Uniform(-0.05, 0.05), 0.0, 1.0);
    }
    return row;
  };
  std::vector<std::vector<double>> first_batch;
  for (int i = 0; i < 256; ++i) first_batch.push_back(jittered_row());
  ASSERT_TRUE(store.AppendRows("gmm", first_batch).ok());

  Table merged = base;
  for (const auto& r : first_batch) ASSERT_TRUE(merged.AppendRow(r).ok());
  ExactEngine merged_engine(&merged);

  ServeOptions so;
  so.num_shards = 2;
  so.batch_window_us = 0.0;
  ServeEngine serve(&store, so);

  std::vector<double> before;
  for (const auto& q : queries) {
    const ServeResult got = serve.Answer("gmm", spec, q);
    EXPECT_FALSE(got.used_sketch);
    before.push_back(got.value);
  }

  // Exact-only dataset: everything folds, and 256 is chunk-aligned so
  // everything trims too.
  auto res = store.Compact("gmm");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res.value().compacted);
  EXPECT_EQ(res.value().safe, first_batch.size());
  EXPECT_EQ(res.value().folded_rows, first_batch.size());
  EXPECT_EQ(res.value().trimmed_rows, first_batch.size());
  EXPECT_EQ(table.folded(), first_batch.size());
  EXPECT_EQ(store.Delta("gmm")->Stats().rows, 0u);
  EXPECT_EQ(table.Pin()->table.num_rows(),
            base.num_rows() + first_batch.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    const ServeResult got = serve.Answer("gmm", spec, queries[i]);
    const double want = merged_engine.Answer(spec, queries[i]);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(before[i]));
      EXPECT_TRUE(std::isnan(got.value));
    } else {
      EXPECT_EQ(got.value, before[i]) << AggregateName(agg) << " query " << i;
      EXPECT_EQ(got.value, want) << AggregateName(agg) << " query " << i;
    }
  }

  // A second, non-chunk-aligned wave: rows appended after the fold are
  // served from the delta on top of the new base, still bit-identically.
  std::vector<std::vector<double>> second_batch;
  for (int i = 0; i < 100; ++i) second_batch.push_back(jittered_row());
  ASSERT_TRUE(store.AppendRows("gmm", second_batch).ok());
  for (const auto& r : second_batch) ASSERT_TRUE(merged.AppendRow(r).ok());
  ExactEngine merged2(&merged);
  for (const auto& q : queries) {
    const ServeResult got = serve.Answer("gmm", spec, q);
    const double want = merged2.Answer(spec, q);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got.value));
    } else {
      EXPECT_EQ(got.value, want) << AggregateName(agg);
    }
  }
  auto res2 = store.Compact("gmm");
  ASSERT_TRUE(res2.ok());
  EXPECT_TRUE(res2.value().compacted);
  EXPECT_EQ(res2.value().folded_rows, second_batch.size());
  EXPECT_EQ(res2.value().trimmed_rows, 64u);  // 100 rows: one whole chunk
  EXPECT_EQ(store.Delta("gmm")->Stats().rows, 36u);
  for (const auto& q : queries) {
    const ServeResult got = serve.Answer("gmm", spec, q);
    const double want = merged2.Answer(spec, q);
    if (!std::isnan(want)) {
      EXPECT_EQ(got.value, want) << AggregateName(agg);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, CompactionExactSweep,
    testing::Values(Aggregate::kCount, Aggregate::kSum, Aggregate::kAvg,
                    Aggregate::kStd, Aggregate::kMedian, Aggregate::kMin,
                    Aggregate::kMax),
    [](const testing::TestParamInfo<Aggregate>& info) {
      return AggregateName(info.param);
    });

// ---------------------------------------------------------------------
// The safe fold watermark: Compact may never fold past the minimum leaf
// watermark of ANY registered version of ANY key sharing the dataset. A
// nullptr watermark vector counts as 0 and pins compaction entirely;
// registering a replacement unpins it (the store keeps no superseded
// sketch); Register's default fill adopts the table's current fold
// watermark so a freshly trained sketch doesn't reset it.

TEST(CompactionTest, SafeWatermarkFollowsTheRegisteredSketch) {
  const DriftScenario* s = &DriftScenario::Shared();
  StreamingTable table(s->base);
  ExactEngine engine(&table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", s->spec, s->sketch).ok());
  ASSERT_TRUE(
      store.EnableStreaming("gmm", s->base.num_columns(), /*chunk_rows=*/4)
          .ok());
  ASSERT_TRUE(store.AttachStreamingTable("gmm", &table).ok());

  Rng rng(79);
  std::vector<std::vector<double>> appended;
  for (int i = 0; i < 20; ++i) {
    std::vector<double> row(s->base.num_columns());
    for (auto& v : row) v = rng.Uniform();
    appended.push_back(std::move(row));
  }
  ASSERT_TRUE(store.AppendRows("gmm", appended).ok());
  const size_t parts = s->sketch->num_partitions();

  // v1 carries nullptr watermarks (registered before any fold): safe = 0.
  auto r0 = store.Compact("gmm");
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_FALSE(r0.value().compacted);
  EXPECT_EQ(r0.value().safe, 0u);
  EXPECT_EQ(table.folded(), 0u);

  // v2 with explicit watermarks (min 6) replaces v1, so the safe
  // watermark is 6 — Compact folds [0,6) and trims the one whole chunk
  // below it.
  auto wm = std::make_shared<std::vector<uint64_t>>(parts, appended.size());
  (*wm)[0] = 6;
  ASSERT_TRUE(store.Register("gmm", s->spec, s->sketch, wm).ok());
  auto r1 = store.Compact("gmm");
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1.value().compacted);
  EXPECT_EQ(r1.value().safe, 6u);
  EXPECT_EQ(r1.value().folded_rows, 6u);
  EXPECT_EQ(r1.value().trimmed_rows, 4u);  // chunk granularity
  EXPECT_EQ(table.folded(), 6u);
  // The folded rows are the logical delta prefix, appended in order.
  const auto v = table.Pin();
  ASSERT_EQ(v->table.num_rows(), s->base.num_rows() + 6);
  for (size_t r = 0; r < 6; ++r) {
    for (size_t c = 0; c < s->base.num_columns(); ++c) {
      EXPECT_EQ(v->table.at(s->base.num_rows() + r, c), appended[r][c]);
    }
  }

  // Register with nullptr watermarks now default-fills to the table's
  // fold watermark (6) — it must not drag the safe watermark back to 0.
  ASSERT_TRUE(store.Register("gmm", s->spec, s->sketch).ok());
  const auto view = store.LookupServed(ServeKey::From("gmm", s->spec));
  ASSERT_NE(view.leaf_folded, nullptr);
  ASSERT_EQ(view.leaf_folded->size(), parts);
  for (uint64_t w : *view.leaf_folded) EXPECT_EQ(w, 6u);
  auto r2 = store.Compact("gmm");
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().compacted);  // safe == folded: nothing new
  EXPECT_EQ(r2.value().safe, 6u);

  // A sketch whose watermarks cover the whole delta releases the rest.
  auto full = std::make_shared<std::vector<uint64_t>>(parts, appended.size());
  ASSERT_TRUE(store.Register("gmm", s->spec, s->sketch, full).ok());
  auto r3 = store.Compact("gmm");
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(r3.value().compacted);
  EXPECT_EQ(r3.value().safe, appended.size());
  EXPECT_EQ(r3.value().folded_rows, appended.size() - 6);
  EXPECT_EQ(table.folded(), appended.size());
  EXPECT_EQ(store.Delta("gmm")->Stats().rows, 0u);

  const auto cstats = store.CompactionStats();
  ASSERT_EQ(cstats.size(), 1u);
  EXPECT_EQ(cstats[0].first, "gmm");
  EXPECT_EQ(cstats[0].second.compactions, 2u);
  EXPECT_EQ(cstats[0].second.folded_rows, appended.size());
}

// ---------------------------------------------------------------------
// The RefreshController's compaction trigger: after each pass, every
// streaming dataset at or above the byte/row threshold is compacted.

TEST(CompactionTest, RefreshControllerSweepsAndCompactsByThreshold) {
  Dataset ds = MakeGmmDataset(600, 3, 3, /*seed=*/44);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  StreamingTable table(base);
  ExactEngine engine(&table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(
      store.EnableStreaming("gmm", base.num_columns(), /*chunk_rows=*/32)
          .ok());
  ASSERT_TRUE(store.AttachStreamingTable("gmm", &table).ok());

  RefreshOptions ro;
  ro.compact_min_rows = 64;
  RefreshController ctrl(&store, nullptr, ro);

  Rng rng(80);
  auto append_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      std::vector<double> row(base.num_columns());
      for (auto& v : row) v = rng.Uniform();
      ASSERT_TRUE(store.Append("gmm", row).ok());
    }
  };

  append_n(50);  // below threshold: the sweep must not compact
  ctrl.RefreshAll();
  EXPECT_EQ(ctrl.Stats().compactions, 0u);
  EXPECT_EQ(table.folded(), 0u);

  append_n(50);  // 100 resident rows >= 64: the sweep compacts
  ctrl.RefreshAll();
  const auto stats = ctrl.Stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.compaction_folded_rows, 100u);
  EXPECT_EQ(table.folded(), 100u);
  EXPECT_EQ(store.Delta("gmm")->Stats().rows, 4u);  // 100 mod 32

  metrics::MetricsRegistry registry;
  ctrl.ExportMetrics(&registry);  // new counters export without crashing
}

/// A loadable one-leaf sketch whose every answer is NaN (a NaN target
/// scale over a small finite model), so the serve path repairs each of
/// its answers exactly over base + delta.
std::shared_ptr<const NeuroSketch> NaNSketch(size_t qdim) {
  std::stringstream buf;
  const uint64_t dim = qdim;
  const double routing[2] = {-1.0, 0.0};  // one leaf, model 0
  const uint64_t rsize = 2, nmodels = 1;
  const double mean = 0.0, scale = std::numeric_limits<double>::quiet_NaN();
  buf.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  buf.write(reinterpret_cast<const char*>(&rsize), sizeof(rsize));
  buf.write(reinterpret_cast<const char*>(routing), sizeof(routing));
  buf.write(reinterpret_cast<const char*>(&nmodels), sizeof(nmodels));
  buf.write(reinterpret_cast<const char*>(&mean), sizeof(mean));
  buf.write(reinterpret_cast<const char*>(&scale), sizeof(scale));
  nn::MlpConfig cfg;
  cfg.in_dim = qdim;
  cfg.hidden = {4};
  EXPECT_TRUE(nn::SaveCompiledMlp(
                  nn::CompiledMlp::FromMlp(nn::Mlp(cfg, /*seed=*/5)), &buf)
                  .ok());
  auto loaded = NeuroSketch::LoadFrom(&buf);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::make_shared<const NeuroSketch>(std::move(loaded).value());
}

// ---------------------------------------------------------------------
// The compaction race: appenders, exact servers, a dedicated compactor,
// and the controller's threshold sweep all running together. During the
// race the full-domain COUNT must be monotone (a lost row across a table
// swap would break it); after quiescing, every aggregate must be
// bit-identical to a from-scratch scan of the full logical history.
// A SUM key is served through the same engine while a refresher swaps
// its sketch in and out, so the engine's cached store slot goes stale
// under traffic (every swap and every compaction is a store write); each
// of its answers must bit-equal the from-scratch SUM of some prefix of
// the append history, and the prefixes must never shrink.

TEST(CompactionRaceTest, AppendServeCompactRefreshStayExact) {
  Dataset ds = MakeGmmDataset(800, 3, 3, /*seed=*/47);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  const size_t d = base.num_columns();
  StreamingTable table(base);
  ExactEngine engine(&table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", d, /*chunk_rows=*/64).ok());
  ASSERT_TRUE(store.AttachStreamingTable("gmm", &table).ok());

  ServeOptions so;
  so.num_shards = 2;
  so.batch_window_us = 20.0;
  // The SUM key's NaN sketch is never demoted: it keeps taking the
  // sketch path.
  so.budget_min_samples = std::numeric_limits<size_t>::max();
  ServeEngine serve(&store, so);

  RefreshOptions ro;
  ro.interval_ms = 2;
  ro.compact_min_rows = 128;
  RefreshController ctrl(&store, &serve, ro);  // no targets: pure sweeps
  ctrl.Start();

  const QueryFunctionSpec count = AxisSpec(Aggregate::kCount, ds.measure_col);
  const QueryFunctionSpec sum = AxisSpec(Aggregate::kSum, ds.measure_col);
  const QueryInstance everything =
      QueryInstance::AxisRange({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  const std::shared_ptr<const NeuroSketch> nan_sketch = NaNSketch(2 * d);
  constexpr int kRowsPerAppender = 300;
  constexpr int kAppenders = 2;

  // The mirror records the exact logical append order (one mutex orders
  // Append + record atomically); the oracle below scans it from scratch.
  std::mutex order_mu;
  std::vector<std::vector<double>> mirror;
  std::atomic<bool> done{false};
  // Appenders keep pace with the SUM key's traffic (one answer per 8 of
  // an appender's rows), so its answers spread over the whole append
  // history and the swaps and compactions that run alongside it.
  std::atomic<size_t> sums_served{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(700 + t);
      for (int i = 0; i < kRowsPerAppender; ++i) {
        while (sums_served.load(std::memory_order_acquire) <
               static_cast<size_t>(i / 8)) {
          std::this_thread::yield();
        }
        std::vector<double> row(d);
        for (auto& v : row) v = rng.Uniform();
        std::lock_guard<std::mutex> lock(order_mu);
        ASSERT_TRUE(store.Append("gmm", row).ok());
        mirror.push_back(std::move(row));
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      double last = 0.0;
      while (!done.load(std::memory_order_acquire)) {
        const ServeResult r = serve.Answer("gmm", count, everything);
        ASSERT_FALSE(r.used_sketch);
        // Monotone and bounded: a compaction swap that lost or doubled
        // rows would show up here immediately.
        ASSERT_GE(r.value, last);
        ASSERT_GE(r.value, static_cast<double>(base.num_rows()));
        ASSERT_LE(r.value, static_cast<double>(
                               base.num_rows() +
                               kAppenders * kRowsPerAppender));
        last = r.value;
      }
    });
  }
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto res = store.Compact("gmm");
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      std::this_thread::yield();
    }
  });
  // Refresh swaps of the SUM key: the sketch claims every row appended so
  // far (so compaction keeps folding), then goes away again. It ends
  // unregistered, so the final fold is not held back.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto watermark = std::make_shared<const std::vector<uint64_t>>(
          1, store.Delta("gmm")->size());
      ASSERT_TRUE(store.Register("gmm", sum, nan_sketch, watermark).ok());
      std::this_thread::yield();
      ASSERT_EQ(store.Unregister(ServeKey::From("gmm", sum)), 1u);
      std::this_thread::yield();
    }
  });
  std::vector<ServeResult> sums;
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      sums.push_back(serve.Answer("gmm", sum, everything));
      sums_served.fetch_add(1, std::memory_order_release);
    }
  });

  for (int t = 0; t < kAppenders; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kAppenders; t < threads.size(); ++t) threads[t].join();
  ctrl.Stop();

  // Quiesce: one final fold, then the from-scratch oracle.
  auto fin = store.Compact("gmm");
  ASSERT_TRUE(fin.ok()) << fin.status().ToString();
  EXPECT_EQ(table.folded(), mirror.size());

  const auto cstats = store.CompactionStats();
  ASSERT_EQ(cstats.size(), 1u);
  EXPECT_GE(cstats[0].second.compactions, 1u);
  EXPECT_EQ(cstats[0].second.folded_rows, mirror.size());

  // prefix_sum[k]: the from-scratch SUM over the base plus the first k
  // appended rows. Every served SUM is one of them, in growing k.
  std::vector<double> prefix_sum;
  {
    Table prefix = base;
    prefix_sum.push_back(ExactEngine(&prefix).Answer(sum, everything));
    for (const auto& r : mirror) {
      ASSERT_TRUE(prefix.AppendRow(r).ok());
      prefix_sum.push_back(ExactEngine(&prefix).Answer(sum, everything));
    }
  }
  ASSERT_FALSE(sums.empty());
  size_t k = 0;
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_FALSE(sums[i].used_sketch);  // every NaN answer repaired
    while (k < prefix_sum.size() &&
           std::memcmp(&prefix_sum[k], &sums[i].value, sizeof(double)) != 0) {
      ++k;
    }
    ASSERT_LT(k, prefix_sum.size())
        << "served SUM " << i << " (" << sums[i].value
        << ") is no later prefix's from-scratch SUM";
  }
  const auto dstats = store.DeltaStats();
  ASSERT_EQ(dstats.size(), 1u);
  EXPECT_GT(dstats[0].second.trimmed_rows, 0u);
  // Everything folded; at most one partial chunk stays resident (600 rows
  // are not 64-aligned).
  EXPECT_LT(dstats[0].second.rows, 64u);

  Table merged = base;
  for (const auto& r : mirror) ASSERT_TRUE(merged.AppendRow(r).ok());
  ExactEngine merged_engine(&merged);
  WorkloadConfig qc;
  qc.num_active = 2;
  qc.range_frac_lo = 0.1;
  qc.range_frac_hi = 0.5;
  qc.seed = 4711;
  WorkloadGenerator qgen(d, qc);
  for (Aggregate agg :
       {Aggregate::kCount, Aggregate::kSum, Aggregate::kAvg, Aggregate::kStd,
        Aggregate::kMedian, Aggregate::kMin, Aggregate::kMax}) {
    const QueryFunctionSpec spec = AxisSpec(agg, ds.measure_col);
    for (const auto& q : qgen.GenerateMany(10, &merged_engine, &spec)) {
      const ServeResult got = serve.Answer("gmm", spec, q);
      const double want = merged_engine.Answer(spec, q);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got.value)) << AggregateName(agg);
      } else {
        EXPECT_EQ(got.value, want) << AggregateName(agg);
      }
    }
  }
  EXPECT_EQ(serve.Answer("gmm", count, everything).value,
            static_cast<double>(base.num_rows() + mirror.size()));
}

// ---------------------------------------------------------------------
// Delta zone maps: a chunk is skipped only when an active column holds
// no NaN and its [min, max] lies outside the query's [lo, hi).

/// Logical indices of the rows the zone-map scan reports for q from
/// logical row `from`, and the number of rows it filtered.
struct ZoneScan {
  std::vector<size_t> rows;
  size_t scanned = 0;
};
ZoneScan ScanWithZoneMaps(const DeltaBuffer::Snapshot& snap, size_t from,
                          const QueryInstance& q) {
  CompiledAxisRange range;
  EXPECT_TRUE(range.Compile(AxisRangePredicate(), q, snap.num_columns()));
  ZoneScan out;
  out.scanned = snap.ScanMatches(
      from, range, 0,
      [&](size_t first, const double*, const uint32_t* sel, size_t k) {
        for (size_t i = 0; i < k; ++i) out.rows.push_back(first + sel[i]);
        return true;
      });
  return out;
}

/// The per-row reference: the logical index of every row of [from, end)
/// that Matches accepts.
std::vector<size_t> MatchingRows(const DeltaBuffer::Snapshot& snap,
                                 size_t from, const QueryInstance& q) {
  std::vector<size_t> rows;
  const AxisRangePredicate pred;
  size_t i = std::max(from, snap.begin());
  snap.ForEachRow(from, snap.end(), [&](const double* row) {
    if (pred.Matches(q, row, snap.num_columns())) rows.push_back(i);
    ++i;
  });
  return rows;
}

/// Two-column rows inside the box [0.90, 0.92) x [0.50, 0.52).
std::vector<double> BoxRow(Rng* rng) {
  return {rng->Uniform(0.90, 0.92), rng->Uniform(0.50, 0.52)};
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(DeltaZoneMapTest, ChunkWithNaNInActiveColumnIsNeverSkipped) {
  DeltaBuffer buf(2, /*chunk_rows=*/4);
  Rng rng(31);
  for (int i = 0; i < 4; ++i) buf.Append(BoxRow(&rng));  // chunk 0: sealed
  for (int i = 0; i < 4; ++i) {
    std::vector<double> row = BoxRow(&rng);
    if (i == 1) row[0] = kNaN;
    buf.Append(row);  // chunk 1: sealed, NaN in column 0
  }
  buf.Append({kNaN, 0.51});  // chunk 2: open, NaN in column 0
  const DeltaBuffer::Snapshot snap = buf.Snap();

  // Column 0 in [0.1, 0.3): every non-NaN value lies above, so only the
  // chunks holding a NaN are read, and only the NaN rows match.
  const QueryInstance q = QueryInstance::AxisRange({0.1, 0.0}, {0.2, 1.0});
  const ZoneScan got = ScanWithZoneMaps(snap, 0, q);
  EXPECT_EQ(got.scanned, 5u);  // chunks 1 and 2; chunk 0 skipped
  EXPECT_EQ(got.rows, MatchingRows(snap, 0, q));
  EXPECT_EQ(got.rows.size(), 2u);

  // Column 1 holds no NaN anywhere: a range below it skips every chunk.
  const QueryInstance q1 = QueryInstance::AxisRange({0.0, 0.1}, {1.0, 0.3});
  const ZoneScan none = ScanWithZoneMaps(snap, 0, q1);
  EXPECT_EQ(none.scanned, 0u);
  EXPECT_TRUE(none.rows.empty());
}

TEST(DeltaZoneMapTest, QueryWithNaNBoundsIsNeverSkipped) {
  DeltaBuffer buf(2, /*chunk_rows=*/4);
  Rng rng(32);
  for (int i = 0; i < 10; ++i) buf.Append(BoxRow(&rng));
  const DeltaBuffer::Snapshot snap = buf.Snap();
  // c = NaN: both bounds are NaN, both bound tests are false for every
  // row, so every row matches (as Matches says) and no chunk may skip.
  const QueryInstance nan_c = QueryInstance::AxisRange({kNaN, 0.0}, {0.3, 1.0});
  const ZoneScan all = ScanWithZoneMaps(snap, 0, nan_c);
  EXPECT_EQ(all.scanned, 10u);
  EXPECT_EQ(all.rows.size(), 10u);
  EXPECT_EQ(all.rows, MatchingRows(snap, 0, nan_c));
  // A NaN width leaves a finite lower bound: rows below it still fail,
  // rows at or above it match; the scan agrees with Matches either way.
  for (double c : {0.1, 0.91, 0.95}) {
    const QueryInstance nan_r = QueryInstance::AxisRange({c, 0.0}, {kNaN, 1.0});
    EXPECT_EQ(ScanWithZoneMaps(snap, 0, nan_r).rows,
              MatchingRows(snap, 0, nan_r))
        << "c " << c;
  }
}

TEST(DeltaZoneMapTest, QueryDisjointFromEveryChunkVisitsZeroRows) {
  DeltaBuffer buf(2, /*chunk_rows=*/4);
  Rng rng(33);
  for (int i = 0; i < 10; ++i) buf.Append(BoxRow(&rng));  // 2 sealed + open
  auto check = [](const DeltaBuffer::Snapshot& snap) {
    for (const QueryInstance& q :
         {QueryInstance::AxisRange({0.1, 0.0}, {0.4, 1.0}),    // below col 0
          QueryInstance::AxisRange({0.0, 0.6}, {1.0, 0.3}),    // above col 1
          QueryInstance::AxisRange({0.92, 0.0}, {0.05, 1.0}),  // lo == max edge
          QueryInstance::AxisRange({0.5, 0.0}, {0.4, 1.0})}) {  // hi == 0.9
      const ZoneScan got = ScanWithZoneMaps(snap, 0, q);
      EXPECT_EQ(got.scanned, 0u) << q[0] << " " << q[1];
      EXPECT_TRUE(got.rows.empty());
    }
    // An overlapping query reads every held row.
    const QueryInstance hit = QueryInstance::AxisRange({0.9, 0.0}, {0.05, 1.0});
    EXPECT_EQ(ScanWithZoneMaps(snap, 0, hit).scanned,
              snap.end() - snap.begin());
  };
  check(buf.Snap());
  EXPECT_EQ(buf.Trim(4), 4u);  // logical indices stay put
  check(buf.Snap());
}

TEST(DeltaZoneMapTest, ZoneMapScanMatchesPerRowReference) {
  // Random buffers whose chunks cover narrow value bands (so chunks do
  // skip), with NaN cells, random scan starts, trims, chunks larger than
  // one 1024-row filter run, and queries with NaN bounds.
  Rng rng(34);
  const size_t kChunkRows[] = {1, 3, 4, 7, 64, 1500};
  for (int trial = 0; trial < 60; ++trial) {
    const size_t dim = 1 + rng.Index(4);
    const size_t chunk_rows = kChunkRows[trial % 6];
    DeltaBuffer buf(dim, chunk_rows);
    const size_t n = static_cast<size_t>(rng.Int(0, 3200));
    std::vector<std::vector<double>> rows;
    for (size_t i = 0; i < n; ++i) {
      const double band = 0.1 * static_cast<double>((i / 50) % 10);
      std::vector<double> row(dim);
      for (double& v : row) {
        v = rng.Uniform() < 0.005 ? kNaN : band + rng.Uniform(0.0, 0.1);
      }
      rows.push_back(std::move(row));
    }
    for (size_t i = 0; i < n;) {  // mixed single and batch appends
      const size_t k = std::min<size_t>(n - i, 1 + rng.Index(40));
      if (k == 1) {
        buf.Append(rows[i]);
      } else {
        buf.AppendRows({rows.begin() + i, rows.begin() + i + k});
      }
      i += k;
    }
    if (trial % 3 == 0 && n > 0) buf.Trim(rng.Index(n));
    const DeltaBuffer::Snapshot snap = buf.Snap();
    size_t skipped_somewhere = 0;
    for (int qi = 0; qi < 12; ++qi) {
      std::vector<double> c(dim, 0.0), r(dim, 1.0);
      for (size_t a = 0; a < dim; ++a) {
        const double u = rng.Uniform();
        if (u < 0.4) continue;  // inactive
        c[a] = u < 0.45 ? kNaN : rng.Uniform(0.0, 0.9);
        r[a] = u > 0.97 ? kNaN : rng.Uniform(0.02, 0.3);
      }
      const QueryInstance q = QueryInstance::AxisRange(c, r);
      const size_t from = n > 0 ? rng.Index(n + 1) : 0;
      const ZoneScan got = ScanWithZoneMaps(snap, from, q);
      ASSERT_EQ(got.rows, MatchingRows(snap, from, q))
          << "trial " << trial << " chunk_rows " << chunk_rows << " from "
          << from << " query " << qi;
      const size_t lo = std::max(from, snap.begin());
      const size_t held = snap.end() > lo ? snap.end() - lo : 0;
      ASSERT_LE(got.scanned, held);
      skipped_somewhere += got.scanned < held;
    }
    if (n > 500 && chunk_rows <= 64) {
      EXPECT_GT(skipped_somewhere, 0u) << "trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------
// Column-major chunks: column c of a chunk is data[c * chunk_rows,
// (c + 1) * chunk_rows). On every chunk size, with a scan start inside a
// chunk, a trimmed prefix, an open, partly filled last chunk and NaN
// cells, delta matches and served answers equal a per-row Matches
// reference bit for bit.

constexpr size_t kLayoutChunkRows[] = {1, 3, 4, 1000, 1024};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

/// `n` rows of `dim` uniform values in [0, 1). About one cell in 60 is
/// NaN, and one in 400 of column `measure`.
std::vector<std::vector<double>> LayoutRows(size_t n, size_t dim,
                                            size_t measure, Rng* rng) {
  std::vector<std::vector<double>> rows(n, std::vector<double>(dim));
  for (auto& row : rows) {
    for (size_t c = 0; c < dim; ++c) {
      const double p = c == measure ? 1.0 / 400 : 1.0 / 60;
      row[c] = rng->Uniform() < p ? kNaN : rng->Uniform();
    }
  }
  return rows;
}

/// Appends `rows` to `append` in single rows and batches of up to 40.
template <typename AppendOne, typename AppendMany>
void AppendMixed(const std::vector<std::vector<double>>& rows, Rng* rng,
                 AppendOne append, AppendMany append_rows) {
  for (size_t i = 0; i < rows.size();) {
    const size_t k = std::min<size_t>(rows.size() - i, 1 + rng->Index(40));
    if (k == 1) {
      append(rows[i]);
    } else {
      append_rows({rows.begin() + i, rows.begin() + i + k});
    }
    i += k;
  }
}

TEST(DeltaColumnLayoutTest, ScanMatchesEqualsPerRowReferenceOnEveryChunkSize) {
  constexpr size_t kDim = 3, kMeasure = 2;
  Rng rng(61);
  for (size_t chunk_rows : kLayoutChunkRows) {
    SCOPED_TRACE(chunk_rows);
    DeltaBuffer buf(kDim, chunk_rows);
    const auto rows =
        LayoutRows(2 * chunk_rows + chunk_rows / 2 + 37, kDim, kMeasure, &rng);
    AppendMixed(
        rows, &rng, [&](const std::vector<double>& r) { buf.Append(r); },
        [&](const std::vector<std::vector<double>>& r) { buf.AppendRows(r); });
    ASSERT_GT(buf.Trim(chunk_rows + 1), 0u);
    const DeltaBuffer::Snapshot snap = buf.Snap();
    const size_t begin = snap.begin(), end = snap.end();
    ASSERT_EQ(end, rows.size());
    if (chunk_rows > 1) {
      ASSERT_NE(end % chunk_rows, 0u) << "last chunk open";
    }

    // Gathered rows: every cell of every held row, from every start.
    for (size_t from : {size_t{0}, begin + chunk_rows / 2, end - 1}) {
      size_t i = std::max(from, begin);
      snap.ForEachRow(from, end, [&](const double* row) {
        for (size_t c = 0; c < kDim; ++c) {
          ASSERT_TRUE(SameBits(row[c], rows[i][c])) << "row " << i;
        }
        ++i;
      });
      EXPECT_EQ(i, end);
    }

    std::vector<QueryInstance> queries = {
        QueryInstance::AxisRange({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0})};
    for (int qi = 0; qi < 12; ++qi) {
      std::vector<double> c(kDim, 0.0), r(kDim, 1.0);
      for (size_t a = 0; a < kDim; ++a) {
        const double u = rng.Uniform();
        if (u < 0.3) continue;  // inactive
        c[a] = u < 0.35 ? kNaN : rng.Uniform(0.0, 0.7);
        r[a] = rng.Uniform(0.1, 0.6);
      }
      queries.push_back(QueryInstance::AxisRange(c, r));
    }
    const size_t froms[] = {0,
                            begin,
                            begin + 1,
                            begin + chunk_rows / 2,
                            begin + chunk_rows + chunk_rows / 2,
                            end - 1,
                            end};
    size_t matched = 0;
    for (const QueryInstance& q : queries) {
      CompiledAxisRange range;
      ASSERT_TRUE(range.Compile(AxisRangePredicate(), q, kDim));
      for (size_t from : froms) {
        std::vector<std::pair<size_t, double>> got, want;
        snap.ScanMatches(from, range, kMeasure,
                         [&](size_t first, const double* measure,
                             const uint32_t* sel, size_t k) {
                           for (size_t i = 0; i < k; ++i) {
                             got.emplace_back(first + sel[i], measure[sel[i]]);
                           }
                           return true;
                         });
        for (size_t i = std::max(from, begin); i < end; ++i) {
          if (AxisRangePredicate().Matches(q, rows[i].data(), kDim)) {
            want.emplace_back(i, rows[i][kMeasure]);
          }
        }
        ASSERT_EQ(got.size(), want.size()) << "from " << from;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].first, want[i].first) << "from " << from;
          ASSERT_TRUE(SameBits(got[i].second, want[i].second))
              << "from " << from << " row " << want[i].first;
        }
        matched += got.size();
      }
    }
    EXPECT_GT(matched, 0u);
  }
}

TEST(DeltaColumnLayoutTest, ServedAnswersEqualPerRowReferenceOnEveryChunkSize) {
  // Two sketches, one per predicate family: the axis range (compiled,
  // unit-stride filter) and the rotated rectangle (rows gathered for
  // Matches). Each serves every aggregate; its answers only need to be
  // finite enough to take the correction, not accurate.
  Dataset ds = MakeGmmDataset(600, 3, 3, /*seed=*/62);
  const Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  const size_t d = base.num_columns();
  const size_t mc = ds.measure_col;
  ExactEngine base_engine(&base);
  struct Family {
    QueryFunctionSpec spec;  // agg set per answer below
    std::vector<QueryInstance> probes;
    std::shared_ptr<const NeuroSketch> sketch;
  };
  std::vector<Family> families(2);
  families[0].spec = AxisSpec(Aggregate::kCount, mc);
  families[1].spec = families[0].spec;
  families[1].spec.predicate = RotatedRectPredicate::Make();
  for (size_t f = 0; f < families.size(); ++f) {
    Family& fam = families[f];
    WorkloadConfig wc;
    wc.num_active = 2;
    wc.seed = 63 + f;
    WorkloadGenerator gen(d, wc);
    auto make = [&](size_t n) {
      return f == 0 ? gen.GenerateMany(n, &base_engine, &fam.spec)
                    : gen.GenerateRotatedRects(n, &base_engine, &fam.spec);
    };
    const std::vector<QueryInstance> train_q = make(200);
    fam.probes = make(24);
    NeuroSketchConfig cfg = SmallConfig();
    cfg.train.epochs = 5;
    auto sk = NeuroSketch::Train(
        train_q, base_engine.AnswerBatch(fam.spec, train_q), cfg);
    ASSERT_TRUE(sk.ok()) << sk.status().ToString();
    fam.sketch = std::make_shared<const NeuroSketch>(std::move(sk).value());
  }
  const Aggregate aggs[] = {Aggregate::kCount, Aggregate::kSum,
                            Aggregate::kAvg,   Aggregate::kStd,
                            Aggregate::kMedian, Aggregate::kMin,
                            Aggregate::kMax};

  Rng rng(64);
  size_t corrected = 0, recomputed = 0;
  for (size_t chunk_rows : kLayoutChunkRows) {
    SCOPED_TRACE(chunk_rows);
    StreamingTable table(base);
    ExactEngine engine(&table);
    SketchStore store;
    ASSERT_TRUE(store.RegisterDataset("ds", &engine).ok());
    ASSERT_TRUE(store.EnableStreaming("ds", d, chunk_rows).ok());
    ASSERT_TRUE(store.AttachStreamingTable("ds", &table).ok());
    // Every leaf has folded the rows below `w`, a watermark inside the
    // second chunk: compaction folds them into the base and trims the
    // whole chunks below it, and both delta scans start at `w`.
    const size_t w = chunk_rows + chunk_rows / 2 + 1;
    const auto rows = LayoutRows(w + 2 * chunk_rows + 30, d, mc, &rng);
    const std::vector<std::vector<double>> first(rows.begin(),
                                                 rows.begin() + w + 5);
    const std::vector<std::vector<double>> second(rows.begin() + w + 5,
                                                  rows.end());
    auto append = [&](const std::vector<std::vector<double>>& part) {
      AppendMixed(
          part, &rng,
          [&](const std::vector<double>& r) {
            ASSERT_TRUE(store.Append("ds", r).ok());
          },
          [&](const std::vector<std::vector<double>>& r) {
            ASSERT_TRUE(store.AppendRows("ds", r).ok());
          });
    };
    append(first);
    for (const Family& fam : families) {
      for (Aggregate agg : aggs) {
        QueryFunctionSpec spec = fam.spec;
        spec.agg = agg;
        ASSERT_TRUE(store
                        .Register("ds", spec, fam.sketch,
                                  std::make_shared<std::vector<uint64_t>>(
                                      fam.sketch->num_partitions(), w))
                        .ok());
      }
    }
    auto compacted = store.Compact("ds");
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    ASSERT_EQ(compacted.value().safe, w);
    ASSERT_GT(compacted.value().trimmed_rows, 0u);
    append(second);
    const DeltaBuffer::Snapshot snap = store.Delta("ds")->Snap();
    ASSERT_LE(snap.begin(), w);
    ASSERT_EQ(snap.end(), rows.size());
    if (chunk_rows > 1) {
      ASSERT_NE(snap.begin(), w) << "scans start mid-chunk";
      ASSERT_NE(snap.end() % chunk_rows, 0u) << "last chunk open";
    }

    ServeOptions so;
    so.num_shards = 1;
    so.batch_window_us = 0.0;
    ServeEngine serve(&store, so);
    for (const Family& fam : families) {
      const std::vector<double> sketch_answers =
          fam.sketch->AnswerBatch(fam.probes);
      for (Aggregate agg : aggs) {
        SCOPED_TRACE(AggregateName(agg));
        QueryFunctionSpec spec = fam.spec;
        spec.agg = agg;
        const std::vector<ServeResult> served =
            serve.SubmitMany("ds", spec, fam.probes).get();
        ASSERT_EQ(served.size(), fam.probes.size());
        for (size_t i = 0; i < fam.probes.size(); ++i) {
          const QueryInstance& q = fam.probes[i];
          // The unfolded rows' matches, in append order, as ScanDelta
          // composes them.
          size_t matched = 0;
          double sum = 0.0, lo = 0.0, hi = 0.0;
          for (size_t r = w; r < rows.size(); ++r) {
            if (!spec.predicate->Matches(q, rows[r].data(), d)) continue;
            const double v = rows[r][mc];
            if (matched++ == 0) {
              lo = hi = v;
            } else {
              if (v < lo) lo = v;
              if (v > hi) hi = v;
            }
            sum += v;
          }
          // The exact answer: the base, then every appended row in order.
          AggregateAccumulator acc(agg);
          ExactEngine::AccumulateOver(base, spec, q, &acc);
          for (const auto& row : rows) {
            if (spec.predicate->Matches(q, row.data(), d)) acc.Add(row[mc]);
          }
          const double s = sketch_answers[i];
          double want = s;
          if (std::isnan(s)) {
            want = acc.Finalize();
          } else if (matched > 0) {
            switch (agg) {
              case Aggregate::kCount:
                want = s + static_cast<double>(matched);
                break;
              case Aggregate::kSum:
                want = s + sum;
                break;
              case Aggregate::kMin:
                want = std::min(s, lo);
                break;
              case Aggregate::kMax:
                want = std::max(s, hi);
                break;
              default:
                want = acc.Finalize();
                ++recomputed;
                break;
            }
            corrected += agg == Aggregate::kCount;
          }
          ASSERT_TRUE(SameBits(served[i].value, want) ||
                      (std::isnan(served[i].value) && std::isnan(want)))
              << "probe " << i << ": served " << served[i].value
              << ", want " << want;
        }
      }
    }
  }
  EXPECT_GT(corrected, 0u);
  EXPECT_GT(recomputed, 0u);
}

TEST(ZoneMapRaceTest, ComposedAnswersStayExactWhileWriterAppends) {
  // One writer appends rows in value bands (one band per 32-row chunk, so
  // narrow queries skip most chunks), a compactor folds and trims the
  // delta, and a reader serves exact answers over base + delta. Every
  // answer must be bit-identical to a from-scratch scan of the base plus
  // SOME prefix of the appended rows that was published around the call.
  Dataset ds = MakeGmmDataset(600, 3, 3, /*seed=*/53);
  Table base = Normalizer::Fit(ds.table).Transform(ds.table);
  const size_t d = base.num_columns();
  const size_t mc = ds.measure_col;
  StreamingTable table(base);
  ExactEngine engine(&table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", d, /*chunk_rows=*/32).ok());
  ASSERT_TRUE(store.AttachStreamingTable("gmm", &table).ok());
  ServeOptions so;
  so.num_shards = 1;
  so.batch_window_us = 0.0;
  ServeEngine serve(&store, so);

  constexpr size_t kRows = 960;
  Rng rng(54);
  std::vector<std::vector<double>> rows(kRows, std::vector<double>(d));
  for (size_t i = 0; i < kRows; ++i) {
    const double band = 0.1 * static_cast<double>((i / 32) % 10);
    for (size_t c = 0; c < d; ++c) {
      const bool nan_cell = c != mc && i % 97 == 5;
      rows[i][c] = nan_cell ? kNaN : band + rng.Uniform(0.0, 0.1);
    }
  }
  std::vector<QueryInstance> queries;
  for (size_t a = 0; a < d; ++a) {
    std::vector<double> c(d, 0.0), r(d, 1.0);
    c[a] = 0.1 * static_cast<double>(a + 2);
    r[a] = 0.15;
    queries.push_back(QueryInstance::AxisRange(c, r));
  }
  {
    std::vector<double> c(d, 0.0), r(d, 1.0);
    c[0] = kNaN;  // NaN bound: matches every row
    r[0] = 0.2;
    queries.push_back(QueryInstance::AxisRange(c, r));
  }
  const Aggregate aggs[] = {Aggregate::kCount, Aggregate::kSum,
                            Aggregate::kAvg,   Aggregate::kStd,
                            Aggregate::kMedian, Aggregate::kMax};

  // Reference for (query, aggregate) at prefix n: the base accumulation
  // continued over the first n appended rows.
  auto reference = [&](const QueryFunctionSpec& spec, const QueryInstance& q,
                       size_t n) {
    AggregateAccumulator acc(spec.agg);
    ExactEngine::AccumulateOver(base, spec, q, &acc);
    for (size_t i = 0; i < n; ++i) {
      if (spec.predicate->Matches(q, rows[i].data(), d)) acc.Add(rows[i][mc]);
    }
    return acc.Finalize();
  };
  auto same = [](double a, double b) {
    return (std::isnan(a) && std::isnan(b)) || std::memcmp(&a, &b, 8) == 0;
  };

  // `announced` is raised before a batch is appended and `published`
  // after, so a call's answer reflects a prefix in [published before the
  // call, announced after it].
  std::atomic<size_t> announced{0}, published{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng wr(55);
    for (size_t i = 0; i < kRows;) {
      const size_t k = std::min<size_t>(kRows - i, 1 + wr.Index(24));
      announced.store(i + k, std::memory_order_release);
      ASSERT_TRUE(
          store.AppendRows("gmm", {rows.begin() + i, rows.begin() + i + k})
              .ok());
      i += k;
      published.store(i, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::thread compactor([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto res = store.Compact("gmm");
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  size_t checked = 0, mid_run = 0;
  for (int round = 0;; ++round) {
    const bool last = published.load(std::memory_order_acquire) == kRows;
    for (Aggregate agg : aggs) {
      const QueryFunctionSpec spec = AxisSpec(agg, mc);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const size_t lo = published.load(std::memory_order_acquire);
        const double got = serve.Answer("gmm", spec, queries[qi]).value;
        const size_t hi = announced.load(std::memory_order_acquire);
        bool ok = false;
        for (size_t n = hi + 1; n-- > lo && !ok;) {
          ok = same(got, reference(spec, queries[qi], n));
        }
        ASSERT_TRUE(ok) << AggregateName(agg) << " query " << qi
                        << " prefixes [" << lo << ", " << hi << "]";
        ++checked;
        mid_run += hi < kRows;
      }
    }
    if (last) break;
  }
  writer.join();
  done.store(true, std::memory_order_release);
  compactor.join();
  EXPECT_GT(checked, 0u);
  EXPECT_GT(mid_run, 0u);
  EXPECT_GE(store.CompactionStats()[0].second.compactions, 1u);
  EXPECT_GT(store.DeltaStats()[0].second.trimmed_rows, 0u);
}

}  // namespace
}  // namespace neurosketch
