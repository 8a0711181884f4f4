// Tests for the serving subsystem: thread pool, sketch store, and the
// micro-batching serve engine (concurrency smoke, fallback routing, error
// budget) plus the serve-side metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "data/datasets.h"
#include "data/normalizer.h"
#include "nn/inference_plan.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/workload.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/thread_pool.h"

namespace neurosketch {
namespace {

using serve::ServeEngine;
using serve::ServeKey;
using serve::ServeOptions;
using serve::ServeResult;
using serve::SketchStore;

QueryFunctionSpec AvgSpec(size_t measure_col) {
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kAvg;
  spec.measure_col = measure_col;
  return spec;
}

/// Small shared fixture: a normalized GMM table, its exact engine, a
/// workload, and a quickly trained sketch.
struct ServeFixture {
  Table table;
  QueryFunctionSpec spec;
  std::vector<QueryInstance> queries;
  NeuroSketch sketch;

  static ServeFixture Make(size_t n_queries = 256, uint64_t train_seed = 7) {
    ServeFixture f;
    Dataset ds = MakeGmmDataset(2000, 3, 3, /*seed=*/5);
    f.table = Normalizer::Fit(ds.table).Transform(ds.table);
    f.spec = AvgSpec(ds.measure_col);
    ExactEngine engine(&f.table);
    WorkloadConfig wc;
    wc.seed = 99;
    WorkloadGenerator gen(f.table.num_columns(), wc);
    f.queries = gen.GenerateMany(n_queries, &engine, &f.spec);

    WorkloadConfig train_wc;
    train_wc.seed = train_seed;
    WorkloadGenerator train_gen(f.table.num_columns(), train_wc);
    auto train_q = train_gen.GenerateMany(400, &engine, &f.spec);
    auto train_a = engine.AnswerBatch(f.spec, train_q);
    NeuroSketchConfig cfg;
    cfg.tree_height = 2;
    cfg.target_partitions = 2;
    cfg.n_layers = 3;
    cfg.l_first = 16;
    cfg.l_rest = 8;
    cfg.train.epochs = 25;
    auto sk = NeuroSketch::Train(train_q, train_a, cfg);
    EXPECT_TRUE(sk.ok()) << sk.status().ToString();
    f.sketch = std::move(sk).value();
    return f;
  }
};

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), 0,
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForSerialWhenParallelismOne) {
  ThreadPool pool(4);
  size_t sum = 0;  // unsynchronized on purpose: must run on caller thread
  pool.ParallelFor(100, 1, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPoolTest, NestedParallelForFromPoolWorkersDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  std::atomic<int> outer_done{0};
  // Saturate every worker with a task that itself calls ParallelFor: the
  // callers must steal their helpers from the queue instead of waiting on
  // workers that are all busy doing exactly the same thing.
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&] {
      pool.ParallelFor(100, 0, [&](size_t) { total.fetch_add(1); });
      outer_done.fetch_add(1);
    });
  }
  while (outer_done.load() < 4) std::this_thread::yield();
  EXPECT_EQ(total.load(), 400u);
}

TEST(ThreadPoolTest, ParallelForFromManyClientThreads) {
  ThreadPool pool(2);
  std::vector<std::thread> clients;
  std::atomic<size_t> total{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      pool.ParallelFor(50, 0, [&](size_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(total.load(), 200u);
}

TEST(ExactEngineTest, BatchThreadCountsAgree) {
  ServeFixture f = ServeFixture::Make(64);
  ExactEngine engine(&f.table);
  const auto serial = engine.AnswerBatch(f.spec, f.queries, 1);
  const auto pooled = engine.AnswerBatch(f.spec, f.queries, 4);
  const auto hw = engine.AnswerBatch(f.spec, f.queries, 0);
  ASSERT_EQ(serial.size(), pooled.size());
  ASSERT_EQ(serial.size(), hw.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], pooled[i]);
    EXPECT_DOUBLE_EQ(serial[i], hw[i]);
  }
}

TEST(SketchStoreTest, VersioningAndLookup) {
  ServeFixture f = ServeFixture::Make(8);
  SketchStore store;
  const ServeKey key = ServeKey::From("gmm", f.spec);
  EXPECT_EQ(store.Lookup(key), nullptr);

  auto v1 = store.Register("gmm", f.spec, std::move(f.sketch));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1.value(), 1u);
  auto latest = store.Lookup(key);
  ASSERT_NE(latest, nullptr);

  // Registering again bumps the version and replaces the sketch: the
  // store keeps one entry per key.
  auto v2 = store.Register("gmm", f.spec, latest);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value(), 2u);
  EXPECT_EQ(store.num_sketches(), 1u);

  auto listings = store.List();
  ASSERT_EQ(listings.size(), 1u);
  EXPECT_EQ(listings[0].version, 2u);

  EXPECT_EQ(store.Unregister(key), 1u);
  EXPECT_EQ(store.Lookup(key), nullptr);
  EXPECT_EQ(store.num_sketches(), 0u);
}

TEST(SketchStoreTest, ImportFromCatalogSharesSketches) {
  ServeFixture f = ServeFixture::Make(8);
  ExactEngine engine(&f.table);
  AdvisorConfig ac;
  ac.max_buildable_aqc = 1e9;  // always build
  NeuroSketchConfig cfg;
  cfg.tree_height = 1;
  cfg.target_partitions = 1;
  cfg.n_layers = 3;
  cfg.l_first = 8;
  cfg.l_rest = 8;
  cfg.train.epochs = 5;
  SketchCatalog catalog(&engine, Advisor(ac), cfg);
  WorkloadConfig wc;
  WorkloadGenerator gen(f.table.num_columns(), wc);
  auto info = catalog.Register(f.spec, &gen, 100);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(info.value().built);

  SketchStore store;
  EXPECT_EQ(store.ImportFromCatalog("gmm", catalog), 1u);
  auto served = store.Lookup(ServeKey::From("gmm", f.spec));
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served.get(), catalog.Find(f.spec).get());  // shared, not copied
}

// The headline concurrency smoke test: N client threads submit M queries
// each through the micro-batching engine; every answer must be
// bit-identical to the serial NeuroSketch::AnswerBatch result.
TEST(ServeEngineTest, ConcurrentClientsBitIdenticalToSerial) {
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 200;
  ServeFixture f = ServeFixture::Make(kClients * kPerClient);
  const std::vector<double> expected = f.sketch.AnswerBatch(f.queries);

  SketchStore store;
  ExactEngine engine(&f.table);
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, std::move(f.sketch)).ok());

  ServeOptions opts;
  opts.max_batch = 64;
  opts.batch_window_us = 300.0;
  ServeEngine serve(&store, opts);

  std::vector<std::vector<double>> got(kClients,
                                       std::vector<double>(kPerClient));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<ServeResult>> futs;
      futs.reserve(kPerClient);
      for (size_t i = 0; i < kPerClient; ++i) {
        futs.push_back(
            serve.Submit("gmm", f.spec, f.queries[c * kPerClient + i]));
      }
      for (size_t i = 0; i < kPerClient; ++i) {
        const ServeResult r = futs[i].get();
        EXPECT_TRUE(r.used_sketch);
        got[c][i] = r.value;
      }
    });
  }
  for (auto& t : clients) t.join();

  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < kPerClient; ++i) {
      const double want = expected[c * kPerClient + i];
      // Bit-identical: the serving path must run the very same forward
      // pass math as the serial API.
      EXPECT_EQ(got[c][i], want) << "client " << c << " query " << i;
    }
  }

  const auto stats = serve.Snapshot();
  EXPECT_EQ(stats.queries, kClients * kPerClient);
  EXPECT_EQ(stats.sketch_answers, kClients * kPerClient);
  EXPECT_EQ(stats.fallback_answers, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.mean_batch_size, 1.0);  // batching actually happened
  EXPECT_GT(stats.p50_us, 0.0);
  EXPECT_LE(stats.p50_us, stats.p99_us);
  EXPECT_LE(stats.p99_us, stats.p999_us);
}

// Fallback path: no sketch registered for the query function -> every
// query routes to the exact engine and is reported as a fallback.
TEST(ServeEngineTest, UnregisteredSketchFallsBackToExact) {
  ServeFixture f = ServeFixture::Make(64);
  ExactEngine engine(&f.table);
  const auto expected = engine.AnswerBatch(f.spec, f.queries);

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  // Note: no sketch registered.
  ServeOptions opts;
  opts.max_batch = 16;
  opts.batch_window_us = 100.0;
  ServeEngine serve(&store, opts);

  std::vector<std::future<ServeResult>> futs;
  for (const auto& q : f.queries) futs.push_back(serve.Submit("gmm", f.spec, q));
  for (size_t i = 0; i < futs.size(); ++i) {
    const ServeResult r = futs[i].get();
    EXPECT_FALSE(r.used_sketch);
    EXPECT_DOUBLE_EQ(r.value, expected[i]);
  }

  const auto stats = serve.Snapshot();
  EXPECT_EQ(stats.queries, f.queries.size());
  EXPECT_EQ(stats.fallback_answers, f.queries.size());
  EXPECT_EQ(stats.sketch_answers, 0u);
  EXPECT_DOUBLE_EQ(stats.fallback_rate, 1.0);
}

// A dataset with neither sketch nor exact engine answers NaN (rather than
// hanging the client).
TEST(ServeEngineTest, UnknownDatasetAnswersNan) {
  ServeFixture f = ServeFixture::Make(4);
  SketchStore store;
  ServeOptions opts;
  opts.batch_window_us = 0.0;
  ServeEngine serve(&store, opts);
  const ServeResult r = serve.Answer("nope", f.spec, f.queries[0]);
  EXPECT_TRUE(std::isnan(r.value));
  EXPECT_FALSE(r.used_sketch);
  EXPECT_EQ(serve.Snapshot().failed_answers, 1u);
}

/// Write a loadable sketch file with the given pre-order `routing` and
/// one small untrained (finite) model per entry of `scales`, each leaf's
/// answer being its model's output times its scale. A NaN scale makes
/// every answer of that leaf NaN: a leaf that cannot answer.
std::string WriteSketchFile(const std::string& name, size_t qdim,
                            const std::vector<double>& routing,
                            const std::vector<double>& scales) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  const uint64_t dim = qdim;
  out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
  const uint64_t rsize = routing.size();
  out.write(reinterpret_cast<const char*>(&rsize), sizeof(rsize));
  out.write(reinterpret_cast<const char*>(routing.data()),
            static_cast<std::streamsize>(rsize * sizeof(double)));
  const uint64_t nmodels = scales.size();
  out.write(reinterpret_cast<const char*>(&nmodels), sizeof(nmodels));
  const std::vector<double> means(scales.size(), 0.0);
  out.write(reinterpret_cast<const char*>(means.data()),
            static_cast<std::streamsize>(nmodels * sizeof(double)));
  out.write(reinterpret_cast<const char*>(scales.data()),
            static_cast<std::streamsize>(nmodels * sizeof(double)));
  nn::MlpConfig cfg;
  cfg.in_dim = qdim;
  cfg.hidden = {4};
  const nn::Mlp model(cfg, /*seed=*/321);
  for (size_t i = 0; i < scales.size(); ++i) {
    EXPECT_TRUE(
        nn::SaveCompiledMlp(nn::CompiledMlp::FromMlp(model), &out).ok());
  }
  return path;
}

/// A loadable sketch whose routing is a single leaf that answers NaN:
/// every Answer is NaN, exercising the error budget.
std::string WriteBrokenSketchFile(size_t qdim) {
  return WriteSketchFile("ns_broken.sketch", qdim, {-1.0, 0.0},
                         {std::numeric_limits<double>::quiet_NaN()});
}

// Error budget: a sketch that cannot answer anything gets demoted after
// budget_min_samples failures and the store entry serves exact-only, while
// every individual answer is still repaired by the exact engine.
TEST(ServeEngineTest, ErrorBudgetDemotesFailingSketch) {
  ServeFixture f = ServeFixture::Make(128);
  ExactEngine engine(&f.table);
  const auto expected = engine.AnswerBatch(f.spec, f.queries);

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  const std::string path = WriteBrokenSketchFile(2 * f.table.num_columns());
  auto ver = store.RegisterFromFile("gmm", f.spec, path);
  ASSERT_TRUE(ver.ok()) << ver.status().ToString();
  std::remove(path.c_str());

  ServeOptions opts;
  opts.max_batch = 16;
  opts.batch_window_us = 50.0;
  opts.budget_min_samples = 32;
  opts.max_sketch_failure_rate = 0.5;
  ServeEngine serve(&store, opts);

  std::vector<std::future<ServeResult>> futs;
  for (const auto& q : f.queries) futs.push_back(serve.Submit("gmm", f.spec, q));
  for (size_t i = 0; i < futs.size(); ++i) {
    const ServeResult r = futs[i].get();
    EXPECT_FALSE(r.used_sketch);
    EXPECT_DOUBLE_EQ(r.value, expected[i]);  // repaired per query
  }

  const auto stats = serve.Snapshot();
  EXPECT_EQ(stats.queries, f.queries.size());
  EXPECT_EQ(stats.fallback_answers, f.queries.size());
  EXPECT_EQ(stats.budget_trips, 1u);  // demoted exactly once
}

/// A loadable sketch whose routing splits dimension 0 at 0.5: the left
/// leaf has a real (untrained but finite) model, the right leaf answers
/// NaN, so a deterministic fraction of the workload NaNs — a NaN storm
/// that exercises the error-budget math with mixed traffic.
std::string WriteHalfBrokenSketchFile(size_t qdim) {
  // Pre-order: internal (dim 0, split 0.5), leaf 0, leaf 1.
  return WriteSketchFile("ns_half_broken.sketch", qdim,
                         {0.0, 0.5, -1.0, 0.0, -1.0, 1.0},
                         {1.0, std::numeric_limits<double>::quiet_NaN()});
}

// Corrected error-budget math: repaired (NaN) queries must not count as
// sketch answers. With a sketch that NaNs on a fixed fraction of traffic,
// a failure rate between nans/attempts (the old, diluted denominator) and
// nans/genuine must still demote — under the old accounting it never
// would.
TEST(ServeEngineTest, BudgetCountsOnlyGenuineSketchAnswers) {
  ServeFixture f = ServeFixture::Make(256);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  const std::string path =
      WriteHalfBrokenSketchFile(2 * f.table.num_columns());
  ASSERT_TRUE(store.RegisterFromFile("gmm", f.spec, path).ok());
  std::remove(path.c_str());

  // Ground truth for this workload straight from the registered sketch.
  auto sketch = store.Lookup(ServeKey::From("gmm", f.spec));
  ASSERT_NE(sketch, nullptr);
  const auto direct = sketch->AnswerBatch(f.queries);
  size_t nans = 0;
  for (double a : direct) nans += std::isnan(a) ? 1 : 0;
  const size_t genuine = f.queries.size() - nans;
  ASSERT_GT(nans, 0u) << "workload never hits the broken leaf";
  ASSERT_GT(genuine, 0u) << "workload never hits the healthy leaf";

  const double diluted =
      static_cast<double>(nans) / static_cast<double>(f.queries.size());
  const double corrected =
      static_cast<double>(nans) / static_cast<double>(genuine);
  ASSERT_LT(diluted, corrected);

  ServeOptions opts;
  opts.max_batch = f.queries.size();  // one batch, one budget update
  opts.batch_window_us = 10000.0;
  opts.budget_min_samples = f.queries.size();
  opts.max_sketch_failure_rate = 0.5 * (diluted + corrected);
  {
    ServeEngine serve(&store, opts);
    (void)serve.SubmitMany("gmm", f.spec, f.queries).get();
    const auto stats = serve.Snapshot();
    EXPECT_EQ(stats.sketch_answers, genuine);  // repairs excluded
    EXPECT_EQ(stats.fallback_answers + stats.failed_answers, nans);
    EXPECT_EQ(stats.budget_trips, 1u)
        << "rate above nans/attempts but below nans/genuine must demote";
    // Demoted: the next wave is answered exact-only.
    auto repaired = serve.SubmitMany("gmm", f.spec, f.queries).get();
    for (const auto& r : repaired) EXPECT_FALSE(r.used_sketch);
  }
  {
    // Just above the corrected threshold: the budget must hold.
    ServeOptions lax = opts;
    lax.max_sketch_failure_rate = corrected * 1.05;
    ServeEngine serve(&store, lax);
    (void)serve.SubmitMany("gmm", f.spec, f.queries).get();
    EXPECT_EQ(serve.Snapshot().budget_trips, 0u);
  }
}

// f32-tier serving: a sketch trained with f32 plans reports its tier in
// the store listing and the engine counts its answers as f32.
TEST(ServeEngineTest, F32SketchAnswersAreCounted) {
  ServeFixture f = ServeFixture::Make(64);
  ExactEngine engine(&f.table);
  ASSERT_TRUE(f.sketch.EnableF32(
      f.queries, NeuroSketchConfig().f32_error_bound));
  ASSERT_EQ(f.sketch.plan_precision(), PlanPrecision::kF32);

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, std::move(f.sketch)).ok());
  const auto listings = store.List();
  ASSERT_EQ(listings.size(), 1u);
  EXPECT_EQ(listings[0].precision, PlanPrecision::kF32);

  ServeOptions opts;
  opts.max_batch = 16;
  opts.batch_window_us = 100.0;
  ServeEngine serve(&store, opts);
  auto results = serve.SubmitMany("gmm", f.spec, f.queries).get();
  size_t sketch_answered = 0;
  for (const auto& r : results) sketch_answered += r.used_sketch ? 1 : 0;

  const auto stats = serve.Snapshot();
  EXPECT_EQ(stats.sketch_answers, sketch_answered);
  EXPECT_EQ(stats.f32_sketch_answers, sketch_answered);
  EXPECT_GT(stats.f32_sketch_answers, 0u);
}

// Per-store accounting: traffic split across two datasets — one with a
// sketch, one exact-only — must come back attributed per store, with the
// per-store counters summing to the engine totals.
TEST(ServeEngineTest, PerStoreStatsAttributeTrafficByKey) {
  ServeFixture f = ServeFixture::Make(96);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("hot", &engine).ok());
  ASSERT_TRUE(store.RegisterDataset("cold", &engine).ok());
  ASSERT_TRUE(store.Register("hot", f.spec, std::move(f.sketch)).ok());
  // No sketch for "cold": exact fallback only.

  ServeOptions opts;
  opts.max_batch = 16;
  opts.batch_window_us = 100.0;
  ServeEngine serve(&store, opts);
  // Skewed load: 2/3 of the traffic on the hot store.
  std::vector<QueryInstance> hot_q(f.queries.begin(), f.queries.begin() + 64);
  std::vector<QueryInstance> cold_q(f.queries.begin() + 64, f.queries.end());
  auto hot_fut = serve.SubmitMany("hot", f.spec, hot_q);
  auto cold_fut = serve.SubmitMany("cold", f.spec, cold_q);
  const auto hot_res = hot_fut.get();
  const auto cold_res = cold_fut.get();
  ASSERT_EQ(hot_res.size(), 64u);
  ASSERT_EQ(cold_res.size(), 32u);

  const auto stats = serve.Snapshot();
  ASSERT_EQ(stats.per_store.size(), 2u);  // sorted by display key
  const auto& cold = stats.per_store[0];
  const auto& hot = stats.per_store[1];
  EXPECT_EQ(cold.store.rfind("cold/", 0), 0u) << cold.store;
  EXPECT_EQ(hot.store.rfind("hot/", 0), 0u) << hot.store;

  EXPECT_EQ(hot.queries, 64u);
  EXPECT_EQ(cold.queries, 32u);
  EXPECT_EQ(cold.sketch_answers, 0u);
  EXPECT_EQ(cold.fallback_answers, 32u);
  EXPECT_DOUBLE_EQ(cold.fallback_rate, 1.0);
  EXPECT_FALSE(cold.demoted);
  size_t hot_sketch = 0;
  for (const auto& r : hot_res) hot_sketch += r.used_sketch ? 1 : 0;
  EXPECT_EQ(hot.sketch_answers, hot_sketch);
  EXPECT_GT(hot.sketch_answers, 0u);

  // Per-store counters must sum to the engine-wide totals (all futures
  // resolved => all Fulfills landed).
  EXPECT_EQ(hot.queries + cold.queries, stats.queries);
  EXPECT_EQ(hot.sketch_answers + cold.sketch_answers, stats.sketch_answers);
  EXPECT_EQ(hot.fallback_answers + cold.fallback_answers,
            stats.fallback_answers);
  EXPECT_EQ(hot.latency.count, hot.queries);
  EXPECT_GT(hot.latency.p99_us, 0.0);
  EXPECT_LE(hot.latency.p99_us, hot.latency.p999_us);
}

// ResetStats restarts the whole stats window as one operation: counters,
// histograms (engine, stage, per-store), the slow-query ring, and the
// elapsed clock all restart together.
TEST(ServeEngineTest, ResetStatsRestartsTheWindowAtomically) {
  ServeFixture f = ServeFixture::Make(64);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, std::move(f.sketch)).ok());
  ServeOptions opts;
  opts.max_batch = 16;
  opts.batch_window_us = 50.0;
  ServeEngine serve(&store, opts);

  (void)serve.SubmitMany("gmm", f.spec, f.queries).get();
  // A demotion is error-budget state, not stats: it must survive.
  serve.DemoteStore("gmm", f.spec);
  const auto before = serve.Snapshot();
  EXPECT_EQ(before.queries, f.queries.size());
  EXPECT_GT(before.batches, 0u);
  EXPECT_EQ(before.budget_trips, 1u);
  EXPECT_GT(before.p50_us, 0.0);
  EXPECT_GT(before.stage_fulfill.count, 0u);

  serve.ResetStats();
  const auto after = serve.Snapshot();
  for (const serve::CounterInfo& c : serve::kCounterTable) {
    EXPECT_EQ(after.*c.field, 0u) << c.name;
    for (const auto& ss : after.per_store) {
      EXPECT_EQ(ss.*c.field, 0u) << c.name;
    }
    for (const auto& sd : after.per_shard) {
      EXPECT_EQ(sd.*c.field, 0u) << c.name;
    }
  }
  EXPECT_DOUBLE_EQ(after.p50_us, 0.0);
  EXPECT_DOUBLE_EQ(after.p999_us, 0.0);
  for (const auto* stage : {&after.stage_queue, &after.stage_assembly,
                            &after.stage_inference, &after.stage_fulfill}) {
    EXPECT_EQ(stage->count, 0u);
  }
  EXPECT_LT(after.elapsed_seconds, before.elapsed_seconds);
  ASSERT_EQ(after.per_store.size(), 1u);
  EXPECT_EQ(after.per_store[0].latency.count, 0u);
  EXPECT_TRUE(after.per_store[0].demoted);
  for (const auto& sd : after.per_shard) {
    EXPECT_EQ(sd.latency.count, 0u);
    EXPECT_EQ(sd.backpressure_waits, 0u);
  }
  EXPECT_TRUE(serve.SlowQueries().empty());

  // The window is live again: new traffic counts from zero.
  (void)serve.SubmitMany("gmm", f.spec, f.queries).get();
  EXPECT_EQ(serve.Snapshot().queries, f.queries.size());
}

/// Polls Snapshot until the stage-histogram adds of the final batch land.
serve::ServeStats SettledSnapshot(const ServeEngine& serve) {
  serve::ServeStats s = serve.Snapshot();
  for (int spin = 0; spin < 2000; ++spin) {
    if (s.batches > 0 && s.stage_fulfill.count >= s.batches &&
        s.stage_queue.count >= s.queries) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    s = serve.Snapshot();
  }
  return s;
}

// Stage tracing splits submit->publish into queue / assembly / inference /
// fulfill: queue counts requests, the other stages count micro-batches.
TEST(ServeEngineTest, StageTracingRecordsPerStageHistograms) {
  ServeFixture f = ServeFixture::Make(128);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, std::move(f.sketch)).ok());
  ServeOptions opts;
  opts.max_batch = 32;
  opts.batch_window_us = 100.0;
  ASSERT_TRUE(opts.stage_tracing);  // tracing is the default
  ServeEngine serve(&store, opts);
  (void)serve.SubmitMany("gmm", f.spec, f.queries).get();

  const auto stats = SettledSnapshot(serve);
  EXPECT_TRUE(stats.stage_tracing);
  EXPECT_EQ(stats.stage_queue.count, stats.queries);
  EXPECT_EQ(stats.stage_assembly.count, stats.batches);
  EXPECT_EQ(stats.stage_inference.count, stats.batches);
  EXPECT_EQ(stats.stage_fulfill.count, stats.batches);
  // Queue wait dominates under a 100us window; inference is live too.
  EXPECT_GT(stats.stage_queue.p50_us, 0.0);
  EXPECT_LE(stats.stage_queue.p50_us, stats.stage_queue.p999_us);
}

TEST(ServeEngineTest, TracingOffSkipsStagesAndRing) {
  ServeFixture f = ServeFixture::Make(64);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, std::move(f.sketch)).ok());
  ServeOptions opts;
  opts.max_batch = 16;
  opts.batch_window_us = 50.0;
  opts.stage_tracing = false;
  ServeEngine serve(&store, opts);
  (void)serve.SubmitMany("gmm", f.spec, f.queries).get();

  const auto stats = serve.Snapshot();
  EXPECT_FALSE(stats.stage_tracing);
  EXPECT_EQ(stats.stage_queue.count, 0u);
  EXPECT_EQ(stats.stage_inference.count, 0u);
  EXPECT_TRUE(serve.SlowQueries().empty());
  // The always-on aggregate view still works.
  EXPECT_EQ(stats.queries, f.queries.size());
  EXPECT_GT(stats.p50_us, 0.0);
  ASSERT_EQ(stats.per_store.size(), 1u);
  EXPECT_EQ(stats.per_store[0].queries, f.queries.size());
}

// The slow-query ring holds the K slowest answers with a stage breakdown
// that sums back to the total.
TEST(ServeEngineTest, SlowQueryRingCapturesStageBreakdown) {
  ServeFixture f = ServeFixture::Make(256);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, std::move(f.sketch)).ok());
  ServeOptions opts;
  opts.max_batch = 32;
  opts.batch_window_us = 100.0;
  opts.slow_query_capacity = 4;
  ServeEngine serve(&store, opts);
  (void)serve.SubmitMany("gmm", f.spec, f.queries).get();
  (void)SettledSnapshot(serve);

  const auto slow = serve.SlowQueries();
  ASSERT_GE(slow.size(), 1u);
  ASSERT_LE(slow.size(), 4u);
  for (size_t i = 1; i < slow.size(); ++i) {
    EXPECT_GE(slow[i - 1].total_us, slow[i].total_us);  // slowest first
  }
  for (const auto& t : slow) {
    EXPECT_GT(t.total_us, 0.0);
    EXPECT_GE(t.queue_us, 0.0);
    EXPECT_GE(t.assembly_us, 0.0);
    EXPECT_GE(t.inference_us, 0.0);
    EXPECT_GE(t.fulfill_us, 0.0);
    // Stages partition the total (fulfill is the clamped residual).
    EXPECT_LE(t.queue_us + t.assembly_us + t.inference_us, t.total_us + 1e-6);
    EXPECT_EQ(t.store, slow.front().store);
    EXPECT_FALSE(t.tier.empty());
    EXPECT_GT(t.batch_size, 0u);
  }
}

// ExportMetrics mirrors serve counters + histograms into a registry whose
// text exposition is then one uniform document.
TEST(ServeEngineTest, ExportMetricsProducesExposition) {
  ServeFixture f = ServeFixture::Make(64);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, std::move(f.sketch)).ok());
  ServeOptions opts;
  opts.max_batch = 16;
  opts.batch_window_us = 50.0;
  ServeEngine serve(&store, opts);
  (void)serve.SubmitMany("gmm", f.spec, f.queries).get();

  metrics::MetricsRegistry reg;
  serve.ExportMetrics(&reg);
  const std::string text = reg.TextExposition();
  EXPECT_NE(text.find("# TYPE nsketch_serve_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_queries_total " +
                      std::to_string(f.queries.size())),
            std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_latency_us_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_stage_us_bucket{stage=\"queue\",le=\""),
            std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_store_queries_total{store=\"gmm/"),
            std::string::npos);

  // The exported surface: exactly these metric families, no more, no less.
  std::set<std::string> families;
  const std::string type_tag = "# TYPE nsketch_serve_";
  for (size_t pos = text.find(type_tag); pos != std::string::npos;
       pos = text.find(type_tag, pos + 1)) {
    const size_t from = pos + type_tag.size();
    families.insert(text.substr(from, text.find(' ', from) - from));
  }
  const std::set<std::string> want = {
      "batches_total",
      "budget_trips_total",
      "delta_corrected_answers_total",
      "delta_exact_answers_total",
      "elapsed_seconds",
      "evictions_total",
      "f32_sketch_answers_total",
      "failed_answers_total",
      "fallback_answers_total",
      "faultin_hits_total",
      "faultins_total",
      "latency_us",
      "mean_batch_size",
      "queries_total",
      "resident_budget_bytes",
      "resident_bytes",
      "resident_bytes_peak",
      "shard_backpressure_waits_total",
      "shard_batches_total",
      "shard_p99_us",
      "shard_queries_total",
      "shard_resident_keys",
      "shards",
      "sketch_answers_total",
      "stage_us",
      "store_demoted",
      "store_failed_answers_total",
      "store_fallback_answers_total",
      "store_p99_us",
      "store_queries_total",
      "store_sketch_answers_total",
  };
  EXPECT_EQ(families, want);

  // Labeled series carry the same values as the Snapshot rows.
  const auto stats = serve.Snapshot();
  ASSERT_EQ(stats.per_shard.size(), serve.num_shards());
  for (const auto& sd : stats.per_shard) {
    EXPECT_NE(text.find("nsketch_serve_shard_queries_total{shard=\"" +
                        std::to_string(sd.shard) + "\"} " +
                        std::to_string(sd.queries) + "\n"),
              std::string::npos)
        << "shard " << sd.shard;
  }
  ASSERT_EQ(stats.per_store.size(), 1u);
  for (const auto& ss : stats.per_store) {
    EXPECT_NE(text.find("nsketch_serve_store_queries_total{store=\"" +
                        ss.store + "\"} " + std::to_string(ss.queries) +
                        "\n"),
              std::string::npos)
        << ss.store;
  }
}

// Two keys on one dataset with the same aggregate and measure column but
// different predicate families are different stores: their labels must
// differ, or one key's exported series would overwrite the other's.
TEST(ServeEngineTest, StoreLabelsTellPredicateFamiliesApart) {
  ServeFixture f = ServeFixture::Make(40);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  QueryFunctionSpec circular = f.spec;
  circular.predicate = CircularPredicate::Make(2);
  std::vector<QueryInstance> circular_q;
  for (int i = 0; i < 24; ++i) {
    circular_q.emplace_back(std::vector<double>{0.3 + 0.01 * i, 0.5, 0.4});
  }
  ServeOptions opts;
  opts.max_batch = 16;
  opts.batch_window_us = 50.0;
  ServeEngine serve(&store, opts);
  (void)serve.SubmitMany("gmm", f.spec, f.queries).get();
  (void)serve.SubmitMany("gmm", circular, circular_q).get();

  const std::string axis_label = "gmm/" + f.spec.ToString();
  const std::string circular_label = "gmm/" + circular.ToString();
  EXPECT_EQ(axis_label, "gmm/AVG(col " + std::to_string(f.spec.measure_col) +
                            ") WHERE axis_range");
  const auto stats = serve.Snapshot();
  ASSERT_EQ(stats.per_store.size(), 2u);
  EXPECT_EQ(stats.per_store[0].store, axis_label);
  EXPECT_EQ(stats.per_store[0].queries, f.queries.size());
  EXPECT_EQ(stats.per_store[1].store, circular_label);
  EXPECT_EQ(stats.per_store[1].queries, circular_q.size());

  metrics::MetricsRegistry reg;
  serve.ExportMetrics(&reg);
  const std::string text = reg.TextExposition();
  EXPECT_NE(text.find("nsketch_serve_store_queries_total{store=\"" +
                      axis_label + "\"} " +
                      std::to_string(f.queries.size()) + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nsketch_serve_store_queries_total{store=\"" +
                      circular_label + "\"} " +
                      std::to_string(circular_q.size()) + "\n"),
            std::string::npos)
      << text;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

// The engine keeps each key's resolved store slot across batches and
// revalidates it by the store's write epoch. One engine serves one key
// while the store changes between requests, one write at a time: the
// next answer after every write must bit-equal the new state's reference.
TEST(ServeEngineTest, CachedSlotFollowsEveryStoreWrite) {
  ServeFixture f = ServeFixture::Make(4);
  auto a = std::make_shared<const NeuroSketch>(std::move(f.sketch));
  auto b = std::make_shared<const NeuroSketch>(
      std::move(ServeFixture::Make(4, /*train_seed=*/8).sketch));
  const std::vector<QueryInstance>& qs = f.queries;
  const ServeKey key = ServeKey::From("gmm", f.spec);
  ExactEngine engine(&f.table);
  SketchStore store;
  ServeOptions opts;
  opts.num_shards = 1;
  opts.batch_window_us = 0.0;
  ServeEngine serve(&store, opts);

  int step = 0;
  std::vector<double> last;
  // Answers every query through the engine, one Submit each, and checks
  // them against `want` bit for bit — and that the step changed them.
  auto expect_served = [&](const std::vector<double>& want,
                           bool used_sketch) {
    ++step;
    ASSERT_EQ(want.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      const ServeResult r = serve.Answer("gmm", f.spec, qs[i]);
      EXPECT_TRUE(SameBits(r.value, want[i]))
          << "step " << step << " query " << i << ": " << r.value
          << " != " << want[i];
      EXPECT_EQ(r.used_sketch, used_sketch) << "step " << step;
      if (!last.empty()) {
        EXPECT_FALSE(SameBits(want[i], last[i]))
            << "step " << step << " does not change query " << i;
      }
    }
    last = want;
  };

  // The first Submit: neither an exact engine nor a sketch.
  for (const QueryInstance& q : qs) {
    EXPECT_TRUE(std::isnan(serve.Answer("gmm", f.spec, q).value));
  }
  const std::vector<double> exact = engine.AnswerBatch(f.spec, qs);
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  expect_served(exact, false);
  ASSERT_TRUE(store.Register("gmm", f.spec, a).ok());
  expect_served(a->AnswerBatch(qs), true);
  ASSERT_TRUE(store.Register("gmm", f.spec, b).ok());
  expect_served(b->AnswerBatch(qs), true);
  ASSERT_EQ(store.Unregister(key), 1u);
  expect_served(exact, false);

  // A paged catalog holding `a` for the key; a registration shadows the
  // cold entry, and dropping it reveals the entry again.
  const std::string path = testing::TempDir() + "/ns_slot_epoch.cat";
  ASSERT_TRUE(WritePagedCatalog(path, {{key.fn, a}}).ok());
  auto attached = store.AttachPagedCatalog("gmm", path);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  expect_served(a->AnswerBatch(qs), true);
  ASSERT_TRUE(store.Register("gmm", f.spec, b).ok());
  expect_served(b->AnswerBatch(qs), true);
  ASSERT_EQ(store.Unregister(key), 1u);
  expect_served(a->AnswerBatch(qs), true);

  // Streaming turned on after the key's first batches: one appended row
  // at the centre of each query's box, so every (AVG) answer composes
  // the delta and is recomputed exactly over base + appended rows.
  const size_t d = f.table.num_columns();
  std::vector<std::vector<double>> rows;
  for (const QueryInstance& q : qs) {
    std::vector<double> row(d);
    for (size_t c = 0; c < d; ++c) row[c] = q[c] + 0.5 * q[d + c];
    rows.push_back(std::move(row));
  }
  Table merged = f.table;
  for (const auto& row : rows) ASSERT_TRUE(merged.AppendRow(row).ok());
  ASSERT_TRUE(store.EnableStreaming("gmm", d).ok());
  ASSERT_TRUE(store.AppendRows("gmm", rows).ok());
  expect_served(ExactEngine(&merged).AnswerBatch(f.spec, qs), false);
  std::remove(path.c_str());
}

TEST(LatencyHistogramTest, PercentilesLandInBucketTolerance) {
  serve::LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Add(100.0);
  EXPECT_EQ(h.TotalCount(), 1000u);
  // Log-bucketed: the midpoint is within ~19% of the true value.
  EXPECT_NEAR(h.PercentileUs(50), 100.0, 20.0);
  for (int i = 0; i < 9000; ++i) h.Add(10.0);
  EXPECT_NEAR(h.PercentileUs(50), 10.0, 2.0);
  EXPECT_NEAR(h.PercentileUs(99), 100.0, 20.0);
}

}  // namespace
}  // namespace neurosketch
