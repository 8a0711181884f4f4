// Tests for the shard-per-core serving engine: the wait-free MPSC
// submission ring, the stable key->shard router, the cross-shard
// behavior of ServeEngine (burst routing, stats resets under traffic,
// and a multi-threaded hammer that doubles as the TSan workload), and
// group publication of answers (newest first, bounded hold).
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/neurosketch.h"
#include "data/datasets.h"
#include "data/normalizer.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/workload.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/mpsc_queue.h"
#include "util/shard_router.h"

// ThreadSanitizer slows the dispatcher by an order of magnitude; see
// PipelinedClientWakesOncePerGroup.
#if defined(__SANITIZE_THREAD__)
#define NEUROSKETCH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NEUROSKETCH_TSAN 1
#endif
#endif

namespace neurosketch {
namespace {

using serve::ServeEngine;
using serve::ServeKey;
using serve::ServeOptions;
using serve::ServeResult;
using serve::SketchStore;

// ---------------------------------------------------------------------
// MpscRing
// ---------------------------------------------------------------------

TEST(MpscRingTest, FifoSingleThread) {
  MpscRing<int> ring(8);
  EXPECT_TRUE(ring.Empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.Push(i));
  EXPECT_FALSE(ring.Empty());
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPop(&v));
    EXPECT_EQ(v, i);  // strict FIFO
  }
  EXPECT_TRUE(ring.Empty());
  EXPECT_FALSE(ring.TryPop(&v));
}

TEST(MpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(MpscRing<int>(64).capacity(), 64u);
}

TEST(MpscRingTest, ConcurrentProducersDeliverEveryItemExactlyOnce) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 2000;
  MpscRing<int> ring(64);  // smaller than the traffic: exercises wrap
  std::vector<int> seen;
  seen.reserve(kProducers * kPerProducer);
  std::thread consumer([&] {
    int v;
    while (seen.size() < kProducers * kPerProducer) {
      if (ring.TryPop(&v)) {
        seen.push_back(v);
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ring.Push(p * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(seen[i], i);  // every item exactly once, none invented
  }
}

TEST(MpscRingTest, FullRingSignalsBackpressureAndLosesNothing) {
  constexpr int kItems = 64;
  MpscRing<int> ring(4);
  std::atomic<int> backpressured{0};
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      if (!ring.Push(i)) backpressured.fetch_add(1);
    }
  });
  // Let the producer hit the full ring before draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<int> seen;
  int v;
  while (seen.size() < kItems) {
    if (ring.TryPop(&v)) seen.push_back(v);
  }
  producer.join();
  EXPECT_GT(backpressured.load(), 0);  // the ring really filled up
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[i], i);  // single producer: order also survives
  }
}

// ---------------------------------------------------------------------
// ShardRouter / ServeKey::Hash
// ---------------------------------------------------------------------

TEST(ShardRouterTest, RoutesAreStableInRangeAndSpread) {
  ShardRouter router(4);
  std::set<size_t> used;
  for (uint64_t k = 0; k < 256; ++k) {
    const uint64_t h = Fnv1a64(k);
    const size_t s = router.ShardOf(h);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, router.ShardOf(h));  // pure function
    used.insert(s);
  }
  // 256 distinct hashes over 4 shards: every shard gets traffic.
  EXPECT_EQ(used.size(), 4u);
}

TEST(ShardRouterTest, ZeroOrOneShardAlwaysRoutesToZero) {
  ShardRouter one(1), zero(0);
  for (uint64_t k = 0; k < 32; ++k) {
    EXPECT_EQ(one.ShardOf(Fnv1a64(k)), 0u);
    EXPECT_EQ(zero.ShardOf(Fnv1a64(k)), 0u);
  }
}

TEST(ServeKeyHashTest, PureFunctionOfKeyFields) {
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kAvg;
  spec.measure_col = 2;
  const ServeKey a = ServeKey::From("ds", spec);
  const ServeKey b = ServeKey::From("ds", spec);
  EXPECT_EQ(a.Hash(), b.Hash());

  EXPECT_NE(ServeKey::From("ds2", spec).Hash(), a.Hash());
  QueryFunctionSpec other_col = spec;
  other_col.measure_col = 3;
  EXPECT_NE(ServeKey::From("ds", other_col).Hash(), a.Hash());
  QueryFunctionSpec other_agg = spec;
  other_agg.agg = Aggregate::kSum;
  EXPECT_NE(ServeKey::From("ds", other_agg).Hash(), a.Hash());
}

// ---------------------------------------------------------------------
// ReadyList: the dispatcher's pick over keys with pending queries
// ---------------------------------------------------------------------

// A span's completion is named by its filing order on the key.
struct FakeSpan {
  int completion;
  size_t next, end;
  std::chrono::steady_clock::time_point enqueued;
};
struct FakePiece {
  int completion;
  size_t begin, count;
};
struct FakeKeyState {
  std::deque<FakeSpan> pending;
  size_t queued = 0;
  int filed = 0;
};
using FakeReadyList = serve::ReadyList<FakeKeyState>;
using std::chrono::microseconds;

ServeKey NamedKey(const std::string& dataset) {
  return ServeKey{dataset, QueryFunctionKey{"axis_range", Aggregate::kAvg, 0}};
}

// Files one span of `n` queries on `st`, enqueued at `at`, listing the key
// the way the engine does: on the empty -> non-empty transition.
void Enqueue(FakeReadyList* ready, const ServeKey* key, FakeKeyState* st,
             std::chrono::steady_clock::time_point at, size_t n) {
  if (st->pending.empty()) ready->Add(key, st);
  st->pending.push_back({st->filed++, 0, n, at});
  st->queued += n;
}

size_t QueriesIn(const std::vector<FakePiece>& batch) {
  size_t n = 0;
  for (const FakePiece& p : batch) n += p.count;
  return n;
}

void ExpectPiece(const FakePiece& p, int completion, size_t begin,
                 size_t count) {
  EXPECT_EQ(p.completion, completion);
  EXPECT_EQ(p.begin, begin);
  EXPECT_EQ(p.count, count);
}

constexpr microseconds kWindow{200};

TEST(ReadyListTest, EarliestExpiredDeadlineWins) {
  const auto now = std::chrono::steady_clock::now();
  const ServeKey a = NamedKey("a"), b = NamedKey("b"), c = NamedKey("c");
  FakeKeyState sa, sb, sc;
  FakeReadyList ready;
  Enqueue(&ready, &a, &sa, now - microseconds(300), 1);
  Enqueue(&ready, &b, &sb, now - microseconds(500), 1);
  Enqueue(&ready, &c, &sc, now - microseconds(250), 1);
  const auto pick = ready.Next(now, kWindow, 16, /*stopping=*/false);
  ASSERT_LT(pick.chosen, ready.size());
  EXPECT_EQ(ready[pick.chosen].key, &b);
  EXPECT_FALSE(pick.have_deadline);  // every listed key is dispatchable
}

TEST(ReadyListTest, EqualDeadlinesGoToTheSmallerKey) {
  const auto now = std::chrono::steady_clock::now();
  const ServeKey small = NamedKey("a"), large = NamedKey("b");
  FakeKeyState s_small, s_large;
  FakeReadyList ready;
  // Listed larger-first, so list order cannot be what decides.
  Enqueue(&ready, &large, &s_large, now - microseconds(400), 1);
  Enqueue(&ready, &small, &s_small, now - microseconds(400), 1);
  auto pick = ready.Next(now, kWindow, 16, false);
  ASSERT_LT(pick.chosen, ready.size());
  EXPECT_EQ(ready[pick.chosen].key, &small);
  // The same holds for a zero window (everything dispatchable at once).
  pick = ready.Next(now, microseconds(0), 16, false);
  ASSERT_LT(pick.chosen, ready.size());
  EXPECT_EQ(ready[pick.chosen].key, &small);
}

TEST(ReadyListTest, FullQueueIsDispatchableBeforeItsWindow) {
  const auto now = std::chrono::steady_clock::now();
  const ServeKey full = NamedKey("full"), waiting = NamedKey("waiting");
  FakeKeyState s_full, s_waiting;
  FakeReadyList ready;
  Enqueue(&ready, &waiting, &s_waiting, now - microseconds(50), 3);
  // Nothing is dispatchable yet: the timed wait targets the window.
  auto pick = ready.Next(now, kWindow, 4, false);
  EXPECT_EQ(pick.chosen, ready.size());
  ASSERT_TRUE(pick.have_deadline);
  EXPECT_EQ(pick.earliest, now - microseconds(50) + kWindow);
  // A younger key whose queue reaches max_batch dispatches at once, while
  // the older, short queue keeps waiting on its window.
  Enqueue(&ready, &full, &s_full, now, 4);
  pick = ready.Next(now, kWindow, 4, false);
  ASSERT_LT(pick.chosen, ready.size());
  EXPECT_EQ(ready[pick.chosen].key, &full);
  ASSERT_TRUE(pick.have_deadline);
  EXPECT_EQ(pick.earliest, now - microseconds(50) + kWindow);
  // Stopping makes every listed key dispatchable.
  FakeReadyList lone;
  FakeKeyState s_lone;
  Enqueue(&lone, &waiting, &s_lone, now, 1);
  EXPECT_EQ(lone.Next(now, kWindow, 4, /*stopping=*/true).chosen, 0u);
}

TEST(ReadyListTest, PartialTakeStaysListedAndDrainedKeyLeaves) {
  const auto now = std::chrono::steady_clock::now();
  const ServeKey a = NamedKey("a"), b = NamedKey("b");
  FakeKeyState sa, sb;
  FakeReadyList ready;
  Enqueue(&ready, &a, &sa, now - microseconds(900), 10);
  Enqueue(&ready, &b, &sb, now - microseconds(800), 2);
  // A second filing into a listed key must not list it twice.
  Enqueue(&ready, &a, &sa, now - microseconds(700), 2);
  ASSERT_EQ(ready.size(), 2u);

  std::vector<FakePiece> batch;
  auto pick = ready.Next(now, kWindow, 4, false);
  ASSERT_EQ(ready[pick.chosen].key, &a);
  ready.Take(pick.chosen, 4, &batch);  // 12 pending > max_batch 4
  ASSERT_EQ(batch.size(), 1u);
  ExpectPiece(batch[0], 0, 0, 4);  // FIFO: the first four queries
  EXPECT_EQ(sa.queued, 8u);
  EXPECT_EQ(ready.size(), 2u);  // the partial take leaves `a` listed

  // `a`'s front is still the oldest; two more takes drain it.
  for (int round = 0; round < 2; ++round) {
    batch.clear();
    pick = ready.Next(now, kWindow, 4, false);
    ASSERT_EQ(ready[pick.chosen].key, &a);
    ready.Take(pick.chosen, 4, &batch);
    EXPECT_EQ(QueriesIn(batch), 4u);
  }
  EXPECT_TRUE(sa.pending.empty());
  ASSERT_EQ(ready.size(), 1u);  // drained: unlisted
  EXPECT_EQ(ready[0].key, &b);

  batch.clear();
  pick = ready.Next(now, kWindow, 4, false);
  ASSERT_EQ(pick.chosen, 0u);
  ready.Take(pick.chosen, 4, &batch);
  EXPECT_EQ(QueriesIn(batch), 2u);
  EXPECT_TRUE(ready.empty());
  pick = ready.Next(now, kWindow, 4, false);
  EXPECT_EQ(pick.chosen, 0u);  // == size(): nothing to dispatch
  EXPECT_FALSE(pick.have_deadline);

  // A drained key rejoins on its next filing.
  Enqueue(&ready, &a, &sa, now, 1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].key, &a);
}

TEST(ReadyListTest, LongSpanIsCutIntoMaxBatchPieces) {
  const auto now = std::chrono::steady_clock::now();
  const ServeKey a = NamedKey("a");
  FakeKeyState sa;
  FakeReadyList ready;
  Enqueue(&ready, &a, &sa, now - microseconds(900), 10);
  const size_t counts[] = {4, 4, 2};
  for (size_t take = 0; take < 3; ++take) {
    std::vector<FakePiece> batch;
    ASSERT_EQ(ready.size(), 1u) << "take " << take;
    ready.Take(0, 4, &batch);
    ASSERT_EQ(batch.size(), 1u);
    ExpectPiece(batch[0], 0, 4 * take, counts[take]);
  }
  EXPECT_TRUE(ready.empty());
}

TEST(ReadyListTest, TakesCrossSpanBoundariesInFifoOrder) {
  const auto now = std::chrono::steady_clock::now();
  const ServeKey a = NamedKey("a");
  FakeKeyState sa;
  FakeReadyList ready;
  for (int i = 0; i < 3; ++i) Enqueue(&ready, &a, &sa, now, 3);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(sa.queued, 9u);

  std::vector<FakePiece> batch;
  ready.Take(0, 4, &batch);  // all of span 0, the head of span 1
  ASSERT_EQ(batch.size(), 2u);
  ExpectPiece(batch[0], 0, 0, 3);
  ExpectPiece(batch[1], 1, 0, 1);
  EXPECT_EQ(sa.queued, 5u);
  // The split span stays at the front, still enqueued when it was filed.
  ASSERT_EQ(sa.pending.size(), 2u);
  EXPECT_EQ(sa.pending.front().next, 1u);
  EXPECT_EQ(sa.pending.front().enqueued, now);

  batch.clear();
  ready.Take(0, 4, &batch);  // the rest of span 1, the head of span 2
  ASSERT_EQ(batch.size(), 2u);
  ExpectPiece(batch[0], 1, 1, 2);
  ExpectPiece(batch[1], 2, 0, 2);
  EXPECT_EQ(sa.queued, 1u);

  batch.clear();
  ready.Take(0, 4, &batch);
  ASSERT_EQ(batch.size(), 1u);
  ExpectPiece(batch[0], 2, 2, 1);
  EXPECT_TRUE(ready.empty());
}

TEST(ReadyListTest, FullCountsQueriesNotSpans) {
  const auto now = std::chrono::steady_clock::now();
  const ServeKey a = NamedKey("a");
  // One span of max_batch queries is full before its window...
  {
    FakeKeyState sa;
    FakeReadyList ready;
    Enqueue(&ready, &a, &sa, now, 4);
    EXPECT_EQ(ready.Next(now, kWindow, 4, false).chosen, 0u);
  }
  // ...and so are max_batch one-query spans, but not one fewer.
  {
    FakeKeyState sa;
    FakeReadyList ready;
    for (int i = 0; i < 3; ++i) Enqueue(&ready, &a, &sa, now, 1);
    auto pick = ready.Next(now, kWindow, 4, false);
    EXPECT_EQ(pick.chosen, ready.size());
    EXPECT_TRUE(pick.have_deadline);
    Enqueue(&ready, &a, &sa, now, 1);
    EXPECT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready.Next(now, kWindow, 4, false).chosen, 0u);
  }
}

TEST(ReadyListTest, QueuedReturnsToZeroWhenDrained) {
  const auto now = std::chrono::steady_clock::now();
  const ServeKey a = NamedKey("a");
  FakeKeyState sa;
  FakeReadyList ready;
  Enqueue(&ready, &a, &sa, now, 5);
  Enqueue(&ready, &a, &sa, now, 2);
  std::vector<FakePiece> batch;
  size_t taken = 0;
  while (!ready.empty()) {
    batch.clear();
    ready.Take(0, 3, &batch);
    taken += QueriesIn(batch);
  }
  EXPECT_EQ(taken, 7u);
  EXPECT_EQ(sa.queued, 0u);
  EXPECT_TRUE(sa.pending.empty());
}

// ---------------------------------------------------------------------
// ServeEngine cross-shard behavior
// ---------------------------------------------------------------------

QueryFunctionSpec AvgSpec(size_t measure_col) {
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kAvg;
  spec.measure_col = measure_col;
  return spec;
}

/// Shared fixture: a normalized GMM table, its query spec, a workload,
/// and a quickly trained sketch (held by shared_ptr so several dataset
/// names can serve the same sketch from different shards).
struct ShardFixture {
  Table table;
  QueryFunctionSpec spec;
  std::vector<QueryInstance> queries;
  std::shared_ptr<const NeuroSketch> sketch;
  std::vector<double> expected;  // serial sketch answers for `queries`

  static ShardFixture Make(size_t n_queries) {
    ShardFixture f;
    Dataset ds = MakeGmmDataset(2000, 3, 3, /*seed=*/5);
    f.table = Normalizer::Fit(ds.table).Transform(ds.table);
    f.spec = AvgSpec(ds.measure_col);
    ExactEngine engine(&f.table);
    WorkloadConfig wc;
    wc.seed = 99;
    WorkloadGenerator gen(f.table.num_columns(), wc);
    f.queries = gen.GenerateMany(n_queries, &engine, &f.spec);

    WorkloadConfig train_wc;
    train_wc.seed = 7;
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
    f.sketch = std::make_shared<const NeuroSketch>(std::move(sk).value());
    f.expected = f.sketch->AnswerBatch(f.queries);
    return f;
  }
};

TEST(ShardEngineTest, KeyToShardPinningStableAcrossStoreChurn) {
  ShardFixture f = ShardFixture::Make(32);
  ExactEngine engine(&f.table);
  SketchStore store;
  ServeOptions opts;
  opts.num_shards = 4;
  ServeEngine serve(&store, opts);
  ASSERT_EQ(serve.num_shards(), 4u);

  // Record where every key routes while the store is still empty.
  std::vector<std::string> names;
  std::vector<size_t> before;
  for (int i = 0; i < 16; ++i) {
    names.push_back("ds" + std::to_string(i));
    before.push_back(serve.ShardOf(names.back(), f.spec));
    EXPECT_LT(before.back(), 4u);
  }

  // Churn the store: register everything, then unregister half of it.
  for (const auto& name : names) {
    ASSERT_TRUE(store.RegisterDataset(name, &engine).ok());
    ASSERT_TRUE(store.Register(name, f.spec, f.sketch).ok());
  }
  for (size_t i = 0; i < names.size(); i += 2) {
    EXPECT_GT(store.Unregister(ServeKey::From(names[i], f.spec)), 0u);
  }

  // Routing is a pure function of the key: churn must not move anything
  // (AddStore/RemoveStore never reshuffles another store's queues).
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(serve.ShardOf(names[i], f.spec), before[i]) << names[i];
  }

  // And traffic really lands on the advertised shard.
  const std::string target = names[1];  // still registered
  const size_t shard = serve.ShardOf(target, f.spec);
  auto r = serve.SubmitMany(target, f.spec, f.queries).get();
  ASSERT_EQ(r.size(), f.queries.size());
  const auto stats = serve.Snapshot();
  ASSERT_EQ(stats.per_shard.size(), 4u);
  EXPECT_EQ(stats.per_shard[shard].queries, f.queries.size());
  EXPECT_EQ(stats.queries, f.queries.size());
}

// Sketch-served keys spread over four shards, plus one exact-only key
// (fallback answers) and one key with no exact engine (failed answers):
// every counter must add up across the engine, shard and store scopes.
TEST(ShardEngineTest, CrossShardBurstsBitIdenticalAndSummable) {
  constexpr size_t kSketched = 6;
  ShardFixture f = ShardFixture::Make(128);
  ExactEngine engine(&f.table);
  SketchStore store;
  std::vector<std::string> names;
  for (size_t i = 0; i < kSketched; ++i) {
    names.push_back("ds" + std::to_string(i));
    ASSERT_TRUE(store.RegisterDataset(names.back(), &engine).ok());
    ASSERT_TRUE(store.Register(names.back(), f.spec, f.sketch).ok());
  }
  names.push_back("exact_only");  // an engine, no sketch
  ASSERT_TRUE(store.RegisterDataset(names.back(), &engine).ok());
  names.push_back("no_engine");  // neither: every answer fails
  const size_t kDatasets = names.size();

  ServeOptions opts;
  opts.num_shards = 4;
  opts.max_batch = 32;
  ServeEngine serve(&store, opts);

  // One concurrent burst per dataset, each from its own client thread.
  std::vector<std::future<std::vector<ServeResult>>> futs(kDatasets);
  std::vector<std::thread> clients;
  for (size_t d = 0; d < kDatasets; ++d) {
    clients.emplace_back([&, d] {
      futs[d] = serve.SubmitMany(names[d], f.spec, f.queries);
    });
  }
  for (auto& t : clients) t.join();
  const std::vector<double> exact = engine.AnswerBatch(f.spec, f.queries);
  for (size_t d = 0; d < kDatasets; ++d) {
    const auto results = futs[d].get();
    ASSERT_EQ(results.size(), f.queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      if (d < kSketched) {
        EXPECT_TRUE(results[i].used_sketch);
        // Bit-identical regardless of which shard served the burst.
        EXPECT_EQ(results[i].value, f.expected[i]) << names[d] << " q" << i;
      } else if (names[d] == "exact_only") {
        EXPECT_FALSE(results[i].used_sketch);
        EXPECT_EQ(results[i].value, exact[i]) << names[d] << " q" << i;
      } else {
        EXPECT_FALSE(results[i].used_sketch);
        EXPECT_TRUE(std::isnan(results[i].value)) << names[d] << " q" << i;
      }
    }
  }

  const auto stats = serve.Snapshot();
  const size_t total = kDatasets * f.queries.size();
  EXPECT_EQ(stats.queries, total);
  EXPECT_GT(stats.sketch_answers, 0u);
  EXPECT_GT(stats.fallback_answers, 0u);
  EXPECT_EQ(stats.failed_answers, f.queries.size());
  EXPECT_EQ(stats.queries, stats.sketch_answers + stats.fallback_answers +
                               stats.failed_answers);
  ASSERT_EQ(stats.per_shard.size(), 4u);
  ASSERT_EQ(stats.per_store.size(), kDatasets);
  size_t resident = 0;
  for (const auto& sd : stats.per_shard) {
    resident += sd.resident_keys;
    // Each dataset's traffic lands wholly on its advertised shard.
    uint64_t want = 0;
    for (size_t d = 0; d < kDatasets; ++d) {
      if (serve.ShardOf(names[d], f.spec) == sd.shard) {
        want += f.queries.size();
      }
    }
    EXPECT_EQ(sd.queries, want) << "shard " << sd.shard;
    EXPECT_EQ(sd.queries,
              sd.sketch_answers + sd.fallback_answers + sd.failed_answers);
  }
  EXPECT_EQ(resident, kDatasets);
  for (const auto& ss : stats.per_store) {
    EXPECT_EQ(ss.queries, f.queries.size()) << ss.store;
    EXPECT_EQ(ss.queries,
              ss.sketch_answers + ss.fallback_answers + ss.failed_answers)
        << ss.store;
  }
  // Every counter: engine total == sum of shards == sum of stores.
  for (const serve::CounterInfo& c : serve::kCounterTable) {
    uint64_t shard_sum = 0, store_sum = 0;
    for (const auto& sd : stats.per_shard) shard_sum += sd.*c.field;
    for (const auto& ss : stats.per_store) store_sum += ss.*c.field;
    EXPECT_EQ(shard_sum, stats.*c.field) << c.name;
    EXPECT_EQ(store_sum, stats.*c.field) << c.name;
  }
}

// A shard that has seen hundreds of keys dispatches only the ones with
// work: after 512 keys go idle, interleaved bursts over 3 hot keys (each
// burst larger than max_batch, so every key takes partial batches) must
// all resolve, bit-identical to serial AnswerBatch.
TEST(ShardEngineTest, ManyIdleKeysThenInterleavedHotBursts) {
  ShardFixture f = ShardFixture::Make(96);
  ExactEngine engine(&f.table);
  SketchStore store;
  const std::vector<std::string> hot = {"hot0", "hot1", "hot2"};
  for (const auto& name : hot) {
    ASSERT_TRUE(store.RegisterDataset(name, &engine).ok());
    ASSERT_TRUE(store.Register(name, f.spec, f.sketch).ok());
  }
  ServeOptions opts;
  opts.num_shards = 1;
  opts.max_batch = 16;
  ServeEngine serve(&store, opts);

  // 512 keys the shard files once and never sees again (no store entry:
  // their answers fail, which is all this needs).
  std::vector<std::future<ServeResult>> idle;
  for (int i = 0; i < 512; ++i) {
    idle.push_back(serve.Submit("idle" + std::to_string(i), f.spec,
                                f.queries[0]));
  }
  for (auto& fut : idle) EXPECT_TRUE(std::isnan(fut.get().value));

  constexpr size_t kBurst = 40;
  constexpr int kRounds = 8;
  std::vector<std::future<std::vector<ServeResult>>> futs;
  std::vector<size_t> first;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t h = 0; h < hot.size(); ++h) {
      const size_t start = ((round * hot.size() + h) * kBurst) %
                           (f.queries.size() - kBurst);
      first.push_back(start);
      futs.push_back(serve.SubmitMany(
          hot[h], f.spec,
          std::vector<QueryInstance>(f.queries.begin() + start,
                                     f.queries.begin() + start + kBurst)));
    }
  }
  for (size_t b = 0; b < futs.size(); ++b) {
    ASSERT_EQ(futs[b].wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "burst " << b;
    const std::vector<ServeResult> res = futs[b].get();
    ASSERT_EQ(res.size(), kBurst);
    for (size_t j = 0; j < kBurst; ++j) {
      EXPECT_TRUE(res[j].used_sketch);
      EXPECT_EQ(res[j].value, f.expected[first[b] + j])
          << "burst " << b << " q" << j;
    }
  }
  const auto stats = serve.Snapshot();
  EXPECT_EQ(stats.queries, 512 + futs.size() * kBurst);
  EXPECT_EQ(stats.sketch_answers, futs.size() * kBurst);
  EXPECT_EQ(stats.per_shard[0].resident_keys, 512u + hot.size());
}

// One submission in flight: a single Submit or a SubmitMany burst whose
// answers are the serial ones for queries [first, first + n).
struct SubmittedRun {
  size_t first = 0, n = 0;
  std::future<ServeResult> one;
  std::future<std::vector<ServeResult>> many;
};

// Interleaves single Submits with bursts of every size in `kBurstSizes`
// on one key, cycling through `f.queries`.
constexpr size_t kBurstSizes[] = {1, 3, 17, 40, 256, 300};

std::vector<SubmittedRun> SubmitInterleaved(ServeEngine* serve,
                                            const ShardFixture& f,
                                            const std::string& dataset) {
  std::vector<SubmittedRun> runs;
  size_t next = 0;
  auto submit = [&](size_t n) {
    SubmittedRun r;
    r.first = next % (f.queries.size() - n + 1);
    r.n = n;
    if (n == 1 && runs.size() % 2 == 0) {
      r.one = serve->Submit(dataset, f.spec, f.queries[r.first]);
    } else {
      r.many = serve->SubmitMany(
          dataset, f.spec,
          std::vector<QueryInstance>(f.queries.begin() + r.first,
                                     f.queries.begin() + r.first + n));
    }
    next = r.first + n;
    runs.push_back(std::move(r));
  };
  for (int round = 0; round < 2; ++round) {
    for (size_t n : kBurstSizes) {
      submit(1);
      submit(1);
      submit(n);
    }
  }
  return runs;
}

// Waits for every run (none may hang) and checks its answers, in order,
// against serial AnswerBatch; returns the number of answers.
size_t ExpectRunsMatchSerial(std::vector<SubmittedRun>* runs,
                             const ShardFixture& f) {
  size_t answered = 0;
  for (size_t k = 0; k < runs->size(); ++k) {
    SubmittedRun& r = (*runs)[k];
    SCOPED_TRACE("run " + std::to_string(k));
    if (r.one.valid()) {
      EXPECT_EQ(r.one.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      const ServeResult res = r.one.get();  // throws on a broken promise
      EXPECT_TRUE(res.used_sketch);
      EXPECT_EQ(res.value, f.expected[r.first]);
      EXPECT_FALSE(r.one.valid());
    } else {
      EXPECT_EQ(r.many.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      const std::vector<ServeResult> res = r.many.get();
      EXPECT_FALSE(r.many.valid());
      EXPECT_EQ(res.size(), r.n);
      for (size_t j = 0; j < res.size() && j < r.n; ++j) {
        EXPECT_TRUE(res[j].used_sketch);
        EXPECT_EQ(res[j].value, f.expected[r.first + j]) << "q" << j;
      }
    }
    answered += r.n;
  }
  return answered;
}

// Bursts are filed as spans and cut into pieces of at most max_batch
// queries, which may cross span boundaries: every answer must still land
// in its own completion's slot, bit-identical to serial AnswerBatch, and
// each completion must resolve exactly once (a second set_value would
// throw on the dispatcher). Counters and the queue-stage histogram count
// queries, not spans or pieces.
TEST(ShardEngineTest, SplitBurstsMatchSerialAndResolveOnce) {
  ShardFixture f = ShardFixture::Make(640);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, f.sketch).ok());
  for (size_t max_batch : {size_t{16}, size_t{256}}) {
    SCOPED_TRACE("max_batch " + std::to_string(max_batch));
    ServeOptions opts;
    opts.num_shards = 1;
    opts.max_batch = max_batch;
    opts.stage_tracing = true;
    ServeEngine serve(&store, opts);
    std::vector<SubmittedRun> runs = SubmitInterleaved(&serve, f, "gmm");
    const size_t submitted = ExpectRunsMatchSerial(&runs, f);
    const auto stats = serve.Snapshot();
    EXPECT_EQ(stats.queries, submitted);
    EXPECT_EQ(stats.sketch_answers, submitted);
    EXPECT_EQ(stats.stage_queue.count, submitted);
    EXPECT_GE(stats.batches * max_batch, submitted);
  }
}

// The destructor drains spans still waiting for their window: every
// future resolves with its serial answer, and every completion is freed
// (the sanitizer build's leak check covers the latter).
TEST(ShardEngineTest, DestroyedWithPendingSpansResolvesEverything) {
  ShardFixture f = ShardFixture::Make(640);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, f.sketch).ok());
  std::vector<SubmittedRun> runs;
  {
    ServeOptions opts;
    opts.num_shards = 1;
    opts.max_batch = 16;
    opts.batch_window_us = 10e6;  // a short tail waits for stop, not time
    ServeEngine serve(&store, opts);
    runs = SubmitInterleaved(&serve, f, "gmm");
  }
  for (const SubmittedRun& r : runs) {
    ASSERT_EQ(r.one.valid() ? r.one.wait_for(std::chrono::seconds(0))
                            : r.many.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  ExpectRunsMatchSerial(&runs, f);
}

TEST(ShardEngineTest, ResetStatsDuringTrafficKeepsAWellFormedWindow) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 300;
  ShardFixture f = ShardFixture::Make(kClients * kPerClient);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, f.sketch).ok());

  ServeOptions opts;
  opts.num_shards = 3;
  opts.max_batch = 16;
  opts.batch_window_us = 50.0;
  ServeEngine serve(&store, opts);

  // Hammer the engine while the main thread restarts the stats window:
  // answers must stay bit-identical and nothing may deadlock or tear.
  std::vector<std::thread> clients;
  std::atomic<bool> done{false};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const size_t qi = c * kPerClient + i;
        const ServeResult r = serve.Answer("gmm", f.spec, f.queries[qi]);
        EXPECT_TRUE(r.used_sketch);
        EXPECT_EQ(r.value, f.expected[qi]);
      }
    });
  }
  std::thread resetter([&] {
    while (!done.load()) {
      serve.ResetStats();
      (void)serve.Snapshot();  // concurrent reads must also be safe
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : clients) t.join();
  done.store(true);
  resetter.join();

  // A clean window after the storm: exact accounting must hold again.
  serve.ResetStats();
  auto results = serve.SubmitMany("gmm", f.spec, f.queries).get();
  ASSERT_EQ(results.size(), f.queries.size());
  const auto stats = serve.Snapshot();
  EXPECT_EQ(stats.queries, f.queries.size());
  EXPECT_EQ(stats.queries,
            stats.sketch_answers + stats.fallback_answers +
                stats.failed_answers);
  uint64_t shard_sum = 0;
  for (const auto& sd : stats.per_shard) shard_sum += sd.queries;
  EXPECT_EQ(shard_sum, stats.queries);
}

// The TSan workload: 8 client threads mixing Submit and SubmitMany
// across sketch-backed and fallback-only stores, through a deliberately
// tiny submission ring so the wait-free claim path, the backpressure
// path, and the sleep/wake handshake all run under contention.
TEST(ShardEngineTest, EightThreadHammerAcrossShardsAndPaths) {
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 150;
  ShardFixture f = ShardFixture::Make(kClients * kPerClient);
  ExactEngine engine(&f.table);
  const std::vector<double> exact =
      engine.AnswerBatch(f.spec, f.queries);

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("fast", &engine).ok());
  ASSERT_TRUE(store.Register("fast", f.spec, f.sketch).ok());
  ASSERT_TRUE(store.RegisterDataset("slow", &engine).ok());
  // "slow" has no sketch: every query is an exact-engine fallback.

  ServeOptions opts;
  opts.num_shards = 4;
  opts.max_batch = 16;
  opts.batch_window_us = 100.0;
  opts.submit_queue_capacity = 8;  // force ring-full backpressure
  ServeEngine serve(&store, opts);

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const size_t qi = c * kPerClient + i;
        if (i % 3 == 0) {
          // Burst of 3 to the sketch-backed store.
          const size_t n = std::min<size_t>(3, kPerClient - i);
          std::vector<QueryInstance> burst(f.queries.begin() + qi,
                                           f.queries.begin() + qi + n);
          auto results = serve.SubmitMany("fast", f.spec, burst).get();
          ASSERT_EQ(results.size(), n);
          for (size_t j = 0; j < n; ++j) {
            EXPECT_TRUE(results[j].used_sketch);
            EXPECT_EQ(results[j].value, f.expected[qi + j]);
          }
        } else if (i % 3 == 1) {
          const ServeResult r = serve.Answer("fast", f.spec, f.queries[qi]);
          EXPECT_TRUE(r.used_sketch);
          EXPECT_EQ(r.value, f.expected[qi]);
        } else {
          const ServeResult r = serve.Answer("slow", f.spec, f.queries[qi]);
          EXPECT_FALSE(r.used_sketch);
          EXPECT_EQ(r.value, exact[qi]);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  const auto stats = serve.Snapshot();
  EXPECT_EQ(stats.queries,
            stats.sketch_answers + stats.fallback_answers +
                stats.failed_answers);
  EXPECT_EQ(stats.failed_answers, 0u);
  EXPECT_GT(stats.fallback_answers, 0u);
  uint64_t shard_sum = 0;
  for (const auto& sd : stats.per_shard) shard_sum += sd.queries;
  EXPECT_EQ(shard_sum, stats.queries);
}

// ---------------------------------------------------------------------
// Group publication: computed answers are held per shard and resolved
// newest first, before the dispatcher sleeps or ahead of slow batches.
// ---------------------------------------------------------------------

ServeOptions PointOptions(size_t max_batch) {
  ServeOptions opts;
  opts.num_shards = 1;
  opts.max_batch = max_batch;
  opts.batch_window_us = 0.0;
  opts.exact_batch_threads = 1;
  return opts;
}

TEST(GroupPublishTest, DestructorResolvesEveryHeldAnswer) {
  ShardFixture f = ShardFixture::Make(512);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, f.sketch).ok());

  std::vector<std::future<ServeResult>> singles;
  std::vector<std::future<std::vector<ServeResult>>> bursts;
  {
    ServeEngine serve(&store, PointOptions(1));
    for (size_t i = 0; i < 256; ++i) {
      singles.push_back(serve.Submit("gmm", f.spec, f.queries[i]));
    }
    for (size_t b = 0; b < 4; ++b) {
      const auto first = f.queries.begin() + 256 + 64 * b;
      bursts.push_back(serve.SubmitMany(
          "gmm", f.spec, std::vector<QueryInstance>(first, first + 64)));
    }
  }  // destroyed while answers are pending or held

  for (size_t i = 0; i < singles.size(); ++i) {
    ASSERT_EQ(singles[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const ServeResult r = singles[i].get();  // throws on broken_promise
    EXPECT_TRUE(r.used_sketch);
    EXPECT_EQ(r.value, f.expected[i]) << "q" << i;
  }
  for (size_t b = 0; b < bursts.size(); ++b) {
    ASSERT_EQ(bursts[b].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const std::vector<ServeResult> res = bursts[b].get();
    ASSERT_EQ(res.size(), 64u);
    for (size_t j = 0; j < res.size(); ++j) {
      EXPECT_EQ(res[j].value, f.expected[256 + 64 * b + j]);
    }
  }
}

// A cheap sketch answer must not be held through a slow exact batch that
// follows it on the same shard: the hold bound is checked before a batch
// runs, against that key's previous batch duration.
TEST(GroupPublishTest, CheapAnswerIsNotHeldBehindSlowBatch) {
  ShardFixture f = ShardFixture::Make(256);
  ExactEngine small_engine(&f.table);
  // Big enough that B's exact batch stays well above the 20 ms floor
  // below (about 55 ms on a 4-vCPU Xeon host).
  Dataset big = MakeGmmDataset(500000, 3, 3, /*seed=*/5);
  const Table big_table = Normalizer::Fit(big.table).Transform(big.table);
  ExactEngine big_engine(&big_table);

  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &small_engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, f.sketch).ok());
  ASSERT_TRUE(store.RegisterDataset("big", &big_engine).ok());  // exact only
  ServeEngine serve(&store, PointOptions(256));

  // Warm B once: its batch duration becomes the prediction for the next.
  const auto t0 = std::chrono::steady_clock::now();
  (void)serve.SubmitMany("big", f.spec, f.queries).get();
  const auto warm = std::chrono::steady_clock::now() - t0;
  ASSERT_GE(warm, std::chrono::milliseconds(20))
      << "B's batch must be slow for this test to mean anything";

  auto fa = serve.Submit("gmm", f.spec, f.queries[0]);
  auto fb = serve.SubmitMany("big", f.spec, f.queries);
  ASSERT_EQ(fa.wait_for(std::chrono::seconds(60)), std::future_status::ready);
  EXPECT_EQ(fb.wait_for(std::chrono::seconds(0)), std::future_status::timeout)
      << "A was held until B's slow batch finished";
  EXPECT_EQ(fa.get().value, f.expected[0]);
  const std::vector<double> exact = big_engine.AnswerBatch(f.spec, f.queries);
  const std::vector<ServeResult> rb = fb.get();
  ASSERT_EQ(rb.size(), exact.size());
  for (size_t i = 0; i < rb.size(); ++i) EXPECT_EQ(rb[i].value, exact[i]);
}

// Restricts the calling thread (and threads it starts) to one CPU for
// the object's lifetime.
class ScopedOneCpu {
 public:
  ScopedOneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }
  ~ScopedOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

long VoluntarySwitchesOfThisThread() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nvcsw;
}

// A pipelined client sharing one CPU with the dispatcher blocks on its
// oldest future; with newest-first group publication it wakes once per
// group instead of once per answer.
TEST(GroupPublishTest, PipelinedClientWakesOncePerGroup) {
  constexpr size_t kRequests = 4096;
  constexpr size_t kInFlight = 32;
  ShardFixture f = ShardFixture::Make(512);
  SketchStore store;
  ASSERT_TRUE(store.Register("gmm", f.spec, f.sketch).ok());

  ScopedOneCpu cpu;
  ASSERT_TRUE(cpu.pinned());
  ServeEngine serve(&store, PointOptions(1));  // dispatcher inherits the pin
  std::deque<std::pair<size_t, std::future<ServeResult>>> flight;
  size_t next = 0, done = 0;
  const long before = VoluntarySwitchesOfThisThread();
  while (done < kRequests) {
    while (next < kRequests && flight.size() < kInFlight) {
      const size_t qi = next++ % f.queries.size();
      flight.emplace_back(qi, serve.Submit("gmm", f.spec, f.queries[qi]));
    }
    auto [qi, fut] = std::move(flight.front());
    flight.pop_front();
    EXPECT_EQ(fut.get().value, f.expected[qi]);
    ++done;
  }
  const long switches = VoluntarySwitchesOfThisThread() - before;
#ifdef NEUROSKETCH_TSAN
  // Under TSan one batch alone outlasts kMaxHold, so every group is a
  // single answer by design; the run above still checks the answers and
  // feeds the race detector, but the wake count says nothing here.
  (void)switches;
  return;
#endif
  EXPECT_LE(static_cast<double>(switches) / kRequests, 0.25)
      << switches << " voluntary switches for " << kRequests << " requests";
}

// Grouping changes when answers become visible, never what they are:
// mixed Submit/SubmitMany answers stay bit-identical to serial
// AnswerBatch, bursts keep submission order, and the counters already
// include every answer a client has observed.
TEST(GroupPublishTest, AnswersAndCountersMatchSerialAcrossBatchSizes) {
  ShardFixture f = ShardFixture::Make(600);
  ExactEngine engine(&f.table);
  SketchStore store;
  ASSERT_TRUE(store.RegisterDataset("gmm", &engine).ok());
  ASSERT_TRUE(store.Register("gmm", f.spec, f.sketch).ok());

  for (size_t max_batch : {size_t{1}, size_t{256}}) {
    SCOPED_TRACE("max_batch " + std::to_string(max_batch));
    ServeEngine serve(&store, PointOptions(max_batch));
    std::deque<SubmittedRun> flight;
    uint64_t observed = 0;
    auto complete = [&] {
      SubmittedRun x = std::move(flight.front());
      flight.pop_front();
      if (x.one.valid()) {
        EXPECT_EQ(x.one.get().value, f.expected[x.first]) << "q" << x.first;
      } else {
        const std::vector<ServeResult> res = x.many.get();
        ASSERT_EQ(res.size(), x.n);
        for (size_t j = 0; j < x.n; ++j) {
          EXPECT_EQ(res[j].value, f.expected[x.first + j])
              << "q" << x.first + j;
        }
      }
      observed += x.n;
      EXPECT_GE(serve.Snapshot().queries, observed);
    };
    size_t i = 0, k = 0;
    while (i < f.queries.size()) {
      SubmittedRun x;
      x.first = i;
      if (k++ % 4 == 0) {
        x.n = std::min<size_t>(7, f.queries.size() - i);
        x.many = serve.SubmitMany(
            "gmm", f.spec,
            std::vector<QueryInstance>(f.queries.begin() + i,
                                       f.queries.begin() + i + x.n));
      } else {
        x.n = 1;
        x.one = serve.Submit("gmm", f.spec, f.queries[i]);
      }
      i += x.n;
      flight.push_back(std::move(x));
      if (flight.size() >= 32) complete();
    }
    while (!flight.empty()) complete();
    EXPECT_EQ(serve.Snapshot().queries, f.queries.size());
  }
}

}  // namespace
}  // namespace neurosketch
