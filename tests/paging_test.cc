// Tests for the paged sketch catalog (ISSUE 8): the bounded buffer pool
// (pin refcounts block eviction, budget is never exceeded, single-load of
// concurrent faults), the packed catalog file format, the three-state
// sketch lifecycle (ResidentBytes moves with Release/Ensure, Load comes
// up lean), bit-identical answers across evict -> fault-in round trips on
// every plan tier, and the serve-path integration (listings report both
// sizes, registered versions shadow cold entries, paged metrics export,
// 8-thread serve with concurrent eviction — the TSan battery).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "core/neurosketch.h"
#include "data/generators.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/workload.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/buffer_pool.h"
#include "util/metrics.h"

namespace neurosketch {
namespace {

using serve::PagedCatalogOptions;
using serve::ServeEngine;
using serve::ServeKey;
using serve::ServeResult;
using serve::SketchStore;

// ---------------------------------------------------------------------------
// BufferPool: synthetic values with exact byte accounting.

using BytePool = BufferPool<int, std::vector<char>>;

Result<BufferPoolLoaded<std::vector<char>>> MakeBlob(size_t bytes) {
  BufferPoolLoaded<std::vector<char>> out;
  out.value = std::make_shared<const std::vector<char>>(bytes, 'x');
  out.bytes = bytes;
  return out;
}

TEST(BufferPoolTest, FaultsInOnceThenHits) {
  BytePool pool(1024);
  int loads = 0;
  auto loader = [&] {
    ++loads;
    return MakeBlob(100);
  };
  for (int i = 0; i < 5; ++i) {
    auto h = pool.Pin(7, loader);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h.value()->size(), 100u);
  }
  EXPECT_EQ(loads, 1);
  const BufferPoolStats s = pool.Stats();
  EXPECT_EQ(s.faultins, 1u);
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.resident_bytes, 100u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(BufferPoolTest, BudgetNeverExceededProperty) {
  // 64 keys of 100 bytes against a 350-byte budget: at most 3 resident at
  // any instant. The peak is checked after EVERY operation — this is the
  // exactness property the serve-side budget gate leans on.
  BytePool pool(350);
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 64; ++k) {
      auto h = pool.Pin(k, [] { return MakeBlob(100); });
      ASSERT_TRUE(h.ok());
      const BufferPoolStats s = pool.Stats();
      EXPECT_LE(s.resident_bytes, 350u);
      EXPECT_LE(s.peak_resident_bytes, 350u);
      EXPECT_LE(s.resident_entries, 3u);
    }
  }
  EXPECT_GT(pool.Stats().evictions, 0u);
}

TEST(BufferPoolTest, PinBlocksEvictionUntilHandleDrops) {
  // Budget fits one blob. While key 0's handle is held, faulting key 1
  // must wait on the unpin instead of evicting a pinned frame.
  BytePool pool(150);
  auto held = pool.Pin(0, [] { return MakeBlob(100); });
  ASSERT_TRUE(held.ok());

  std::atomic<bool> second_done{false};
  std::future<Status> second = std::async(std::launch::async, [&] {
    auto h = pool.Pin(1, [] { return MakeBlob(100); });
    second_done.store(true);
    return h.ok() ? Status::OK() : h.status();
  });
  // The faulting thread must be parked in admission, not completed: give
  // it ample time to (wrongly) finish if pinning were broken.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(second_done.load());
  // The pinned frame must still be resident and intact.
  EXPECT_EQ(pool.Stats().resident_bytes, 100u);
  ASSERT_NE(held.value(), nullptr);
  EXPECT_EQ(held.value()->size(), 100u);

  held.value().reset();  // unpin -> the waiter evicts key 0 and admits
  ASSERT_EQ(second.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(second.get().ok());
  EXPECT_TRUE(second_done.load());
  const BufferPoolStats s = pool.Stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.peak_resident_bytes, 150u);
}

TEST(BufferPoolTest, EntryLargerThanBudgetFails) {
  BytePool pool(100);
  auto h = pool.Pin(0, [] { return MakeBlob(200); });
  EXPECT_FALSE(h.ok());
  // The failed frame must not wedge the key: a fitting retry succeeds.
  auto h2 = pool.Pin(0, [] { return MakeBlob(50); });
  EXPECT_TRUE(h2.ok());
}

TEST(BufferPoolTest, ConcurrentPinsOfOneKeySingleLoad) {
  BytePool pool(0);  // unbounded: isolate the loading-latch behavior
  std::atomic<int> loads{0};
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto h = pool.Pin(42, [&] {
        loads.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return MakeBlob(64);
      });
      if (h.ok() && h.value()->size() == 64) ok.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(pool.Stats().faultins, 1u);
}

TEST(BufferPoolTest, PenalizedFrameIsPreferredVictim) {
  // Three 100-byte keys, budget 250: admitting key 2 needs one eviction.
  // Key 0 is far hotter than key 1, but penalized — it must go first.
  BytePool pool(250);
  { auto h = pool.Pin(0, [] { return MakeBlob(100); }); }
  { auto h = pool.Pin(1, [] { return MakeBlob(100); }); }
  pool.Touch(0, 1000.0);
  pool.Penalize(0);
  { auto h = pool.Pin(2, [] { return MakeBlob(100); }); }
  EXPECT_EQ(pool.Peek(0), nullptr);   // evicted despite its traffic
  EXPECT_NE(pool.Peek(1), nullptr);
  EXPECT_NE(pool.Peek(2), nullptr);
}

// The pool's replacement policy as a plain O(frames) model: a victim scan
// over every frame in key order and a walk that halves every heat after
// each eviction. BufferPool keeps the same policy with a resident-only
// scan and a shared heat exponent; this sweep pins the two together.
class ReferencePool {
 public:
  explicit ReferencePool(size_t max_bytes) : max_bytes_(max_bytes) {}

  void Pin(int key, size_t bytes) {
    Frame& f = frames_[key];
    if (f.resident) {
      ++stats_.hits;
    } else {
      while (stats_.resident_bytes + bytes > max_bytes_) EvictOne();
      f.resident = true;
      f.bytes = bytes;
      stats_.resident_bytes += bytes;
      stats_.peak_resident_bytes =
          std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
      ++stats_.faultins;
    }
    ++f.pins;
    f.heat += 1.0;
    f.last_touch = ++tick_;
  }
  void Unpin(int key) { --frames_.at(key).pins; }
  void Touch(int key, double amount) {
    auto it = frames_.find(key);
    if (it != frames_.end() && it->second.resident) it->second.heat += amount;
  }
  void Penalize(int key) {
    auto it = frames_.find(key);
    if (it != frames_.end()) it->second.heat = 0.0;
  }
  void Erase(int key) {
    auto it = frames_.find(key);
    if (it == frames_.end() || it->second.pins != 0) return;
    if (it->second.resident) {
      stats_.resident_bytes -= it->second.bytes;
      ++stats_.evictions;
      dropped_.push_back(key);
    }
    frames_.erase(it);
  }

  BufferPoolStats Stats() const {
    BufferPoolStats s = stats_;
    s.max_bytes = max_bytes_;
    s.entries = frames_.size();
    for (const auto& [k, f] : frames_) s.resident_entries += f.resident;
    return s;
  }
  /// Keys whose values were dropped (evicted or erased), in order.
  const std::vector<int>& dropped() const { return dropped_; }

 private:
  struct Frame {
    bool resident = false;
    size_t bytes = 0;
    size_t pins = 0;
    double heat = 0.0;
    uint64_t last_touch = 0;
  };

  void EvictOne() {
    int victim = -1;
    Frame* v = nullptr;
    for (auto& [k, f] : frames_) {
      if (!f.resident || f.pins != 0) continue;
      if (v == nullptr || f.heat < v->heat ||
          (f.heat == v->heat && f.last_touch < v->last_touch)) {
        victim = k;
        v = &f;
      }
    }
    ASSERT_NE(v, nullptr) << "the sweep must never wait on an unpin";
    v->resident = false;
    stats_.resident_bytes -= v->bytes;
    v->bytes = 0;
    ++stats_.evictions;
    dropped_.push_back(victim);
    for (auto& [k, f] : frames_) f.heat *= 0.5;
  }

  const size_t max_bytes_;
  std::map<int, Frame> frames_;
  BufferPoolStats stats_;
  uint64_t tick_ = 0;
  std::vector<int> dropped_;
};

void ExpectSameStats(const BufferPoolStats& a, const BufferPoolStats& b) {
  EXPECT_EQ(a.resident_bytes, b.resident_bytes);
  EXPECT_EQ(a.peak_resident_bytes, b.peak_resident_bytes);
  EXPECT_EQ(a.max_bytes, b.max_bytes);
  EXPECT_EQ(a.resident_entries, b.resident_entries);
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.faultins, b.faultins);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.evictions, b.evictions);
}

TEST(BufferPoolTest, EvictionsMatchTheHalvingReferencePolicy) {
  // 64 keys of 16..46 bytes at a 300-byte budget, a seeded mix of Pin,
  // handle drop, Touch, Penalize and Erase, skewed so some keys stay hot
  // while the rest churn. At most 3 handles are held (3 x 46 + 46 bytes
  // stays under budget), so admission never waits.
  constexpr int kKeys = 64;
  constexpr size_t kBudget = 300;
  constexpr size_t kMaxHeld = 3;
  auto bytes_of = [](int k) { return size_t{16} + (k * 7) % 31; };

  std::vector<int> dropped;  // value destructions, in order
  bool logging = true;
  BytePool pool(kBudget);
  ReferencePool ref(kBudget);
  std::vector<std::pair<int, BytePool::Handle>> held;
  std::mt19937_64 rng(2024);
  auto key = [&] {
    return rng() % 2 == 0 ? static_cast<int>(rng() % 6)
                          : static_cast<int>(rng() % kKeys);
  };
  constexpr double kAmounts[] = {1.0, 3.0, 0.5, 16.0, 0.125, 7.0};

  for (int op = 0; op < 20000 && !HasFatalFailure(); ++op) {
    const uint64_t pick = rng() % 100;
    if (pick < 55) {
      const int k = key();
      ref.Pin(k, bytes_of(k));
      auto h = pool.Pin(k, [&, k]() -> Result<BytePool::Loaded> {
        BytePool::Loaded out;
        out.value = std::shared_ptr<const std::vector<char>>(
            new std::vector<char>(1, 'x'), [&, k](const std::vector<char>* v) {
              if (logging) dropped.push_back(k);
              delete v;
            });
        out.bytes = bytes_of(k);
        return out;
      });
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      held.emplace_back(k, std::move(h).value());
      if (held.size() > kMaxHeld) {
        ref.Unpin(held.front().first);
        held.erase(held.begin());
      }
    } else if (pick < 70) {
      if (!held.empty()) {
        const size_t i = rng() % held.size();
        ref.Unpin(held[i].first);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else if (pick < 90) {
      const int k = key();
      const double amount = kAmounts[rng() % 6];
      ref.Touch(k, amount);
      pool.Touch(k, amount);
    } else if (pick < 95) {
      const int k = static_cast<int>(rng() % kKeys);
      ref.Penalize(k);
      pool.Penalize(k);
    } else {
      const int k = static_cast<int>(rng() % kKeys);
      ref.Erase(k);
      pool.Erase(k);
    }
    ASSERT_EQ(dropped, ref.dropped()) << "op " << op;
    ExpectSameStats(pool.Stats(), ref.Stats());
  }
  // Past two renormalisations of the shared heat exponent.
  EXPECT_GT(pool.Stats().evictions, 1100u);
  held.clear();
  logging = false;
}

// ---------------------------------------------------------------------------
// Sketch fixtures.

struct Bench {
  std::vector<QueryInstance> train_q;
  std::vector<double> train_a;
  std::vector<QueryInstance> probes;
  NeuroSketchConfig cfg;
};

// Same shape as precision_test's bench: big enough that the f32 tier
// validates, small enough to train in well under a second.
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
  b.probes = pgen.GenerateMany(120, &engine, &spec);

  b.cfg.tree_height = 2;
  b.cfg.target_partitions = 4;
  b.cfg.n_layers = 4;
  b.cfg.l_first = 24;
  b.cfg.l_rest = 16;
  b.cfg.train.epochs = 40;
  b.cfg.seed = seed + 2;
  return b;
}

// A deliberately tiny sketch for the many-entry catalog tests.
Bench MakeTinyBench(uint64_t seed) {
  Bench b = MakeBench(seed);
  b.cfg.tree_height = 1;
  b.cfg.target_partitions = 1;
  b.cfg.n_layers = 2;
  b.cfg.l_first = 8;
  b.cfg.l_rest = 8;
  b.cfg.train.epochs = 10;
  return b;
}

QueryFunctionKey KeyFor(size_t i) {
  QueryFunctionKey key;
  key.predicate_name = AxisRangePredicate::Make()->name();
  key.agg = Aggregate::kCount;
  key.measure_col = i;  // distinct measure columns make distinct keys
  return key;
}

// Bit-identical, NaN-safe: the paging layer must never perturb a single
// answer bit, so compare representations rather than values.
void ExpectBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << "answers diverge at " << i << ": " << a[i] << " vs " << b[i];
  }
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Lifecycle: a sketch holds its tree, scales, f64 plans and the active
// tier's plans — nothing else, trained or loaded.

TEST(ResidentBytesTest, SelectPrecisionFreesAndRebuildsF32) {
  Bench b = MakeBench(502);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  NeuroSketch& ns = sk.value();
  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kF32);
  const std::vector<double> f32_answers = ns.AnswerBatch(b.probes);
  const size_t f32_resident = ns.ResidentBytes();
  const size_t f32_plan_bytes = ns.PlanBytes(PlanPrecision::kF32);
  ASSERT_GT(f32_plan_bytes, 0u);

  // f32 -> f64 frees the f32 plans; the tier stays carried.
  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF64).ok());
  EXPECT_EQ(ns.PlanBytes(PlanPrecision::kF32), 0u);
  EXPECT_TRUE(ns.has_f32_plans());
  EXPECT_EQ(ns.ResidentBytes(), f32_resident - f32_plan_bytes);
  for (const auto& q : b.probes) {
    const double a = ns.Answer(q), ref = ns.AnswerScalar(q);
    EXPECT_EQ(std::memcmp(&a, &ref, sizeof(double)), 0);
  }

  // f64 -> f32 narrows again: deterministic from the f64 parameters, so
  // the plans and the answers come back bit-identical.
  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF32).ok());
  EXPECT_EQ(ns.PlanBytes(PlanPrecision::kF32), f32_plan_bytes);
  EXPECT_EQ(ns.ResidentBytes(), f32_resident);
  ExpectBitIdentical(f32_answers, ns.AnswerBatch(b.probes));
}

TEST(ResidentBytesTest, LoadComesUpLean) {
  Bench b = MakeBench(503);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  const NeuroSketch& trained = sk.value();
  const std::string path = TempPath("lean.sketch");
  ASSERT_TRUE(trained.Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
  // A trained sketch keeps no trainer: it holds exactly what its loaded
  // copy holds.
  EXPECT_EQ(trained.ResidentBytes(), loaded.value().ResidentBytes());
  EXPECT_EQ(loaded.value().SizeBytes(), trained.SizeBytes());
  ExpectBitIdentical(trained.AnswerBatch(b.probes),
                     loaded.value().AnswerBatch(b.probes));
  // The scalar reference rebuilds each routed leaf from its f64 plan: the
  // same bits for both copies, and equal to Answer on the f64 tier.
  for (const auto& q : b.probes) {
    const double t = trained.AnswerScalar(q);
    const double l = loaded.value().AnswerScalar(q);
    EXPECT_EQ(std::memcmp(&t, &l, sizeof(double)), 0);
    if (trained.plan_precision() == PlanPrecision::kF64) {
      const double a = trained.Answer(q), la = loaded.value().Answer(q);
      EXPECT_EQ(std::memcmp(&a, &t, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&la, &l, sizeof(double)), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Paged catalog file format.

TEST(PagedCatalogTest, PackOpenLoadRoundTrip) {
  Bench b = MakeTinyBench(504);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  auto shared = std::make_shared<const NeuroSketch>(std::move(sk).value());
  const std::vector<double> reference = shared->AnswerBatch(b.probes);

  std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
      entries;
  for (size_t i = 0; i < 5; ++i) entries.emplace_back(KeyFor(i), shared);
  const std::string path = TempPath("roundtrip.cat");
  ASSERT_TRUE(WritePagedCatalog(path, entries).ok());

  auto reader = PagedCatalogReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader.value().entries().size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    const PagedCatalogEntry& e = reader.value().entries()[i];
    EXPECT_EQ(e.key.measure_col, i);
    EXPECT_EQ(e.key.predicate_name, KeyFor(i).predicate_name);
    EXPECT_EQ(e.size_bytes, shared->SizeBytes());
    auto loaded = reader.value().LoadEntry(e);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectBitIdentical(reference, loaded.value().AnswerBatch(b.probes));
  }
  std::remove(path.c_str());
}

TEST(PagedCatalogTest, OpenRejectsGarbage) {
  const std::string path = TempPath("garbage.cat");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a paged catalog", f);
    std::fclose(f);
  }
  EXPECT_FALSE(PagedCatalogReader::Open(path).ok());
  EXPECT_FALSE(PagedCatalogReader::Open(TempPath("missing.cat")).ok());
  std::remove(path.c_str());
}

// Writes a hand-built catalog index: the magic, `count`, then `body`.
void WriteCraftedCatalog(const std::string& path, uint64_t count,
                         const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint64_t magic = 0x313054414350534eULL;  // "NSPCAT01"
  std::fwrite(&magic, sizeof(magic), 1, f);
  std::fwrite(&count, sizeof(count), 1, f);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

template <typename T>
void AppendRaw(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// One index slot: name_len, name, agg, measure, offset, size.
std::string IndexSlot(uint64_t name_len, const std::string& name,
                      uint64_t offset, uint64_t size, uint64_t measure = 0) {
  std::string slot;
  AppendRaw(&slot, name_len);
  slot += name;
  AppendRaw(&slot, static_cast<uint32_t>(Aggregate::kCount));
  AppendRaw(&slot, measure);
  AppendRaw(&slot, offset);
  AppendRaw(&slot, size);
  return slot;
}

TEST(PagedCatalogTest, CorruptIndexFailsWithoutThrowingOrAllocating) {
  const std::string path = TempPath("crafted.cat");
  const uint64_t kHuge = uint64_t{1} << 40;
  struct Case {
    const char* what;
    uint64_t count;
    std::string body;
  };
  const std::string name = "axis_range";
  const uint64_t index_end = 16 + IndexSlot(name.size(), name, 0, 0).size();
  const std::vector<Case> cases = {
      {"count = 2^40", kHuge, IndexSlot(name.size(), name, 0, 0)},
      {"name_len = 2^40", 1, IndexSlot(kHuge, name, 0, 0)},
      {"entry past EOF", 1, IndexSlot(name.size(), name, index_end, 64)},
      {"offset past EOF", 1, IndexSlot(name.size(), name, kHuge, 0)},
      {"offset + size wraps", 1,
       IndexSlot(name.size(), name, 8, ~uint64_t{0} - 4)},
      {"truncated slot", 1, IndexSlot(name.size(), name, 0, 0).substr(0, 20)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    WriteCraftedCatalog(path, c.count, c.body);
    Result<PagedCatalogReader> r = Status::Unknown("not opened");
    EXPECT_NO_THROW(r = PagedCatalogReader::Open(path));
    EXPECT_FALSE(r.ok());
  }
  // An entry that exactly reaches EOF is fine (an empty image here).
  WriteCraftedCatalog(path, 1, IndexSlot(name.size(), name, index_end, 0));
  EXPECT_TRUE(PagedCatalogReader::Open(path).ok());
  std::remove(path.c_str());
}

// Byte offsets of a sketch image's length fields (see NeuroSketch::SaveTo):
// qdim, rsize, routing, nmodels, per-leaf scales, then per model the nn
// header (magic, version, in_dim, ...).
struct ImageFields {
  size_t rsize = 8;
  size_t nmodels = 0;
  size_t model_in_dim = 0;
};

uint64_t ReadU64At(const std::string& image, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, image.data() + off, sizeof(v));
  return v;
}

ImageFields FieldsOf(const std::string& image) {
  ImageFields f;
  f.nmodels = 16 + 8 * ReadU64At(image, f.rsize);
  f.model_in_dim = f.nmodels + 8 + 16 * ReadU64At(image, f.nmodels) + 8;
  return f;
}

std::string WithU64At(std::string image, size_t off, uint64_t v) {
  std::memcpy(&image[off], &v, sizeof(v));
  return image;
}

double ReadDoubleAt(const std::string& image, size_t off) {
  double v = 0.0;
  std::memcpy(&v, image.data() + off, sizeof(v));
  return v;
}

std::string WithDoubleAt(std::string image, size_t off, double v) {
  std::memcpy(&image[off], &v, sizeof(v));
  return image;
}

// The routing block follows qdim and rsize: pre-order (tag, value)
// pairs, tag -1 for a leaf (value = its model id), else the split
// dimension (value = the split).
constexpr size_t kRoutingAt = 16;

// Length fields are untrusted: inflated far past the bytes the image
// holds, each fails LoadFrom with a Status — no std::length_error, no
// std::bad_alloc, no allocation the image does not back.
TEST(UntrustedImageTest, InflatedCountsFailWithStatus) {
  Bench b = MakeTinyBench(508);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  std::ostringstream out;
  ASSERT_TRUE(sk.value().SaveTo(&out).ok());
  const std::string image = out.str();
  const ImageFields f = FieldsOf(image);
  ASSERT_LT(f.model_in_dim + 8, image.size());
  {
    std::istringstream in(image);
    ASSERT_TRUE(NeuroSketch::LoadFrom(&in).ok());  // the offsets are right
  }
  const struct {
    const char* what;
    size_t off;
  } fields[] = {{"rsize", f.rsize},
                {"nmodels", f.nmodels},
                {"model in_dim", f.model_in_dim}};
  for (const auto& field : fields) {
    for (uint64_t v : {uint64_t{1} << 40, uint64_t{1} << 61, ~uint64_t{0}}) {
      SCOPED_TRACE(std::string(field.what) + " = " + std::to_string(v));
      std::istringstream in(WithU64At(image, field.off, v));
      Result<NeuroSketch> r = Status::Unknown("not loaded");
      EXPECT_NO_THROW(r = NeuroSketch::LoadFrom(&in));
      EXPECT_FALSE(r.ok());
    }
  }
}

// The routing tree is untrusted too. A split dimension outside the
// query, a tag that is neither -1 nor an integer, a non-finite split or
// a leaf id without a model each fail LoadFrom with a Status; loaded,
// they would send Route or the model lookup out of bounds (and a NaN or
// huge tag makes the int cast undefined).
TEST(UntrustedImageTest, CorruptRoutingFailsWithStatus) {
  Bench b = MakeBench(509);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  std::ostringstream out;
  ASSERT_TRUE(sk.value().SaveTo(&out).ok());
  const std::string image = out.str();
  const uint64_t qdim = ReadU64At(image, 0);
  const uint64_t rsize = ReadU64At(image, 8);
  const uint64_t nmodels = ReadU64At(image, kRoutingAt + 8 * rsize);
  ASSERT_NE(ReadDoubleAt(image, kRoutingAt), -1.0) << "the root must split";
  size_t leaf_at = 0;  // the first leaf's id
  for (size_t p = 0; p < rsize && leaf_at == 0; p += 2) {
    if (ReadDoubleAt(image, kRoutingAt + 8 * p) == -1.0) {
      leaf_at = kRoutingAt + 8 * (p + 1);
    }
  }
  ASSERT_NE(leaf_at, 0u);
  {
    std::istringstream in(image);
    ASSERT_TRUE(NeuroSketch::LoadFrom(&in).ok());  // the offsets are right
  }
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const struct {
    const char* what;
    size_t off;
    double v;
  } cases[] = {{"root tag 100000", kRoutingAt, 100000.0},
               {"root tag qdim", kRoutingAt, static_cast<double>(qdim)},
               {"root tag NaN", kRoutingAt, kNaN},
               {"root tag 1e300", kRoutingAt, 1e300},
               {"root tag 0.5", kRoutingAt, 0.5},
               {"root tag -2", kRoutingAt, -2.0},
               {"root split NaN", kRoutingAt + 8, kNaN},
               {"root split inf", kRoutingAt + 8, kInf},
               {"leaf id nmodels", leaf_at, static_cast<double>(nmodels)},
               {"leaf id -1", leaf_at, -1.0},
               {"leaf id NaN", leaf_at, kNaN},
               {"leaf id 1e300", leaf_at, 1e300},
               {"leaf id 0.5", leaf_at, 0.5}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    std::istringstream in(WithDoubleAt(image, c.off, c.v));
    Result<NeuroSketch> r = Status::Unknown("not loaded");
    EXPECT_NO_THROW(r = NeuroSketch::LoadFrom(&in));
    EXPECT_FALSE(r.ok());
  }
  // A header qdim that is not the models' input width is corrupt as well.
  std::istringstream in(WithU64At(image, 0, 100000));
  EXPECT_FALSE(NeuroSketch::LoadFrom(&in).ok());
}

// Pre-order routing of a chain of `depth` splits on dimension 0: each
// split's left child is the next split and its right child a leaf. The
// leaves, in pre-order, are numbered 0..depth modulo `nmodels`.
std::vector<double> ChainRouting(size_t depth, uint64_t nmodels) {
  std::vector<double> routing;
  for (size_t i = 0; i < depth; ++i) routing.insert(routing.end(), {0.0, 0.5});
  for (size_t i = 0; i <= depth; ++i) {
    routing.insert(routing.end(), {-1.0, static_cast<double>(i % nmodels)});
  }
  return routing;
}

// `image` with its routing block replaced by `routing`.
std::string WithRouting(const std::string& image,
                        const std::vector<double>& routing) {
  std::string out = image.substr(0, 8);
  AppendRaw(&out, static_cast<uint64_t>(routing.size()));
  for (double v : routing) AppendRaw(&out, v);
  return out + image.substr(kRoutingAt + 8 * ReadU64At(image, 8));
}

// `image` (whose tree has at least two leaves) with its second leaf
// naming the first leaf's model: one model is named twice, another never.
std::string WithDuplicateLeafId(const std::string& image) {
  std::vector<size_t> leaf_ids;  // byte offsets of the leaf ids
  for (size_t p = 0; p < ReadU64At(image, 8); p += 2) {
    if (ReadDoubleAt(image, kRoutingAt + 8 * p) == -1.0) {
      leaf_ids.push_back(kRoutingAt + 8 * (p + 1));
    }
  }
  EXPECT_GE(leaf_ids.size(), 2u);
  if (leaf_ids.size() < 2) return image;
  return WithDoubleAt(image, leaf_ids[1], ReadDoubleAt(image, leaf_ids[0]));
}

// The routing tree's shape is untrusted too. DecodeRouting walks it with
// an explicit stack and accepts no leaf deeper than kMaxDepth: 100,000
// nested splits (3.2 MB, which LoadFrom's byte bound admits) once
// overflowed an 8 MiB stack in the recursive decoder.
TEST(UntrustedImageTest, RoutingDepthIsCapped) {
  const size_t kMax = QuerySpaceKdTree::kMaxDepth;
  for (size_t depth : {size_t{1}, kMax}) {
    SCOPED_TRACE(depth);
    Result<QuerySpaceKdTree> tree =
        QuerySpaceKdTree::DecodeRouting(ChainRouting(depth, depth + 1), 2,
                                        depth + 1);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_EQ(tree.value().NumLeaves(), depth + 1);
    EXPECT_EQ(tree.value().Route(QueryInstance({0.25, 0.0}))->leaf_id, 0);
    EXPECT_EQ(tree.value().Route(QueryInstance({0.75, 0.0}))->leaf_id,
              static_cast<int>(depth));
  }
  for (size_t depth : {kMax + 1, size_t{100000}}) {
    SCOPED_TRACE(depth);
    EXPECT_FALSE(QuerySpaceKdTree::DecodeRouting(ChainRouting(depth, depth + 1),
                                                 2, depth + 1)
                     .ok());
  }
}

TEST(UntrustedImageTest, DeepRoutingImageFailsWithStatus) {
  Bench b = MakeBench(510);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  std::ostringstream out;
  ASSERT_TRUE(sk.value().SaveTo(&out).ok());
  const std::string image = out.str();
  const uint64_t nmodels =
      ReadU64At(image, kRoutingAt + 8 * ReadU64At(image, 8));
  const std::string deep = WithRouting(image, ChainRouting(100000, nmodels));
  ASSERT_GT(deep.size(), size_t{3200000});
  std::istringstream in(deep);
  Result<NeuroSketch> r = Status::Unknown("not loaded");
  EXPECT_NO_THROW(r = NeuroSketch::LoadFrom(&in));
  EXPECT_FALSE(r.ok());
}

// Every model slot must be named by exactly one leaf: a duplicate id
// leaves another model unreachable, and so does a tree with fewer leaves
// than models.
TEST(UntrustedImageTest, RoutingLeafIdsNameEveryModelOnce) {
  using Tree = QuerySpaceKdTree;
  EXPECT_TRUE(Tree::DecodeRouting({0, 0.5, -1, 0, -1, 1}, 2, 2).ok());
  EXPECT_TRUE(Tree::DecodeRouting({0, 0.5, -1, 1, -1, 0}, 2, 2).ok());
  EXPECT_FALSE(Tree::DecodeRouting({0, 0.5, -1, 1, -1, 1}, 2, 2).ok());
  EXPECT_FALSE(Tree::DecodeRouting({0, 0.5, -1, 0, -1, 1}, 2, 3).ok());
  EXPECT_FALSE(Tree::DecodeRouting({-1, 0}, 2, 2).ok());
  EXPECT_FALSE(Tree::DecodeRouting({-1, 0}, 2, uint64_t{1} << 62).ok());

  Bench b = MakeBench(511);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  std::ostringstream out;
  ASSERT_TRUE(sk.value().SaveTo(&out).ok());
  const std::string image = out.str();
  {
    std::istringstream in(image);
    ASSERT_TRUE(NeuroSketch::LoadFrom(&in).ok());
  }
  const struct {
    const char* what;
    std::string image;
  } cases[] = {{"duplicate leaf id", WithDuplicateLeafId(image)},
               {"missing leaf id", WithRouting(image, {-1.0, 0.0})}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    std::istringstream in(c.image);
    Result<NeuroSketch> r = Status::Unknown("not loaded");
    EXPECT_NO_THROW(r = NeuroSketch::LoadFrom(&in));
    EXPECT_FALSE(r.ok());
  }
}

// The reader holds the descriptor it opened, shared by its copies: it
// keeps serving the attached file after the path is unlinked, and a copy
// keeps working after the original is gone.
TEST(PagedCatalogTest, ReaderOutlivesItsPathAndItsOriginal) {
  Bench b = MakeTinyBench(506);
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok()) << sk.status().ToString();
  auto shared = std::make_shared<const NeuroSketch>(std::move(sk).value());
  const std::vector<double> reference = shared->AnswerBatch(b.probes);
  std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
      entries;
  for (size_t i = 0; i < 3; ++i) entries.emplace_back(KeyFor(i), shared);
  const std::string path = TempPath("unlinked.cat");
  ASSERT_TRUE(WritePagedCatalog(path, entries).ok());

  auto original = std::make_unique<PagedCatalogReader>();
  {
    auto opened = PagedCatalogReader::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    *original = std::move(opened).value();
  }
  ASSERT_EQ(std::remove(path.c_str()), 0);
  for (const PagedCatalogEntry& e : original->entries()) {
    auto loaded = original->LoadEntry(e);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectBitIdentical(reference, loaded.value().AnswerBatch(b.probes));
  }

  const PagedCatalogReader copy = *original;
  original.reset();
  ASSERT_EQ(copy.entries().size(), 3u);
  for (const PagedCatalogEntry& e : copy.entries()) {
    auto loaded = copy.LoadEntry(e);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectBitIdentical(reference, loaded.value().AnswerBatch(b.probes));
  }
  // A hand-made entry outside the file is refused, not read.
  PagedCatalogEntry bogus = copy.entries().front();
  bogus.size_bytes = uint64_t{1} << 40;
  EXPECT_FALSE(copy.LoadEntry(bogus).ok());
}

// ---------------------------------------------------------------------------
// Serve-path paging.

struct PagedServeRig {
  Table table;
  std::unique_ptr<ExactEngine> engine;
  // Heap-held: SketchStore owns a shared_mutex, so the rig could not be
  // returned from Make() by value otherwise.
  std::unique_ptr<SketchStore> store = std::make_unique<SketchStore>();
  std::vector<QueryInstance> probes;
  std::vector<double> reference;  // fully-resident answers
  std::string catalog_path;
  size_t resident_one = 0;  // one faulted-in sketch's ResidentBytes
  size_t num_keys = 0;

  // Packs `num_keys` copies of one tiny trained sketch under distinct
  // keys and attaches them cold under `budget_fraction` of the
  // fully-resident footprint. `split` keeps two leaves, so the routing
  // root is a split.
  // `rewrite`, when set, may rewrite the catalog file before it is
  // attached.
  static PagedServeRig Make(
      size_t num_keys, double budget_fraction, const std::string& name,
      PlanPrecision precision = PlanPrecision::kF64, bool split = false,
      const std::function<void(const std::string&)>& rewrite = {}) {
    PagedServeRig r;
    r.num_keys = num_keys;
    Bench b = MakeTinyBench(505);
    b.cfg.plan_precision = precision;
    if (split) b.cfg.target_partitions = 2;
    auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
    EXPECT_TRUE(sk.ok()) << sk.status().ToString();
    auto shared = std::make_shared<const NeuroSketch>(std::move(sk).value());
    // Keep only probes the sketch genuinely answers: a NaN answer is
    // repaired by the exact engine on the serve path, which would make
    // the bit-identity comparison meaningless for that slot.
    const std::vector<double> all = shared->AnswerBatch(b.probes);
    for (size_t i = 0; i < all.size(); ++i) {
      if (std::isnan(all[i])) continue;
      r.probes.push_back(b.probes[i]);
      r.reference.push_back(all[i]);
    }
    EXPECT_GE(r.probes.size(), 32u);

    std::vector<
        std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
        entries;
    for (size_t i = 0; i < num_keys; ++i) {
      entries.emplace_back(KeyFor(i), shared);
    }
    r.catalog_path = TempPath(name);
    EXPECT_TRUE(WritePagedCatalog(r.catalog_path, entries).ok());

    r.table = MakeUniformTable(512, 2, 505);
    r.engine = std::make_unique<ExactEngine>(&r.table);
    EXPECT_TRUE(r.store->RegisterDataset("ds", r.engine.get()).ok());

    // Budget in units of what a faulted-in sketch ACTUALLY occupies.
    auto probe_reader = PagedCatalogReader::Open(r.catalog_path);
    EXPECT_TRUE(probe_reader.ok());
    auto probe = probe_reader.value().LoadEntry(
        probe_reader.value().entries().front());
    EXPECT_TRUE(probe.ok());
    r.resident_one = probe.value().ResidentBytes();
    if (rewrite) rewrite(r.catalog_path);
    PagedCatalogOptions opts;
    opts.max_resident_bytes = static_cast<size_t>(
        budget_fraction * static_cast<double>(r.resident_one * num_keys));
    EXPECT_TRUE(
        r.store->AttachPagedCatalog("ds", r.catalog_path, opts).ok());
    return r;
  }

  ServeKey Key(size_t i) const { return ServeKey{"ds", KeyFor(i)}; }

  PagedServeRig() = default;
  PagedServeRig(PagedServeRig&&) = default;
  PagedServeRig& operator=(PagedServeRig&&) = default;
  ~PagedServeRig() {
    if (!catalog_path.empty()) std::remove(catalog_path.c_str());
  }
};

TEST(PagedServeTest, CatalogOf256ServesBitIdenticalAtQuarterBudget) {
  // The ISSUE acceptance property: >= 256 cold sketches, budget capped at
  // 25% of the fully-resident footprint, answers bit-identical to the
  // fully-resident run, peak residency never above budget.
  PagedServeRig r = PagedServeRig::Make(256, 0.25, "budget256.cat");
  ASSERT_EQ(r.store->num_paged(), 256u);
  for (size_t i = 0; i < 256; ++i) {
    auto sketch = r.store->Lookup(r.Key(i));
    ASSERT_NE(sketch, nullptr) << "fault-in failed for key " << i;
    ExpectBitIdentical(r.reference, sketch->AnswerBatch(r.probes));
  }
  const BufferPoolStats s = r.store->PagedStats();
  EXPECT_GT(s.max_bytes, 0u);
  EXPECT_LE(s.peak_resident_bytes, s.max_bytes);
  EXPECT_GE(s.faultins, 256u);
  EXPECT_GT(s.evictions, 0u);  // 25% budget forces turnover
}

TEST(PagedServeTest, EvictFaultInRoundTripsBitIdenticalOnEveryTier) {
  for (PlanPrecision tier : {PlanPrecision::kF64, PlanPrecision::kF32}) {
    SCOPED_TRACE(PlanPrecisionName(tier));
    // Budget fits ~1.2 sketches: every alternation between the three
    // keys evicts the previous one, so each Lookup below is a fresh
    // evict -> fault-in round trip of the same on-disk image.
    PagedServeRig r = PagedServeRig::Make(3, 0.4, "tiertrip.cat", tier);
    for (int pass = 0; pass < 3; ++pass) {
      for (size_t i = 0; i < 3; ++i) {
        auto sketch = r.store->Lookup(r.Key(i));
        ASSERT_NE(sketch, nullptr);
        ExpectBitIdentical(r.reference, sketch->AnswerBatch(r.probes));
      }
    }
    const BufferPoolStats s = r.store->PagedStats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_LE(s.peak_resident_bytes, s.max_bytes);
  }
}

TEST(PagedServeTest, ListingsReportBothSizesAndColdness) {
  PagedServeRig r = PagedServeRig::Make(4, 0.5, "listing.cat");
  // All cold: on-disk size known, nothing resident.
  for (const auto& l : r.store->List()) {
    EXPECT_TRUE(l.paged);
    EXPECT_GT(l.size_bytes, 0u);
    EXPECT_EQ(l.resident_bytes, 0u);
  }
  // Fault one in: its listing now reports a genuine resident footprint
  // alongside the serialized size (two independent quantities).
  auto sketch = r.store->Lookup(r.Key(0));
  ASSERT_NE(sketch, nullptr);
  bool saw_resident = false;
  for (const auto& l : r.store->List()) {
    if (l.key.fn.measure_col != 0) continue;
    saw_resident = true;
    EXPECT_GT(l.resident_bytes, 0u);
    EXPECT_GT(l.size_bytes, 0u);
    EXPECT_TRUE(l.compiled);
  }
  EXPECT_TRUE(saw_resident);
}

TEST(PagedServeTest, RegisteredVersionShadowsColdEntry) {
  PagedServeRig r = PagedServeRig::Make(2, 1.0, "shadow.cat");
  Bench b = MakeTinyBench(777);  // a DIFFERENT model under the same key
  auto sk = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sk.ok());
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  auto replacement =
      std::make_shared<const NeuroSketch>(std::move(sk).value());
  ASSERT_TRUE(r.store->Register("ds", spec, replacement).ok());
  // The hot swap: lookups now see the registered version, not the cold
  // catalog entry; the untouched key still faults in from disk.
  EXPECT_EQ(r.store->Lookup(r.Key(0)).get(), replacement.get());
  EXPECT_NE(r.store->Lookup(r.Key(1)), nullptr);
}

// An entry's image as the catalog file holds it.
std::string ReadEntryImage(const std::string& path,
                           const PagedCatalogEntry& e) {
  std::string image(e.size_bytes, '\0');
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return image;
  EXPECT_EQ(std::fseek(f, static_cast<long>(e.offset), SEEK_SET), 0);
  EXPECT_EQ(std::fread(&image[0], 1, image.size(), f), image.size());
  std::fclose(f);
  return image;
}

// Rewrites 8 bytes of the catalog file in place at `offset`. The store
// reads the file at fault-in time, so an attached catalog sees it.
template <typename T>
void OverwriteAt(const std::string& path, size_t offset, T v) {
  static_assert(sizeof(T) == 8, "one 8-byte image field");
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
  std::fclose(f);
}

// A corrupt paged entry serves as "no sketch": its lookups return
// nullptr without throwing on the loading thread, the serve path answers
// its queries exactly, and intact entries keep faulting in. Entries 0
// and 1 of `r` are the corrupt ones, entry 2 is intact.
void ExpectCorruptEntriesServeExact(const PagedServeRig& r) {
  for (size_t i : {0u, 1u}) {
    SCOPED_TRACE(i);
    std::shared_ptr<const NeuroSketch> got;
    EXPECT_NO_THROW(got = r.store->Lookup(r.Key(i)));
    EXPECT_EQ(got, nullptr);
  }
  auto intact = r.store->Lookup(r.Key(2));
  ASSERT_NE(intact, nullptr);
  ExpectBitIdentical(r.reference, intact->AnswerBatch(r.probes));

  ServeEngine serving(r.store.get());
  for (size_t i : {0u, 1u}) {
    SCOPED_TRACE(i);
    QueryFunctionSpec spec;
    spec.predicate = AxisRangePredicate::Make();
    spec.agg = Aggregate::kCount;
    spec.measure_col = i;
    const std::vector<double> exact = r.engine->AnswerBatch(spec, r.probes);
    const std::vector<ServeResult> served =
        serving.SubmitMany("ds", spec, r.probes).get();
    ASSERT_EQ(served.size(), exact.size());
    std::vector<double> values;
    for (const ServeResult& res : served) {
      EXPECT_FALSE(res.used_sketch);
      values.push_back(res.value);
    }
    ExpectBitIdentical(exact, values);
  }
}

TEST(PagedServeTest, InflatedCountsInAnEntryServeExactAnswers) {
  PagedServeRig r = PagedServeRig::Make(3, 1.0, "inflated.cat");
  auto reader = PagedCatalogReader::Open(r.catalog_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const PagedCatalogEntry& e0 = reader.value().entries()[0];
  const PagedCatalogEntry& e1 = reader.value().entries()[1];
  ASSERT_EQ(e0.key.measure_col, 0u);
  ASSERT_EQ(e1.key.measure_col, 1u);
  const ImageFields fields = FieldsOf(ReadEntryImage(r.catalog_path, e0));
  // rsize of entry 0, nmodels of entry 1 (all entries share one image).
  const uint64_t kHuge = uint64_t{1} << 40;
  OverwriteAt(r.catalog_path, e0.offset + fields.rsize, kHuge);
  OverwriteAt(r.catalog_path, e1.offset + fields.nmodels, kHuge);
  ExpectCorruptEntriesServeExact(r);
}

// The first crash a corrupt routing tree caused: a root split dimension
// of 100000 loaded, and Route then read the query out of bounds on the
// dispatcher thread. A NaN tag made the cast itself undefined.
TEST(PagedServeTest, CorruptRoutingInAnEntryServesExactAnswers) {
  PagedServeRig r = PagedServeRig::Make(3, 1.0, "routing.cat",
                                        PlanPrecision::kF64, /*split=*/true);
  auto reader = PagedCatalogReader::Open(r.catalog_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const PagedCatalogEntry& e0 = reader.value().entries()[0];
  const PagedCatalogEntry& e1 = reader.value().entries()[1];
  ASSERT_NE(ReadDoubleAt(ReadEntryImage(r.catalog_path, e0), kRoutingAt),
            -1.0)
      << "the root must split";
  OverwriteAt(r.catalog_path, e0.offset + kRoutingAt, 100000.0);
  OverwriteAt(r.catalog_path, e1.offset + kRoutingAt,
              std::numeric_limits<double>::quiet_NaN());
  ExpectCorruptEntriesServeExact(r);
}

// Rewrites the catalog at `path` to hold `images`, entry i under
// KeyFor(i), with the index offsets recomputed.
void WriteCatalogImages(const std::string& path,
                        const std::vector<std::string>& images) {
  const std::string name = AxisRangePredicate::Make()->name();
  uint64_t offset =
      16 + images.size() * IndexSlot(name.size(), name, 0, 0).size();
  std::string index, blobs;
  for (size_t i = 0; i < images.size(); ++i) {
    index += IndexSlot(name.size(), name, offset, images[i].size(), i);
    offset += images[i].size();
    blobs += images[i];
  }
  WriteCraftedCatalog(path, images.size(), index + blobs);
}

// The routing tree's shape, at fault-in on the dispatcher thread: entry
// 0 nests 100,000 splits (the stack overflow a recursive decoder hit),
// entry 1 names one model twice and the other never.
TEST(PagedServeTest, DeepOrDuplicateRoutingInAnEntryServesExactAnswers) {
  PagedServeRig r = PagedServeRig::Make(
      3, 1.0, "shape.cat", PlanPrecision::kF64, /*split=*/true,
      [](const std::string& path) {
        auto reader = PagedCatalogReader::Open(path);
        ASSERT_TRUE(reader.ok()) << reader.status().ToString();
        std::vector<std::string> images;
        for (const PagedCatalogEntry& e : reader.value().entries()) {
          images.push_back(ReadEntryImage(path, e));
        }
        ASSERT_EQ(images.size(), 3u);
        const uint64_t nmodels =
            ReadU64At(images[0], kRoutingAt + 8 * ReadU64At(images[0], 8));
        images[0] = WithRouting(images[0], ChainRouting(100000, nmodels));
        images[1] = WithDuplicateLeafId(images[1]);
        WriteCatalogImages(path, images);
      });
  ExpectCorruptEntriesServeExact(r);
}

TEST(PagedServeTest, ExportMetricsCarriesPagedSeries) {
  PagedServeRig r = PagedServeRig::Make(4, 0.3, "metrics.cat");
  ServeEngine serving(r.store.get());
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 1;
  std::vector<QueryInstance> burst(r.probes.begin(), r.probes.begin() + 32);
  serving.SubmitMany("ds", spec, std::move(burst)).get();

  metrics::MetricsRegistry reg;
  serving.ExportMetrics(&reg);
  const std::string text = reg.TextExposition();
  EXPECT_NE(text.find("nsketch_serve_resident_bytes"), std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_faultins_total"), std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_evictions_total"), std::string::npos);
  EXPECT_NE(text.find("nsketch_serve_faultin_latency_us"), std::string::npos);
  // The serve path actually faulted the store in.
  const BufferPoolStats s = r.store->PagedStats();
  EXPECT_GE(s.faultins, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
}

TEST(PagedServeTest, EightThreadServeWithConcurrentEviction) {
  // The TSan battery: 8 client threads hammer 12 paged keys through the
  // serve engine under a budget that fits only ~3 sketches, so fault-ins,
  // evictions, pins and answers all race; meanwhile observers scrape
  // listings and stats. Every answer must still be bit-identical to the
  // fully-resident reference.
  PagedServeRig r = PagedServeRig::Make(12, 0.27, "tsan.cat");
  serve::ServeOptions opts;
  opts.num_shards = 4;
  ServeEngine serving(r.store.get(), opts);

  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)r.store->List();
      (void)r.store->PagedStats();
      metrics::MetricsRegistry reg;
      serving.ExportMetrics(&reg);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr size_t kPerThread = 24;
  std::vector<std::thread> clients;
  std::atomic<size_t> mismatches{0};
  for (size_t t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t key_i = (t * 5 + i) % r.num_keys;
        QueryFunctionSpec spec;
        spec.predicate = AxisRangePredicate::Make();
        spec.agg = Aggregate::kCount;
        spec.measure_col = key_i;
        std::vector<QueryInstance> burst(r.probes.begin(),
                                         r.probes.begin() + 16);
        auto results = serving.SubmitMany("ds", spec, std::move(burst)).get();
        for (size_t j = 0; j < results.size(); ++j) {
          if (std::memcmp(&results[j].value, &r.reference[j],
                          sizeof(double)) != 0) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true);
  observer.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const BufferPoolStats s = r.store->PagedStats();
  EXPECT_LE(s.peak_resident_bytes, s.max_bytes);
  EXPECT_GT(s.evictions, 0u);
  const auto stats = serving.Snapshot();
  EXPECT_EQ(stats.queries, 8u * kPerThread * 16u);
  EXPECT_EQ(stats.failed_answers, 0u);
}

}  // namespace
}  // namespace neurosketch
