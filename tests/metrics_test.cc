// Tests for the observability primitives (util/metrics.h, util/
// trace_ring.h): counter/gauge/histogram semantics, the interpolated
// percentile error bound checked property-style against exact sorted
// quantiles, the Prometheus text exposition golden format, the JSON
// writer, and the slow-query ring's exact top-K invariant under
// concurrent producers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/random.h"
#include "util/trace_ring.h"

namespace neurosketch {
namespace {

using metrics::Counter;
using metrics::Gauge;
using metrics::LogHistogram;
using metrics::MetricsRegistry;
using metrics::SlowQueryRing;
using metrics::SlowQueryTrace;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

TEST(MetricsRegistryTest, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("requests_total");
  ASSERT_NE(c, nullptr);
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->Value(), 5u);
  // Same name returns the same object.
  EXPECT_EQ(reg.GetCounter("requests_total"), c);

  Gauge* g = reg.GetGauge("temperature");
  ASSERT_NE(g, nullptr);
  g->Set(36.5);
  EXPECT_DOUBLE_EQ(g->Value(), 36.5);
  EXPECT_EQ(reg.NumMetrics(), 2u);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry reg;
  ASSERT_NE(reg.GetCounter("x"), nullptr);
  EXPECT_EQ(reg.GetGauge("x"), nullptr);
  EXPECT_EQ(reg.GetHistogram("x"), nullptr);
}

// The golden format test: exact text exposition for a registry holding
// one of each kind. Histogram bucket edges are irrational powers of
// 2^(1/4), so the expected strings are built through the same public
// BucketHiUs + %.10g path the writer uses — the golden part is the line
// structure, ordering, and cumulative counts.
TEST(MetricsRegistryTest, TextExpositionGolden) {
  MetricsRegistry reg;
  reg.GetCounter("demo_requests_total", "Requests served")->Inc(3);
  reg.SetGauge("demo_temperature", 36.5);
  LogHistogram* h = reg.GetHistogram("demo_latency_us", "Answer latency");
  h->Add(10.0);
  h->Add(10.0);
  h->Add(100.0);

  const size_t b10 = 13;   // floor(4 * log2(10))
  const size_t b100 = 26;  // floor(4 * log2(100))
  const double sum = 2.0 * 0.5 *
                         (LogHistogram::BucketLoUs(b10) +
                          LogHistogram::BucketHiUs(b10)) +
                     0.5 * (LogHistogram::BucketLoUs(b100) +
                            LogHistogram::BucketHiUs(b100));
  const std::string expected =
      "# HELP demo_latency_us Answer latency\n"
      "# TYPE demo_latency_us histogram\n"
      "demo_latency_us_bucket{le=\"" +
      Num(LogHistogram::BucketHiUs(b10)) +
      "\"} 2\n"
      "demo_latency_us_bucket{le=\"" +
      Num(LogHistogram::BucketHiUs(b100)) +
      "\"} 3\n"
      "demo_latency_us_bucket{le=\"+Inf\"} 3\n"
      "demo_latency_us_sum " +
      Num(sum) +
      "\n"
      "demo_latency_us_count 3\n"
      "# HELP demo_requests_total Requests served\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total 3\n"
      "# TYPE demo_temperature gauge\n"
      "demo_temperature 36.5\n";
  EXPECT_EQ(reg.TextExposition(), expected);
}

TEST(MetricsRegistryTest, LabeledHistogramMergesLeIntoLabelSet) {
  MetricsRegistry reg;
  reg.GetHistogram("stage_us{stage=\"queue\"}")->Add(4.0);
  reg.GetHistogram("stage_us{stage=\"infer\"}")->Add(4.0);
  const std::string text = reg.TextExposition();
  // One TYPE header for the family, labels merged ahead of le.
  EXPECT_EQ(text.find("# TYPE stage_us histogram"),
            text.rfind("# TYPE stage_us histogram"));
  EXPECT_NE(text.find("stage_us_bucket{stage=\"queue\",le=\""),
            std::string::npos);
  EXPECT_NE(text.find("stage_us_bucket{stage=\"infer\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("stage_us_count{stage=\"queue\"} 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllZeroesEveryMetric) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Inc(5);
  reg.SetGauge("g", 1.5);
  reg.GetHistogram("h")->Add(10.0);
  reg.ResetAll();
  EXPECT_EQ(reg.GetCounter("c")->Value(), 0u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("g")->Value(), 0.0);
  EXPECT_EQ(reg.GetHistogram("h")->TotalCount(), 0u);
}

TEST(LogHistogramTest, EmptyAndSingleSample) {
  LogHistogram h;
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(h.PercentileUs(50), 0.0);
  h.Add(50.0);
  // One sample: every percentile lands in its bucket.
  for (double p : {1.0, 50.0, 99.0, 99.9}) {
    const double v = h.PercentileUs(p);
    EXPECT_GE(v, LogHistogram::BucketLoUs(22));  // floor(4*log2(50)) = 22
    EXPECT_LE(v, LogHistogram::BucketHiUs(22));
  }
}

// Pins the branch-free exponent/mantissa bucketing to the formula it
// replaces: floor(kBucketsPerOctave * log2(us)), clamped to the last
// bucket, with everything <= 1 in bucket 0. Sweeps log-spaced values
// across the full range plus the sub-1 / overflow / non-finite edges
// (exact 2^(k/4) edge doubles are skipped — there the two forms may
// legitimately differ by the 1-ulp rounding of the edge constants).
TEST(LogHistogramTest, BucketIndexMatchesLog2Reference) {
  auto reference = [](double us) -> size_t {
    if (!(us > 1.0)) return 0;
    const double idx = LogHistogram::kBucketsPerOctave * std::log2(us);
    if (idx >= static_cast<double>(LogHistogram::kNumBuckets - 1)) {
      return LogHistogram::kNumBuckets - 1;
    }
    return static_cast<size_t>(idx);
  };
  auto bucket_of = [](double us) -> size_t {
    LogHistogram h;
    h.Add(us);
    for (size_t i = 0; i < LogHistogram::kNumBuckets; ++i) {
      if (h.BucketCount(i) == 1) return i;
    }
    return LogHistogram::kNumBuckets;  // unreachable: Add always lands
  };
  std::vector<double> probes = {0.0,   -3.0,  0.5,    1.0,   1.0000001,
                                1.5,   2.0,   50.0,   1e6,   1.67e7,
                                1.7e7, 1e9,   1e300,  std::nan(""),
                                std::numeric_limits<double>::infinity()};
  // 40 log-spaced probes per octave sit well clear of the 2^(k/4) edges.
  for (double exp = 0.0125; exp < 25.0; exp += 0.6125) {
    probes.push_back(std::exp2(exp));
  }
  for (double us : probes) {
    EXPECT_EQ(bucket_of(us), reference(us)) << "us = " << us;
  }
}

TEST(LogHistogramTest, CopyFromOverwrites) {
  LogHistogram a, b;
  a.Add(10.0);
  a.Add(1000.0);
  b.Add(5.0);
  b.CopyFrom(a);
  EXPECT_EQ(b.TotalCount(), 2u);
  EXPECT_NEAR(b.PercentileUs(99), a.PercentileUs(99), 1e-12);
}

// The documented error bound: with intra-bucket linear interpolation the
// reported quantile stays within one bucket of the exact sorted-sample
// quantile, i.e. within a factor 2^(1/4) — a <= ~18.9% relative error
// (down from the ~19% midpoint rule which also quantized all ranks in a
// bucket to one value). Property-checked on randomized log-uniform
// samples across four orders of magnitude.
TEST(LogHistogramTest, PercentilesMatchExactQuantilesWithinBucketError) {
  Rng rng(20260808);
  const double kMaxRelErr = std::exp2(0.25) - 1.0 + 1e-9;
  for (int trial = 0; trial < 20; ++trial) {
    LogHistogram h;
    std::vector<double> samples;
    const size_t n = 200 + static_cast<size_t>(rng.Uniform(0.0, 5000.0));
    samples.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Log-uniform over [2, 2e5]: clears the <=1us catch-all bucket.
      const double v = 2.0 * std::pow(10.0, rng.Uniform(0.0, 5.0));
      samples.push_back(v);
      h.Add(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
      const double rank = p / 100.0 * static_cast<double>(n);
      size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(std::ceil(rank)) - 1;
      if (idx >= n) idx = n - 1;
      const double exact = samples[idx];
      const double est = h.PercentileUs(p);
      EXPECT_LE(std::abs(est - exact) / exact, kMaxRelErr)
          << "trial " << trial << " p" << p << ": est " << est << " exact "
          << exact;
    }
  }
}

TEST(LogHistogramTest, InterpolationRecoversSubBucketResolution) {
  // 1000 identical values: every rank interpolates across the one bucket,
  // and the median lands within half a bucket of the true value — the
  // midpoint rule could do no better, but ranks now spread linearly.
  LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.Add(100.0);
  EXPECT_LT(h.PercentileUs(1), h.PercentileUs(99));  // strictly increasing
  EXPECT_NEAR(h.PercentileUs(50), 100.0, 10.0);
}

TEST(SlowQueryRingTest, KeepsExactTopKSingleThreaded) {
  SlowQueryRing ring(4);
  for (int v = 1; v <= 100; ++v) {
    SlowQueryTrace t;
    t.total_us = static_cast<double>(v);
    t.store = "s";
    ring.Offer(std::move(t));
  }
  const auto kept = ring.SlowestFirst();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_DOUBLE_EQ(kept[0].total_us, 100.0);
  EXPECT_DOUBLE_EQ(kept[1].total_us, 99.0);
  EXPECT_DOUBLE_EQ(kept[2].total_us, 98.0);
  EXPECT_DOUBLE_EQ(kept[3].total_us, 97.0);
  EXPECT_DOUBLE_EQ(ring.min_kept_us(), 97.0);
}

TEST(SlowQueryRingTest, TraceFieldsSurviveIntact) {
  SlowQueryRing ring(2);
  SlowQueryTrace t;
  t.total_us = 500.0;
  t.queue_us = 300.0;
  t.assembly_us = 50.0;
  t.inference_us = 100.0;
  t.fulfill_us = 50.0;
  t.store = "taxi/avg(col 2)";
  t.tier = "f32";
  t.batch_size = 64;
  EXPECT_TRUE(ring.Offer(t));
  const auto kept = ring.SlowestFirst();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].store, "taxi/avg(col 2)");
  EXPECT_EQ(kept[0].tier, "f32");
  EXPECT_EQ(kept[0].batch_size, 64u);
  EXPECT_DOUBLE_EQ(kept[0].queue_us + kept[0].assembly_us +
                       kept[0].inference_us + kept[0].fulfill_us,
                   kept[0].total_us);
}

TEST(SlowQueryRingTest, ZeroCapacityRejectsWithoutKeeping) {
  SlowQueryRing ring(0);
  SlowQueryTrace t;
  t.total_us = 1e9;
  EXPECT_FALSE(ring.Offer(t));
  EXPECT_EQ(ring.size(), 0u);
  // The admission threshold reads +inf, so hot paths skip trace building.
  EXPECT_GT(ring.min_kept_us(), 1e18);
}

TEST(SlowQueryRingTest, ClearRestartsAdmission) {
  SlowQueryRing ring(2);
  for (int v = 1; v <= 10; ++v) {
    SlowQueryTrace t;
    t.total_us = static_cast<double>(v);
    ring.Offer(std::move(t));
  }
  EXPECT_DOUBLE_EQ(ring.min_kept_us(), 9.0);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  SlowQueryTrace t;
  t.total_us = 1.0;  // would have been rejected before the Clear
  EXPECT_TRUE(ring.Offer(std::move(t)));
}

// The concurrency invariant the serve path depends on: with many
// producers racing distinct latencies into a capped ring, the final
// contents are EXACTLY the K slowest ever offered — the lock-free
// admission gate may only reject losers, never evict a slower entry for
// a faster one.
TEST(SlowQueryRingTest, ConcurrentProducersKeepExactTopK) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 5000;
  constexpr size_t kCapacity = 16;
  const size_t total = kThreads * kPerThread;
  SlowQueryRing ring(kCapacity);
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      // Thread t offers the distinct values {t+1, t+1+kThreads, ...}, so
      // the top-K is spread across producers.
      for (size_t i = 0; i < kPerThread; ++i) {
        SlowQueryTrace tr;
        tr.total_us = static_cast<double>(t + 1 + i * kThreads);
        tr.store = "s" + std::to_string(t);
        ring.Offer(std::move(tr));
      }
    });
  }
  for (auto& p : producers) p.join();

  const auto kept = ring.SlowestFirst();
  ASSERT_EQ(kept.size(), kCapacity);
  for (size_t i = 0; i < kCapacity; ++i) {
    EXPECT_DOUBLE_EQ(kept[i].total_us, static_cast<double>(total - i))
        << "slot " << i;
  }
}

}  // namespace
}  // namespace neurosketch
