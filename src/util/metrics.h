// Process-wide observability primitives: named counters, gauges, and
// log-bucketed histograms collected in a MetricsRegistry, with a
// Prometheus-style text exposition writer. Hot-path updates
// (Counter::Inc, Gauge::Set, LogHistogram::Add) are single relaxed-atomic
// operations — safe and cheap to call from serving dispatchers;
// registration and exposition take a registry mutex and are meant for
// startup / polling paths only.
//
// Consistency contract (shared by every reader here): values are read
// with relaxed loads and no cross-metric synchronization, so an
// exposition or snapshot taken while writers are active may mix values
// from slightly different instants — each individual metric is exact,
// cross-metric invariants (e.g. sum of parts == total) may be off by
// the amount of in-flight work. That is the standard scrape contract.
#ifndef NEUROSKETCH_UTIL_METRICS_H_
#define NEUROSKETCH_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace neurosketch {
namespace metrics {

/// \brief Monotonic counter. Inc() is one relaxed fetch_add.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// \brief Overwrite the value — for mirroring an externally maintained
  /// counter (e.g. a ServeStats snapshot) into a registry, not for hot
  /// paths.
  void Set(uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Point-in-time value. Set() is one relaxed store.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// \brief Log-bucketed histogram of positive values (canonically
/// microseconds): 4 buckets per octave over [1, ~16.7e6], i.e. bucket
/// edges at powers of 2^(1/4). Add() is a single relaxed atomic
/// increment. PercentileUs interpolates linearly inside the bucket
/// containing the requested rank, so the worst-case quantile error is
/// one bucket width — at 4 buckets per octave that is a factor of
/// 2^(1/4), i.e. <= ~18.9% of the reported value (vs ~19% midpoint
/// error without interpolation, which also could not distinguish ranks
/// within one bucket; interpolation recovers sub-bucket resolution
/// whenever a bucket holds more than one sample).
class LogHistogram {
 public:
  static constexpr size_t kBucketsPerOctave = 4;
  static constexpr size_t kNumBuckets = 96;  // 24 octaves

  /// Records `count` samples of value `us`.
  void Add(double us, uint64_t count = 1) {
    buckets_[BucketIndex(us)].fetch_add(count, std::memory_order_relaxed);
  }

  uint64_t TotalCount() const {
    uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  /// \brief p in [0, 100]. Returns 0 when empty. See the class comment
  /// for the interpolation error bound.
  double PercentileUs(double p) const {
    std::array<uint64_t, kNumBuckets> counts;
    uint64_t total = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      counts[i] = buckets_[i].load(std::memory_order_relaxed);
      total += counts[i];
    }
    if (total == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(total);
    uint64_t cum = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (counts[i] == 0) continue;
      cum += counts[i];
      if (static_cast<double>(cum) >= rank) {
        // Linear interpolation inside the bucket: rank position among
        // this bucket's samples maps onto [lo, hi).
        const double before = static_cast<double>(cum - counts[i]);
        const double frac =
            (rank - before) / static_cast<double>(counts[i]);
        const double lo = BucketLoUs(i);
        const double hi = BucketHiUs(i);
        return lo + (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac) * (hi - lo);
      }
    }
    return BucketHiUs(kNumBuckets - 1);
  }

  /// \brief Approximate sum of all recorded values, reconstructed from
  /// bucket midpoints (the hot path does not track an exact sum).
  double ApproxSumUs() const {
    double sum = 0.0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
      if (c != 0) {
        sum += static_cast<double>(c) * 0.5 * (BucketLoUs(i) + BucketHiUs(i));
      }
    }
    return sum;
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  /// \brief Overwrite this histogram with another's bucket counts
  /// (relaxed reads, so concurrent Adds on `other` may or may not land).
  void CopyFrom(const LogHistogram& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
  }

  /// \brief Accumulate another histogram's bucket counts into this one —
  /// how per-shard histograms fold into an engine-wide view (same relaxed
  /// scrape contract as CopyFrom).
  void AddFrom(const LogHistogram& other) {
    for (size_t i = 0; i < kNumBuckets; ++i) {
      const uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
      if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
    }
  }

  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// \brief Inclusive upper edge of bucket i, the exposition `le` bound.
  static double BucketHiUs(size_t i) {
    return std::exp2(static_cast<double>(i + 1) / kBucketsPerOctave);
  }
  /// \brief Lower edge of bucket i (bucket 0 also absorbs values <= 1,
  /// so its lower edge is 0 for interpolation purposes).
  static double BucketLoUs(size_t i) {
    return i == 0 ? 0.0 : std::exp2(static_cast<double>(i) / kBucketsPerOctave);
  }

 private:
  // floor(4 * log2(us)) via exponent/mantissa decomposition instead of a
  // libm log2 call: for us in [2^e, 2^(e+1)) the index is 4e + j, where
  // j counts how many of the intra-octave edges 2^(1/4), 2^(1/2),
  // 2^(3/4) the mantissa clears. Identical buckets (edge values may
  // differ from the libm result by at most the 1-ulp rounding of the
  // edge constants themselves), a few ns cheaper per Add — this runs
  // once per request on serving dispatcher threads.
  static size_t BucketIndex(double us) {
    if (!(us > 1.0)) return 0;
    uint64_t bits;
    std::memcpy(&bits, &us, sizeof(bits));
    const size_t e = static_cast<size_t>(bits >> 52) - 1023;
    if (e >= kNumBuckets / kBucketsPerOctave) return kNumBuckets - 1;
    const uint64_t mant = bits & ((uint64_t{1} << 52) - 1);
    // Mantissa fields of 2^(1/4), 2^(1/2), 2^(3/4) (see BucketHiUs).
    const size_t j = static_cast<size_t>(mant >= 0x306fe0a31b715ull) +
                     static_cast<size_t>(mant >= 0x6a09e667f3bcdull) +
                     static_cast<size_t>(mant >= 0xae89f995ad3adull);
    return e * kBucketsPerOctave + j;
  }

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// \brief A named collection of counters, gauges, and histograms.
///
/// Get*(name) registers the metric on first use and returns a stable
/// pointer thereafter (objects are never deallocated while the registry
/// lives), so callers resolve the pointer once at startup and update it
/// lock-free afterwards. Requesting an existing name as a different kind
/// returns nullptr. Names follow Prometheus conventions
/// ([a-zA-Z_][a-zA-Z0-9_]*, optionally followed by a {label="v",...}
/// suffix which the exposition writer merges with the histogram `le`
/// label).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  LogHistogram* GetHistogram(const std::string& name,
                             const std::string& help = "");

  /// \brief Convenience for one-shot exports: register + set.
  void SetGauge(const std::string& name, double value,
                const std::string& help = "");
  void SetCounter(const std::string& name, uint64_t value,
                  const std::string& help = "");

  /// \brief Prometheus text exposition (v0.0.4): # HELP / # TYPE headers
  /// and one line per sample, metrics sorted by name. Histograms emit
  /// cumulative `_bucket{le=...}` series (empty buckets elided, +Inf
  /// always present), an approximate `_sum` (bucket midpoints; see
  /// LogHistogram::ApproxSumUs) and an exact `_count`.
  std::string TextExposition() const;

  /// \brief Zero every registered metric (registrations stay).
  void ResetAll();

  size_t NumMetrics() const;

  /// \brief Shared process-wide registry for code without a better home.
  static MetricsRegistry& Global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LogHistogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted => deterministic output
};

}  // namespace metrics
}  // namespace neurosketch

#endif  // NEUROSKETCH_UTIL_METRICS_H_
