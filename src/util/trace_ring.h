// Slow-query trace ring: a fixed-capacity concurrent top-K store that
// keeps the K slowest queries seen so far, each with its per-stage
// latency breakdown. The common case — a query faster than the current
// K-th slowest — is rejected by one relaxed atomic load (lock-free, no
// stores); only a genuinely slow query (by construction a vanishing
// fraction once the ring is warm) takes the internal mutex to displace
// the current minimum. The top-K invariant is exact: every Offer above
// the kept minimum re-checks under the lock, so concurrent producers can
// never evict a slower entry with a faster one.
#ifndef NEUROSKETCH_UTIL_TRACE_RING_H_
#define NEUROSKETCH_UTIL_TRACE_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace neurosketch {
namespace metrics {

/// \brief One captured slow query: total submit->answer latency plus the
/// per-stage split (fulfill is the residual total - queue - assembly -
/// inference, so the four stages always sum to the total).
struct SlowQueryTrace {
  double total_us = 0.0;
  double queue_us = 0.0;      ///< enqueue -> picked into a micro-batch
  double assembly_us = 0.0;   ///< batch collection -> inference start
  double inference_us = 0.0;  ///< forward pass (or exact-engine batch)
  double fulfill_us = 0.0;    ///< residual: hold + group publication
  std::string store;          ///< serve key, e.g. "taxi/avg(col 2)"
  std::string tier;           ///< precision tier or "exact" / "failed"
  size_t batch_size = 0;      ///< micro-batch this query rode in
  size_t shard = 0;           ///< dispatcher shard that served it — lets
                              ///< tail attribution separate a hot shard
                              ///< from a hot store
};

/// \brief Concurrent keep-the-K-slowest buffer. See file comment for the
/// locking discipline.
class SlowQueryRing {
 public:
  explicit SlowQueryRing(size_t capacity) : capacity_(capacity) {
    entries_.reserve(capacity_);
    min_kept_us_.store(EmptyThreshold(), std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }

  /// \brief The current admission threshold: a trace with total_us at or
  /// below this value cannot enter the ring. Exposed so callers can skip
  /// building a trace (which may allocate) for queries that would be
  /// rejected anyway; -1 while the ring is not yet full, +inf when
  /// capture is disabled (capacity 0).
  double min_kept_us() const {
    return min_kept_us_.load(std::memory_order_relaxed);
  }

  /// \brief Keep `t` iff it ranks among the K slowest so far. Returns
  /// true when the trace was kept. Never blocks on the fast (rejected)
  /// path.
  bool Offer(SlowQueryTrace t) {
    if (capacity_ == 0) return false;
    // Fast gate: strictly below the slowest-K threshold -> drop without
    // touching the lock. min_kept_us_ only ever rises, so a stale read
    // can only admit (never wrongly reject) a candidate; the exact
    // comparison re-runs under the lock.
    if (t.total_us <= min_kept_us_.load(std::memory_order_relaxed)) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.size() < capacity_) {
      entries_.push_back(std::move(t));
      std::push_heap(entries_.begin(), entries_.end(), SlowerThan);
      if (entries_.size() == capacity_) {
        min_kept_us_.store(entries_.front().total_us,
                           std::memory_order_relaxed);
      }
      return true;
    }
    if (t.total_us <= entries_.front().total_us) return false;  // lost race
    std::pop_heap(entries_.begin(), entries_.end(), SlowerThan);
    entries_.back() = std::move(t);
    std::push_heap(entries_.begin(), entries_.end(), SlowerThan);
    min_kept_us_.store(entries_.front().total_us, std::memory_order_relaxed);
    return true;
  }

  /// \brief The kept traces, slowest first.
  std::vector<SlowQueryTrace> SlowestFirst() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SlowQueryTrace> out = entries_;
    std::sort(out.begin(), out.end(), [](const SlowQueryTrace& a,
                                         const SlowQueryTrace& b) {
      return a.total_us > b.total_us;
    });
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    min_kept_us_.store(EmptyThreshold(), std::memory_order_relaxed);
  }

 private:
  double EmptyThreshold() const {
    return capacity_ == 0 ? std::numeric_limits<double>::infinity() : -1.0;
  }

  // Min-heap on total_us: front() is the fastest kept entry, i.e. the
  // eviction candidate.
  static bool SlowerThan(const SlowQueryTrace& a, const SlowQueryTrace& b) {
    return a.total_us > b.total_us;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<SlowQueryTrace> entries_;  // heap, guarded by mu_
  // -1 until the ring fills, so every early Offer passes the gate.
  std::atomic<double> min_kept_us_{-1.0};
};

}  // namespace metrics
}  // namespace neurosketch

#endif  // NEUROSKETCH_UTIL_TRACE_RING_H_
