// BufferPool: a bounded, pin-counted cache of disk-resident values — the
// Sphinx-style buffer pool the paged sketch catalog faults cold sketches
// through (ROADMAP: "Resident-memory diet + 100k-sketch catalogs").
//
// Each key owns a frame that is cold (no value resident), loading (one
// thread runs the loader while others wait on the frame), or resident.
// Pin() returns an aliasing shared_ptr handle: the handle keeps the value
// alive AND holds a pin refcount on the frame, so eviction can never pull
// a value out from under an in-flight batch — a frame is only evictable
// once every handle has been dropped, which also means eviction genuinely
// frees the memory (the pool's resident-byte accounting equals physical
// residency, making the "peak never exceeds budget" property exactly
// checkable).
//
// Admission: a fault-in that would push resident bytes past the budget
// first evicts unpinned victims, coldest-first (lowest heat, least
// recently touched on ties); if everything resident is pinned it waits on
// the pool condvar for an unpin. The victim scan walks only the resident
// frames (a side vector), never the whole key map. Heat is a per-frame
// accumulator ticked by Pin (+1) and Touch (e.g. +answers served), and
// every eviction halves every frame's heat, so the ordering is an
// exponentially decayed answers/sec signal rather than an all-time total.
// The halving is O(1): heats are stored scaled by 2^heat_exp_, an
// eviction increments the shared exponent, and increments are scaled by
// the same power of two (the LRFU trick). A power-of-two scale commutes
// with rounding, so the stored heats order exactly as halved ones would
// (for heats above the subnormal range); every kRenormExp evictions one
// walk rescales all frames back to exponent 0 before the scale could
// overflow. Penalize() zeroes a frame's heat — the serve layer calls it
// when its error budget demotes a store, making that sketch the preferred
// victim.
//
// Thread-safe. The pool mutex covers all bookkeeping; the loader itself
// runs with the mutex dropped (disk I/O must not block unrelated hits)
// under a per-frame loading latch so concurrent requesters of one key
// single-load.
#ifndef NEUROSKETCH_UTIL_BUFFER_POOL_H_
#define NEUROSKETCH_UTIL_BUFFER_POOL_H_

#include <condition_variable>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/status.h"
#include "util/timer.h"

namespace neurosketch {

/// \brief Counters and residency accounting for one pool, snapshotted
/// under the pool mutex (exact, unlike the serve layer's relaxed scrape
/// contract — budget proofs need exactness).
struct BufferPoolStats {
  size_t resident_bytes = 0;
  size_t peak_resident_bytes = 0;
  size_t max_bytes = 0;
  size_t resident_entries = 0;
  size_t entries = 0;
  uint64_t faultins = 0;   // loader runs (cold -> resident transitions)
  uint64_t hits = 0;       // Pins served without touching the loader
  uint64_t evictions = 0;  // resident -> cold transitions
};

/// \brief What a loader hands back: the loaded value plus the resident
/// bytes it should be charged for.
template <typename Value>
struct BufferPoolLoaded {
  std::shared_ptr<const Value> value;
  size_t bytes = 0;
};

template <typename Key, typename Value>
class BufferPool {
 public:
  using Loaded = BufferPoolLoaded<Value>;
  using Handle = std::shared_ptr<const Value>;

  /// \brief `max_bytes` == 0 means unbounded (accounting only).
  explicit BufferPool(size_t max_bytes) : max_bytes_(max_bytes) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief Fault in (or hit) the value for `key` and pin it. `loader`
  /// runs outside the pool mutex when the frame is cold; concurrent
  /// Pins of the same key wait for the one loader instead of re-reading
  /// disk. The returned handle unpins on destruction. Fails with the
  /// loader's status, or ResourceExhausted-style InvalidArgument when a
  /// single value can never fit the budget. May block waiting for
  /// another thread's unpin when everything resident is pinned.
  template <typename Loader>
  Result<Handle> Pin(const Key& key, Loader&& loader) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Frame& f = frames_[key];
      if (f.value != nullptr) {
        ++hits_;
        return PinLocked(&f);
      }
      if (f.loading) {
        // Another thread is faulting this key in; wait for its verdict.
        cv_.wait(lock, [&] {
          auto it = frames_.find(key);
          return it == frames_.end() || !it->second.loading;
        });
        continue;  // re-find: the frame may have been admitted or failed
      }
      f.loading = true;
      lock.unlock();
      Timer load_timer;
      Result<Loaded> loaded = loader();
      const double load_us = load_timer.ElapsedSeconds() * 1e6;
      lock.lock();
      // The frame stays `loading` through admission below: admission may
      // drop the lock (cv_.wait for an unpin), and clearing the latch
      // early would let a concurrent Pin of this key start a second
      // loader and double-account the frame. Erase() also refuses
      // loading frames, so `lf` stays valid across the wait.
      Frame& lf = frames_[key];
      auto fail = [&](Status st) {
        lf.loading = false;
        cv_.notify_all();
        return st;
      };
      if (!loaded.ok()) return fail(loaded.status());
      Loaded got = std::move(loaded).value();
      if (got.value == nullptr) {
        return fail(Status::Unknown("buffer pool loader returned null"));
      }
      if (max_bytes_ != 0 && got.bytes > max_bytes_) {
        return fail(Status::InvalidArgument(
            "buffer pool entry larger than the whole budget (" +
            std::to_string(got.bytes) + " > " + std::to_string(max_bytes_) +
            " bytes)"));
      }
      // Admission: make room (evicting coldest unpinned frames, waiting
      // for unpins when necessary), then account and pin.
      EvictUntilFitLocked(got.bytes, &lock);
      lf.value = std::move(got.value);
      lf.slot = resident_.size();
      resident_.push_back(&lf);
      lf.loading = false;
      cv_.notify_all();
      lf.bytes = got.bytes;
      resident_bytes_ += lf.bytes;
      if (resident_bytes_ > peak_resident_bytes_) {
        peak_resident_bytes_ = resident_bytes_;
      }
      ++faultins_;
      faultin_latency_.Add(load_us);
      return PinLocked(&lf);
    }
  }

  /// \brief The resident value without pinning or faulting: nullptr when
  /// cold. (The value stays alive as long as the caller's shared_ptr
  /// does, but it no longer counts as pinned — eviction may drop the
  /// pool's reference.)
  Handle Peek(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    return it == frames_.end() ? nullptr : it->second.value;
  }

  /// \brief Add serving heat to a key's frame (e.g. answers delivered);
  /// no-op when the frame is cold.
  void Touch(const Key& key, double amount) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    if (it != frames_.end() && it->second.value != nullptr) {
      AddHeatLocked(&it->second, amount);
    }
  }

  /// \brief Zero a frame's heat, making it the preferred eviction victim
  /// — the serve layer's error-budget demotion signal.
  void Penalize(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    if (it != frames_.end()) it->second.heat = 0.0;
  }

  /// \brief Drop a frame entirely (cold handle and all bookkeeping).
  /// Refuses while pinned; returns whether anything was erased.
  bool Erase(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    if (it == frames_.end() || it->second.pins != 0 || it->second.loading) {
      return false;
    }
    if (it->second.value != nullptr) {
      DropResidentLocked(&it->second);
      ++evictions_;
    }
    frames_.erase(it);
    cv_.notify_all();
    return true;
  }

  BufferPoolStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    BufferPoolStats s;
    s.resident_bytes = resident_bytes_;
    s.peak_resident_bytes = peak_resident_bytes_;
    s.max_bytes = max_bytes_;
    s.entries = frames_.size();
    s.resident_entries = resident_.size();
    s.faultins = faultins_;
    s.hits = hits_;
    s.evictions = evictions_;
    return s;
  }

  /// \brief Fault-in (loader) latency distribution, microseconds. Stable
  /// address for the pool's lifetime; reads follow the LogHistogram
  /// scrape contract.
  const metrics::LogHistogram& faultin_latency() const {
    return faultin_latency_;
  }

  size_t max_bytes() const { return max_bytes_; }

 private:
  struct Frame {
    std::shared_ptr<const Value> value;  // null = cold
    size_t bytes = 0;
    size_t pins = 0;
    bool loading = false;
    double heat = 0.0;        // decayed heat, scaled by 2^heat_exp_
    uint64_t last_touch = 0;  // monotone Pin order, the heat tiebreak
    size_t slot = 0;          // index in resident_ while resident
  };

  /// Shared heat exponent at which every frame is rescaled to exponent 0:
  /// scaled heats stay below 2^kRenormExp times their true value, far
  /// from overflow.
  static constexpr int kRenormExp = 512;

  /// Handle control block: owns the value reference and the pin; the last
  /// aliasing handle's destruction unpins (and wakes evict waiters). The
  /// frame cannot go away while pinned (eviction and Erase skip pinned
  /// frames, and map nodes are stable), so the guard keeps its address.
  struct PinGuard {
    BufferPool* pool;
    Frame* frame;
    std::shared_ptr<const Value> value;
    ~PinGuard() {
      std::lock_guard<std::mutex> lock(pool->mu_);
      if (--frame->pins == 0) pool->cv_.notify_all();
    }
  };

  void AddHeatLocked(Frame* f, double amount) {
    f->heat += std::ldexp(amount, heat_exp_);
  }

  /// Makes a resident frame cold: uncharges its bytes and drops it from
  /// resident_ (swap-with-last, so the victim scan stays dense).
  void DropResidentLocked(Frame* f) {
    resident_bytes_ -= f->bytes;
    Frame* last = resident_.back();
    resident_[f->slot] = last;
    last->slot = f->slot;
    resident_.pop_back();
  }

  Handle PinLocked(Frame* f) {
    ++f->pins;
    AddHeatLocked(f, 1.0);
    f->last_touch = ++tick_;
    auto guard = std::make_shared<PinGuard>();
    guard->pool = this;
    guard->frame = f;
    guard->value = f->value;
    // Aliasing constructor: the handle exposes the value but owns the
    // guard, so destruction runs the unpin exactly once per handle.
    const Value* raw = guard->value.get();
    return Handle(std::move(guard), raw);
  }

  /// Evicts coldest unpinned frames until `incoming` more bytes fit,
  /// waiting on the condvar for unpins when everything evictable is
  /// pinned. Caller holds `lock`.
  void EvictUntilFitLocked(size_t incoming,
                           std::unique_lock<std::mutex>* lock) {
    if (max_bytes_ == 0) return;
    while (resident_bytes_ + incoming > max_bytes_) {
      // Pin ticks are unique, so (heat, last_touch) orders the resident
      // frames totally and the victim does not depend on scan order.
      Frame* victim = nullptr;
      for (Frame* f : resident_) {
        if (f->pins != 0) continue;
        if (victim == nullptr || f->heat < victim->heat ||
            (f->heat == victim->heat && f->last_touch < victim->last_touch)) {
          victim = f;
        }
      }
      if (victim == nullptr) {
        // Everything resident is pinned (or loading): wait for an unpin.
        // Callers must size the budget above their pinned working set or
        // this blocks until another thread releases a handle.
        cv_.wait(*lock);
        continue;
      }
      DropResidentLocked(victim);
      victim->value.reset();  // pins == 0, so this frees the memory
      victim->bytes = 0;
      ++evictions_;
      // Exponential decay: halve every frame's heat so heat tracks recent
      // traffic, not lifetime totals — a formerly hot store goes cold.
      // Raising the shared exponent halves them all at once; the rare
      // rescale keeps the stored values bounded.
      if (++heat_exp_ == kRenormExp) {
        for (auto& [k, f] : frames_) {
          (void)k;
          f.heat = std::ldexp(f.heat, -kRenormExp);
        }
        heat_exp_ = 0;
      }
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Key, Frame> frames_;
  std::vector<Frame*> resident_;  // frames with a value, in no order
  int heat_exp_ = 0;              // heats are stored scaled by 2^heat_exp_
  const size_t max_bytes_;
  size_t resident_bytes_ = 0;
  size_t peak_resident_bytes_ = 0;
  uint64_t tick_ = 0;
  uint64_t faultins_ = 0;
  uint64_t hits_ = 0;
  uint64_t evictions_ = 0;
  metrics::LogHistogram faultin_latency_;
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_UTIL_BUFFER_POOL_H_
