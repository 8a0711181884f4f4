// ServeEngine: concurrent request front end over a SketchStore (paper
// Sec. 4 / Alg. 5 turned into a serving system), rearchitected shard-per-
// core. Stores are partitioned across N dispatcher shards by a stable
// hash of their (dataset, query function) key; each shard owns a
// dedicated dispatcher thread, its own wait-free MPSC submission ring and
// its own per-key micro-batch queues, so dispatchers never contend with
// each other and a sketch's thread-local workspace arena is only ever
// warmed by one core.
//
// Client submission is wait-free: Submit/SubmitMany claim a ring slot
// with one unconditional fetch_add (no engine-wide mutex, no CAS retry
// loop) and block only when the target shard's ring is full — bounded-
// queue backpressure, counted per shard. The answer pipeline is
// decoupled from submission: while a shard's dispatcher runs inference
// on batch k, clients keep publishing batch k+1 into the ring; the
// dispatcher drains the ring into per-key queues (batch assembly) each
// time it comes back from a forward pass.
//
// Submit and SubmitMany share one completion type (queries, result slots,
// one promise), and each ring entry is filed as one span of its key's
// queue. A batch cuts up to max_batch queries off the front spans as
// pieces, so per-query work is the forward pass and one answer copy;
// counters are added and completions settled once per batch.
//
// Answers are published in groups: a computed answer is held on its
// shard and resolved with the rest of its group, newest first, so a
// pipelined client blocked on its oldest future wakes once per group
// rather than once per answer. A group is published before the
// dispatcher sleeps, and before any batch that is predicted to push the
// group's age past kMaxHold (see DispatchLoop).
//
// Batching semantics are unchanged from the single-queue engine: time/
// size bounded micro-batches per (dataset, query function), one
// vectorized forward pass per batch (NeuroSketch::AnswerBatchVectorized:
// flat-buffer fused kernels + thread-local workspace, zero heap
// allocations per query), exact-engine fallback and per-store error
// budgets. Answers are bit-identical to serial NeuroSketch::AnswerBatch.
//
// Observability: each answer is counted once, in its key's counter block
// (answer counters plus the submit->publish histogram). A key lives on
// exactly one shard, so Snapshot derives each shard row as the sum over
// that shard's keys, and engine totals as the sum over shards; a shard
// itself keeps only backpressure waits and the stage histograms. The
// export carries both per-store and per-shard labeled series — a hot
// shard is distinguishable from a hot store. The slow-query ring records
// the serving shard in each trace. All stage tracing remains behind
// ServeOptions::stage_tracing.
#ifndef NEUROSKETCH_SERVE_SERVE_ENGINE_H_
#define NEUROSKETCH_SERVE_SERVE_ENGINE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "serve/ready_list.h"
#include "serve/serve_stats.h"
#include "serve/sketch_store.h"
#include "util/metrics.h"
#include "util/mpsc_queue.h"
#include "util/shard_router.h"
#include "util/timer.h"
#include "util/trace_ring.h"

namespace neurosketch {
namespace serve {

struct ServeOptions {
  /// Micro-batch size bound: a batch dispatches as soon as this many
  /// queries are pending for one store entry, and takes at most this many.
  /// 1 disables batching (per-query dispatch).
  size_t max_batch = 256;
  /// Micro-batch time bound in microseconds: a batch dispatches once its
  /// oldest query has waited this long, full or not. 0 disables the
  /// wait (dispatch as soon as a dispatcher is free).
  double batch_window_us = 200.0;
  /// Dispatcher shards, each with a dedicated thread, submission ring and
  /// per-key queues. 0 = hardware concurrency. Store keys are pinned to
  /// shards by a stable hash, so one store's traffic is always served by
  /// the same core.
  size_t num_shards = 0;
  /// Per-shard submission ring capacity in entries (one Submit or one
  /// SubmitMany burst each), rounded up to a power of two. A full ring
  /// blocks the submitting client until the shard catches up.
  size_t submit_queue_capacity = 1024;
  /// Threads for exact-engine fallback batches (0 = hardware concurrency).
  size_t exact_batch_threads = 0;
  /// Error budget: once a store entry has attempted at least
  /// `budget_min_samples` sketch answers, it is demoted — all later
  /// traffic goes to the exact engine — when its NaN (unanswerable) count
  /// exceeds `max_sketch_failure_rate` times its count of genuinely
  /// sketch-answered queries. Repaired queries do not count as sketch
  /// answers, so a mostly-broken sketch cannot dilute its own failure
  /// rate.
  double max_sketch_failure_rate = 0.1;
  size_t budget_min_samples = 64;
  /// Per-stage pipeline tracing + slow-query capture. When off, the
  /// engine skips the stage clock reads and histogram increments — the
  /// residual cost is one branch per micro-batch; the aggregate counters
  /// and submit->publish latency histogram are always maintained.
  bool stage_tracing = true;
  /// Capacity of the slowest-K query trace ring (0 disables capture;
  /// only consulted when stage_tracing is on).
  size_t slow_query_capacity = 32;
};

/// \brief One delivered answer.
struct ServeResult {
  double value = 0.0;
  bool used_sketch = false;
};

/// \brief Concurrent micro-batching query server, shard-per-core.
class ServeEngine {
 public:
  explicit ServeEngine(const SketchStore* store, ServeOptions options = {});

  /// \brief Answers every pending query, then stops the dispatchers.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// \brief Enqueue one query; the future resolves when its micro-batch
  /// has been answered. Thread-safe; wait-free except when the target
  /// shard's submission ring is full (backpressure).
  std::future<ServeResult> Submit(const std::string& dataset,
                                  const QueryFunctionSpec& spec,
                                  QueryInstance q);

  /// \brief Enqueue a burst of queries sharing one future; the results
  /// come back in submission order. Semantically identical to calling
  /// Submit per query, but the burst occupies ONE ring slot and pays one
  /// promise — the client half of micro-batching.
  std::future<std::vector<ServeResult>> SubmitMany(
      const std::string& dataset, const QueryFunctionSpec& spec,
      std::vector<QueryInstance> queries);

  /// \brief Blocking convenience: Submit + wait.
  ServeResult Answer(const std::string& dataset,
                     const QueryFunctionSpec& spec, QueryInstance q);

  /// \brief Current counters; cheap enough to poll. Shard rows and
  /// engine-wide values are sums over the per-key blocks. Consistency
  /// contract documented on ServeStats (relaxed reads, ~one batch stale).
  ServeStats Snapshot() const;

  /// \brief Restart the stats window as one operation: zeroes every
  /// counter and histogram (per-key, per-stage, and backpressure),
  /// empties the slow-query ring, and resets the elapsed-time clock,
  /// holding every shard lock so no new batch lands between the counter
  /// clear and the clock restart. Error-budget state (per-store failure
  /// accounting and demotions) is control state, not stats, and is
  /// preserved. See ServeStats for what in-flight answers may do.
  void ResetStats();

  /// \brief The K slowest queries observed since start (or ResetStats),
  /// slowest first, with their stage breakdowns and serving shard. Empty
  /// when tracing or the ring is disabled.
  std::vector<metrics::SlowQueryTrace> SlowQueries() const;

  /// \brief Mirror the current counters and histograms into `registry`
  /// under `prefix` (counters, stage + latency histograms, labeled
  /// per-store series, and labeled per-shard series), for text/JSON
  /// exposition alongside other subsystems.
  void ExportMetrics(metrics::MetricsRegistry* registry,
                     const std::string& prefix = "nsketch_serve_") const;

  /// \brief Demote a store key as if its error budget tripped: all later
  /// traffic for (dataset, spec) goes to the exact engine (still with
  /// exact delta composition), and the key's paged-catalog heat is
  /// zeroed (NotePenalized). The refresh controller calls this when a
  /// store's drift outruns refresh — repeated refresh failures must not
  /// leave a known-stale sketch serving. Idempotent; counted under
  /// budget_trips on the first call.
  void DemoteStore(const std::string& dataset, const QueryFunctionSpec& spec);

  /// \brief The shard a key's traffic is pinned to: a pure function of
  /// the key and the shard count, stable across Register/Unregister of
  /// any store (including this one).
  size_t ShardOf(const std::string& dataset,
                 const QueryFunctionSpec& spec) const;

  size_t num_shards() const { return shards_.size(); }
  const ServeOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Longest a computed answer may be held for group publication,
  /// counting the predicted duration of the batch about to run.
  static constexpr std::chrono::microseconds kMaxHold{50};

  /// One submission's queries, result slots and promise: a single Submit
  /// (one inline query and result, no vectors) or a SubmitMany burst. Its
  /// key's spans all go to one dispatcher, which owns it from filing until
  /// Publish resolves and deletes it, so `remaining` is a plain count.
  struct Completion {
    using One = std::promise<ServeResult>;
    using Many = std::promise<std::vector<ServeResult>>;

    Clock::time_point enqueued;
    size_t remaining = 0;  // queries not yet settled
    QueryInstance one;     // Submit's query
    ServeResult one_result;
    std::vector<QueryInstance> many;   // SubmitMany's queries
    std::vector<ServeResult> results;  // SubmitMany's result slots
    std::variant<One, Many> promise;   // exactly one, of its kind

    explicit Completion(QueryInstance q)
        : enqueued(Clock::now()), remaining(1), one(std::move(q)) {}
    explicit Completion(std::vector<QueryInstance> qs)
        : enqueued(Clock::now()), remaining(qs.size()), many(std::move(qs)),
          results(remaining), promise(std::in_place_type<Many>) {}

    bool single() const { return promise.index() == 0; }
    size_t size() const { return single() ? 1 : many.size(); }
    QueryInstance* queries() { return single() ? &one : many.data(); }
    ServeResult* slots() { return single() ? &one_result : results.data(); }
    /// Hands the results to the client; the last thing done with `this`.
    void Resolve() {
      if (single()) {
        std::get<One>(promise).set_value(one_result);
      } else {
        std::get<Many>(promise).set_value(std::move(results));
      }
    }
  };

  /// The queries [next, end) of a completion not yet taken by a batch, in
  /// a key's pending queue. `enqueued` is the completion's stamp, kept
  /// here so the dispatch rule reads it without chasing the pointer.
  struct Span {
    Completion* completion;
    size_t next, end;
    Clock::time_point enqueued;
  };

  /// The queries [begin, begin + count) of a completion, cut from its span
  /// by ReadyList::Take into the running batch.
  struct Piece {
    Completion* completion;
    size_t begin, count;
  };

  /// One ring entry: a Submit or a whole SubmitMany burst, with enough
  /// routing context (key + canonical spec) for the dispatcher to file it
  /// into the right per-key queue.
  struct Submission {
    ServeKey key;
    QueryFunctionSpec spec;
    Completion* completion = nullptr;
  };

  /// One key's answer counters (relaxed atomics indexed by Counter) and
  /// its submit->publish histogram. Added to by the key's dispatcher
  /// (once per batch and counter) and by DemoteStore, read lock-free by
  /// Snapshot.
  struct ServeCounters {
    std::array<std::atomic<uint64_t>, kNumCounters> counts{};
    LatencyHistogram latency;

    void Add(Counter c, uint64_t n = 1) {
      counts[static_cast<size_t>(c)].fetch_add(n, std::memory_order_relaxed);
    }
    ServeCounts Read() const;
    void Reset();
  };

  /// Per (dataset, query function) pending queue, error-budget health and
  /// counter block. Owned by exactly one shard; mutated only by that
  /// shard's dispatcher under the shard lock (Snapshot takes the same lock
  /// to read). Map nodes are never erased, so a KeyState's address is
  /// stable for the engine's lifetime.
  struct KeyState {
    QueryFunctionSpec spec;  // canonical spec, set by the first Submit
    std::string label;       // StoreLabel, set with spec
    std::deque<Span> pending;
    size_t queued = 0;  // queries in `pending`
    uint64_t sketch_answers = 0;  // genuinely sketch-answered (non-NaN)
    uint64_t sketch_nans = 0;     // sketch NaNs (repaired or failed)
    bool demoted = false;  // error budget exceeded; serve exact only
    ServeCounters counters;
    /// Collection -> answers computed, of this key's previous batch: the
    /// prediction for its next one. No batch yet counts as too long.
    Clock::duration last_batch = kMaxHold;
    /// The key's store slot as of its last resolve, kept while the store
    /// epoch stands still. Dispatcher-owned: only ExecuteBatch reads or
    /// writes it, without the shard lock.
    ResolvedSlot slot;
  };

  /// A completion whose last query was just answered, waiting for its
  /// group's publication.
  struct Held {
    Completion* completion;
    PlanPrecision tier;  // the tier of its last answer's batch
    KeyState* st;
    uint32_t batch;  // index into Shard::held_batches (tracing only)
  };

  /// Stage boundaries of one executed batch, kept until its answers are
  /// published for the fulfill stage and slow-query traces (tracing
  /// only).
  struct HeldBatch {
    Clock::time_point collected, infer_start, answered;
    size_t size = 0;
  };

  /// Stages of the serve pipeline, indexing Shard::stages.
  enum Stage : size_t { kQueue, kAssembly, kInference, kFulfill, kNumStages };

  /// One dispatcher shard: submission ring, dedicated thread, per-key
  /// queues, backpressure count and stage histograms. Answer counters live
  /// in the keys. Cacheline-aligned so neighboring shards' hot atomics
  /// never share a line.
  struct alignas(64) Shard {
    MpscRing<Submission> ring;
    std::thread dispatcher;

    /// Guards keys + ready (dispatcher vs Snapshot/ResetStats —
    /// effectively uncontended at serving time) and backs the cv.
    std::mutex mu;
    std::condition_variable cv;
    /// Sleep/wake handshake: set (seq_cst) by the dispatcher just before
    /// it decides to wait; producers re-check it after publishing (with a
    /// seq_cst fence between), so a submission can never be published
    /// without either the dispatcher seeing it or the producer seeing
    /// `sleeping` and ringing the cv.
    std::atomic<bool> sleeping{false};
    std::map<ServeKey, KeyState> keys;
    /// The keys with pending queries: what DispatchLoop picks from.
    ReadyList<KeyState> ready;

    // Metrics with no key: backpressure is counted on the client thread
    // before any KeyState exists; stage histograms are only written when
    // options_.stage_tracing.
    std::atomic<uint64_t> backpressure_waits{0};
    std::array<LatencyHistogram, kNumStages> stages;

    // Dispatcher-owned (never touched by another thread): the held
    // answer group, its batches' stage stamps, and per-batch buffers
    // whose capacity is reused from batch to batch: the pieces taken, their
    // queries, answers and counter tally (Fulfill writes, Settle reads).
    std::vector<Held> held;
    Clock::time_point held_since;  // when the group's first answer was held
    std::vector<HeldBatch> held_batches;
    std::vector<Piece> batch;
    std::vector<QueryInstance> batch_queries;
    std::vector<ServeResult> batch_results;
    ServeCounts tally;

    const size_t index;  // position in shards_, for slow-query traces

    Shard(size_t ring_capacity, size_t shard_index)
        : ring(ring_capacity), index(shard_index) {}
  };

  /// Engine-wide histograms merged while collecting a ServeStats.
  struct MergedHistograms {
    LatencyHistogram latency;
    std::array<LatencyHistogram, kNumStages> stages;
  };
  /// Snapshot, also returning the merged histograms ExportMetrics copies.
  ServeStats Collect(MergedHistograms* merged) const;

  void DispatchLoop(Shard* shard);
  /// Files every published ring entry as one span in its key's queue.
  /// Caller holds shard->mu.
  void DrainRingLocked(Shard* shard);
  /// Routes a submission to its shard: one ring Push (wait-free claim)
  /// plus the sleep/wake handshake.
  void Route(Submission s);
  /// Answers `shard->batch` for key `st`. `collected` is the instant the
  /// dispatcher picked the batch off the queue — the queue-wait / batch-
  /// assembly stage boundary. Returns the instant every answer was
  /// computed and held.
  Clock::time_point ExecuteBatch(Shard* shard, KeyState* st,
                                 const ServeKey& key, bool allow_sketch,
                                 Clock::time_point collected);
  /// The key's slot went stale (a store write since it was read): drops
  /// `dsnap`, resolves the slot again and retakes the snapshot until no
  /// write lands between a resolve and the epoch check after it. Out of
  /// line to keep the warm resident path short.
  [[gnu::noinline]] void Reresolve(KeyState* st, const ServeKey& key,
                                   DeltaBuffer::Snapshot* dsnap) const;
  /// Writes the batch's i-th answer into shard scratch and tallies its
  /// counters.
  void Fulfill(Shard* shard, size_t i, double value, bool used_sketch);
  /// Once per batch, after its last Fulfill: adds each tallied counter to
  /// `st` once, copies the answers into their completions' slots, and
  /// holds every completion whose last query was answered. `tier` is the
  /// precision the batch's sketch answers were served from.
  void Settle(Shard* shard, KeyState* st, PlanPrecision tier);
  /// Resolves every held completion, newest first, records their
  /// submit->publish latencies (one clock read for the whole group) and
  /// deletes them.
  void Publish(Shard* shard);
  /// Locates (creating on demand) the key's map node; caller must hold
  /// the shard's lock. Only the owning dispatcher calls this.
  std::pair<const ServeKey, KeyState>& KeyStateLocked(
      Shard* shard, const ServeKey& key, const QueryFunctionSpec& spec);

  size_t ShardIndexOf(const ServeKey& key) const {
    // One shard needs no hash: FNV over the key's strings is a visible
    // share of a single Submit.
    return router_.num_shards() == 1 ? 0 : router_.ShardOf(key.Hash());
  }

  const SketchStore* store_;
  const ServeOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};

  metrics::SlowQueryRing slow_queries_;
  Timer uptime_;
};

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_SERVE_ENGINE_H_
