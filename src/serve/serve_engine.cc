#include "serve/serve_engine.h"

#include <algorithm>
#include <cmath>

#include "query/predicate.h"

namespace neurosketch {
namespace serve {

namespace {
std::chrono::microseconds WindowDuration(double us) {
  if (us <= 0.0) return std::chrono::microseconds(0);
  return std::chrono::microseconds(static_cast<int64_t>(us));
}

ServeOptions Sanitize(ServeOptions o) {
  if (o.max_batch == 0) o.max_batch = 1;  // 0 would livelock the dispatcher
  if (o.num_shards == 0) {
    o.num_shards = std::thread::hardware_concurrency();
    if (o.num_shards == 0) o.num_shards = 1;
  }
  if (o.submit_queue_capacity < 2) o.submit_queue_capacity = 2;
  return o;
}

double MicrosBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// ServeStats' stage breakdowns in Shard::stages order, with their
/// exported `stage` label.
struct StageInfo {
  LatencyBreakdown ServeStats::*field;
  const char* name;
};
constexpr StageInfo kStageTable[] = {
    {&ServeStats::stage_queue, "queue"},
    {&ServeStats::stage_assembly, "assembly"},
    {&ServeStats::stage_inference, "inference"},
    {&ServeStats::stage_fulfill, "fulfill"},
};

/// Exact match statistics of one query over a delta row range — the
/// ingredients of the decomposable-aggregate composition.
struct DeltaMatch {
  size_t matched = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Calls `fn(measure, sel, k)` for the delta rows in [from, snap.end())
/// that match q, in append order: `measure[sel[i]]` is the measure of the
/// i-th match of the call. An axis-range query is compiled once and runs
/// the snapshot's branch-free, zone-map-skipping scan; any other
/// predicate gathers each row for the per-row Matches test and reports
/// each match alone. `fn` returns false to stop.
template <typename Fn>
void ForEachDeltaMatch(const DeltaBuffer::Snapshot& snap, size_t from,
                       const QueryFunctionSpec& spec, const QueryInstance& q,
                       Fn&& fn) {
  const size_t dim = snap.num_columns();
  const size_t mc = spec.measure_col;
  CompiledAxisRange range;
  if (range.Compile(*spec.predicate, q, dim)) {
    snap.ScanMatches(from, range, mc,
                     [&](size_t, const double* measure, const uint32_t* sel,
                         size_t k) { return fn(measure, sel, k); });
    return;
  }
  static constexpr uint32_t kFirst = 0;
  thread_local std::vector<double> row;
  row.resize(dim);
  snap.ForEachRun(from, snap.end(), [&](size_t, size_t, const double* run,
                                        size_t len) {
    const double* measure = run + mc * snap.chunk_rows();
    for (size_t j = 0; j < len; ++j) {
      snap.Gather(run + j, row.data());
      if (spec.predicate->Matches(q, row.data(), dim) &&
          !fn(measure + j, &kFirst, size_t{1})) {
        return false;
      }
    }
    return true;
  });
}

/// How ExecuteBatch produced a sketch-path answer.
enum AnswerMode : uint8_t {
  kSketchAnswer,     ///< the sketch's own answer
  kDeltaCorrected,   ///< sketch + scalar delta correction (a sketch answer)
  kRecomputed,       ///< recomputed exactly over base + delta (fallback)
  kRepaired,         ///< NaN sketch answer repaired exactly (fallback)
};

/// True when appended rows fold into the base answer by a scalar
/// correction; AVG/STD/MEDIAN need the base row population and recompute
/// exactly instead.
bool Decomposable(Aggregate agg) {
  switch (agg) {
    case Aggregate::kCount:
    case Aggregate::kSum:
    case Aggregate::kMin:
    case Aggregate::kMax:
      return true;
    default:
      return false;
  }
}

/// Exact match statistics of q over the delta rows [from, snap.end()).
/// A non-decomposable aggregate only needs to know whether any row
/// matches (it then recomputes over base + delta), so its scan stops at
/// the first match and reports `matched` as 1.
DeltaMatch ScanDelta(const DeltaBuffer::Snapshot& snap, size_t from,
                     const QueryFunctionSpec& spec, const QueryInstance& q) {
  DeltaMatch m;
  const bool first_only = !Decomposable(spec.agg);
  ForEachDeltaMatch(snap, from, spec, q,
                    [&](const double* measure, const uint32_t* sel, size_t k) {
                      if (first_only) {
                        m.matched = 1;
                        return false;
                      }
                      for (size_t i = 0; i < k; ++i) {
                        const double v = measure[sel[i]];
                        if (m.matched + i == 0) {
                          m.min = m.max = v;
                        } else {
                          if (v < m.min) m.min = v;
                          if (v > m.max) m.max = v;
                        }
                        m.sum += v;
                      }
                      m.matched += k;
                      return true;
                    });
  return m;
}

/// The streaming exact path for the queries idx[0..] of a batch: one
/// accumulation per query, fed the pinned base table first, then every
/// delta row the base does not already hold, in append order —
/// bit-identical to a from-scratch scan of the appended table for every
/// aggregate (including the SUM/AVG row-order sum, Welford STD and
/// MEDIAN's order-sensitive buffer). Both parts are shared walks
/// (BatchScan): the base through ExactEngine::AccumulateBatchOver, the
/// delta run by run, skipping for each query the chunks its zone map
/// rules out. The delta walk starts at the pinned version's fold
/// watermark: rows below it were compacted into the base and counting
/// them from the delta too would double them.
/// The caller took the snapshot BEFORE pinning, so snap.begin() <=
/// base.folded always holds and the pair covers the logical history
/// exactly once. Writes answer j to out[idx[j]].
void ExactWithDelta(const ExactEngine::PinnedBase& base,
                    const QueryFunctionSpec& spec,
                    const std::vector<QueryInstance>& queries,
                    const std::vector<uint32_t>& idx,
                    const DeltaBuffer::Snapshot& snap, double* out) {
  if (idx.empty()) return;
  // The pointer list is dispatcher-thread scratch; the accumulators are
  // not, so MEDIAN value buffers do not outlive the batch.
  thread_local std::vector<const QueryInstance*> qs;
  qs.clear();
  for (uint32_t i : idx) qs.push_back(&queries[i]);
  std::vector<AggregateAccumulator> accs(idx.size(),
                                         AggregateAccumulator(spec.agg));
  ExactEngine::AccumulateBatchOver(*base.table, spec, qs.data(), qs.size(),
                                   accs.data());
  const size_t from = snap.begin() < base.folded
                          ? static_cast<size_t>(base.folded)
                          : snap.begin();
  static_assert(DeltaBuffer::Snapshot::kRun <= BatchScan::kBlock,
                "a delta run must fit one BatchScan block");
  if (from < snap.end()) {
    BatchScan& scan = BatchScan::ThreadLocal();
    for (size_t first = 0; first < qs.size(); first += BatchScan::kMaxQueries) {
      const size_t m = std::min(BatchScan::kMaxQueries, qs.size() - first);
      scan.Prepare(spec, qs.data() + first, m, snap.num_columns());
      snap.ForEachRun(from, snap.end(), [&](size_t chunk, size_t,
                                            const double* run, size_t len) {
        scan.Feed(snap.Columns(run), len,
                  run + spec.measure_col * snap.chunk_rows(),
                  accs.data() + first,
                  [&](size_t i) {
                    const CompiledAxisRange* range = scan.compiled(i);
                    return range != nullptr && snap.Disjoint(chunk, *range);
                  });
        return true;
      });
    }
  }
  for (size_t j = 0; j < idx.size(); ++j) out[idx[j]] = accs[j].Finalize();
}
}  // namespace

ServeEngine::ServeEngine(const SketchStore* store, ServeOptions options)
    : store_(store),
      options_(Sanitize(std::move(options))),
      router_(options_.num_shards),
      slow_queries_(options_.stage_tracing ? options_.slow_query_capacity
                                           : 0) {
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(options_.submit_queue_capacity, i));
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->dispatcher = std::thread([this, s] { DispatchLoop(s); });
  }
}

ServeEngine::~ServeEngine() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& shard : shards_) {
    // The empty critical section fences against the sleep transition: a
    // dispatcher that decided to wait either already waits (the notify
    // lands) or still holds the lock and will re-check stop_ first.
    { std::lock_guard<std::mutex> lock(shard->mu); }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) shard->dispatcher.join();
}

size_t ServeEngine::ShardOf(const std::string& dataset,
                            const QueryFunctionSpec& spec) const {
  return ShardIndexOf(ServeKey::From(dataset, spec));
}

std::pair<const ServeKey, ServeEngine::KeyState>& ServeEngine::KeyStateLocked(
    Shard* shard, const ServeKey& key, const QueryFunctionSpec& spec) {
  auto& node = *shard->keys.try_emplace(key).first;
  KeyState& st = node.second;
  if (st.spec.predicate == nullptr) {
    st.spec = spec;
    st.label = StoreLabel(key.dataset, spec);
  }
  return node;
}

void ServeEngine::Route(Submission s) {
  Shard& shard = *shards_[ShardIndexOf(s.key)];
  if (!shard.ring.Push(std::move(s))) {
    shard.backpressure_waits.fetch_add(1, std::memory_order_relaxed);
  }
  // Publish -> fence -> sleeping check pairs with the dispatcher's
  // sleeping store -> fence -> ring check (a Dekker handshake): one side
  // always observes the other, so a published submission can never strand
  // while the dispatcher sleeps. In the hot case (dispatcher busy) this
  // is one relaxed load and no lock.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.sleeping.load(std::memory_order_relaxed)) {
    // Locking (empty section) serializes with the sleep transition so the
    // notify cannot fire in the window between the dispatcher's re-check
    // and its cv.wait.
    { std::lock_guard<std::mutex> lock(shard.mu); }
    shard.cv.notify_one();
  }
}

std::future<ServeResult> ServeEngine::Submit(const std::string& dataset,
                                             const QueryFunctionSpec& spec,
                                             QueryInstance q) {
  auto* c = new Completion(std::move(q));
  std::future<ServeResult> fut =
      std::get<Completion::One>(c->promise).get_future();
  Route({ServeKey::From(dataset, spec), spec, c});
  return fut;
}

std::future<std::vector<ServeResult>> ServeEngine::SubmitMany(
    const std::string& dataset, const QueryFunctionSpec& spec,
    std::vector<QueryInstance> queries) {
  if (queries.empty()) {
    std::promise<std::vector<ServeResult>> none;
    none.set_value({});
    return none.get_future();
  }
  auto* c = new Completion(std::move(queries));
  std::future<std::vector<ServeResult>> fut =
      std::get<Completion::Many>(c->promise).get_future();
  Route({ServeKey::From(dataset, spec), spec, c});
  return fut;
}

ServeResult ServeEngine::Answer(const std::string& dataset,
                                const QueryFunctionSpec& spec,
                                QueryInstance q) {
  return Submit(dataset, spec, std::move(q)).get();
}

void ServeEngine::DrainRingLocked(Shard* shard) {
  Submission s;
  while (shard->ring.TryPop(&s)) {
    auto& [key, st] = KeyStateLocked(shard, s.key, s.spec);
    if (st.pending.empty()) shard->ready.Add(&key, &st);
    Completion* c = s.completion;
    st.pending.push_back({c, 0, c->remaining, c->enqueued});
    st.queued += c->remaining;
  }
}

void ServeEngine::DispatchLoop(Shard* shard) {
  const auto window = WindowDuration(options_.batch_window_us);
  std::unique_lock<std::mutex> lock(shard->mu);
  for (;;) {
    // Batch assembly: everything clients published while the last
    // forward pass ran is filed into per-key queues now — the ring IS the
    // pipeline stage that decouples submission from inference.
    DrainRingLocked(shard);
    // Pick among the keys with pending queries (see ReadyList::Next for
    // the rule).
    const auto now = Clock::now();
    const bool stopping = stop_.load(std::memory_order_relaxed);
    const auto pick =
        shard->ready.Next(now, window, options_.max_batch, stopping);
    if (pick.chosen == shard->ready.size()) {
      // Nothing is dispatchable, so nothing is worth holding answers for:
      // publish before sleeping (or stopping — the destructor relies on
      // this to resolve every held answer).
      if (!shard->held.empty()) {
        lock.unlock();
        Publish(shard);
        lock.lock();
      }
      if (stopping && shard->ready.empty() && shard->ring.Empty()) {
        return;
      }
      // Sleep/wake handshake: declare intent to sleep, fence, then
      // re-check the ring — the Dekker counterpart of Route's
      // publish/fence/check sequence.
      shard->sleeping.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!shard->ring.Empty() || stop_.load(std::memory_order_relaxed)) {
        shard->sleeping.store(false, std::memory_order_relaxed);
        continue;
      }
      if (pick.have_deadline) {
        shard->cv.wait_until(lock, pick.earliest);
      } else {
        shard->cv.wait(lock);
      }
      shard->sleeping.store(false, std::memory_order_relaxed);
      continue;
    }

    // Copied out first: Take may unlist the key.
    KeyState* chosen = shard->ready[pick.chosen].state;
    const ServeKey* chosen_key = shard->ready[pick.chosen].key;
    shard->ready.Take(pick.chosen, options_.max_batch, &shard->batch);
    const bool allow_sketch = !chosen->demoted;
    // Hold the group through this batch only if it is predicted (from the
    // key's previous batch) to finish within kMaxHold of the group's
    // first held answer; otherwise publish now, so a cheap answer never
    // waits behind slow work.
    const bool publish_first =
        !shard->held.empty() &&
        now - shard->held_since + chosen->last_batch >= kMaxHold;

    lock.unlock();
    if (publish_first) Publish(shard);
    const bool new_group = shard->held.empty();
    // The queue-wait / batch-assembly boundary: everything before this
    // instant is time spent waiting in the per-key queue.
    const Clock::time_point collected = Clock::now();
    const Clock::time_point answered =
        ExecuteBatch(shard, chosen, *chosen_key, allow_sketch, collected);
    shard->batch.clear();
    if (new_group) shard->held_since = answered;
    lock.lock();
    chosen->last_batch = answered - collected;
  }
}

void ServeEngine::Fulfill(Shard* shard, size_t i, double value,
                          bool used_sketch) {
  shard->batch_results[i] = ServeResult{value, used_sketch};
  ServeCounts& tally = shard->tally;
  if (used_sketch) {
    ++tally.sketch_answers;
  } else if (std::isnan(value)) {
    ++tally.failed_answers;
  } else {
    ++tally.fallback_answers;
  }
}

void ServeEngine::Settle(Shard* shard, KeyState* st, PlanPrecision tier) {
  ServeCounts& tally = shard->tally;
  tally.batches = 1;
  tally.queries = shard->batch_results.size();
  // The f32 counter is a subset of sketch_answers, added with them.
  if (tier == PlanPrecision::kF32) {
    tally.f32_sketch_answers = tally.sketch_answers;
  }
  // Every counter lands before any answer of the batch is held.
  for (size_t c = 0; c < kNumCounters; ++c) {
    const uint64_t n = tally.*kCounterTable[c].field;
    if (n != 0) st->counters.Add(static_cast<Counter>(c), n);
  }
  tally = ServeCounts{};
  const ServeResult* result = shard->batch_results.data();
  for (const Piece& p : shard->batch) {
    Completion* c = p.completion;
    std::copy(result, result + p.count, c->slots() + p.begin);
    result += p.count;
    c->remaining -= p.count;
    if (c->remaining == 0) {
      // ExecuteBatch records the running batch's stamps after Settle, at
      // exactly this index.
      shard->held.push_back(
          {c, tier, st, static_cast<uint32_t>(shard->held_batches.size())});
    }
  }
}

void ServeEngine::Publish(Shard* shard) {
  const Clock::time_point now = Clock::now();
  const bool tracing = options_.stage_tracing;
  if (tracing) {
    for (const HeldBatch& b : shard->held_batches) {
      shard->stages[kFulfill].Add(MicrosBetween(b.answered, now));
    }
  }
  // Newest first: a FIFO client blocked on its oldest future wakes once,
  // when everything behind that future is already resolved. Each
  // answer's stats land before its own future resolves.
  for (auto it = shard->held.rbegin(); it != shard->held.rend(); ++it) {
    const Held& h = *it;
    Completion* c = h.completion;
    const double us = MicrosBetween(c->enqueued, now);
    h.st->counters.latency.Add(us, c->size());
    // Everything past the lock-free threshold gate is lazy (trace
    // strings, the stage split), so the common case costs one relaxed
    // load and one compare.
    if (tracing && us > slow_queries_.min_kept_us()) {
      const HeldBatch& b = shard->held_batches[h.batch];
      metrics::SlowQueryTrace t;
      t.total_us = us;
      t.queue_us = MicrosBetween(c->enqueued, b.collected);
      t.assembly_us = MicrosBetween(b.collected, b.infer_start);
      t.inference_us = MicrosBetween(b.infer_start, b.answered);
      const double rest = us - t.queue_us - t.assembly_us - t.inference_us;
      t.fulfill_us = rest > 0.0 ? rest : 0.0;
      t.store = h.st->label;
      const ServeResult& last = c->slots()[c->size() - 1];
      t.tier = last.used_sketch        ? PlanPrecisionName(h.tier)
               : std::isnan(last.value) ? "failed"
                                        : "exact";
      t.batch_size = b.size;
      t.shard = shard->index;
      slow_queries_.Offer(std::move(t));
    }
    c->Resolve();
    delete c;
  }
  shard->held.clear();
  shard->held_batches.clear();
}

ServeEngine::Clock::time_point ServeEngine::ExecuteBatch(
    Shard* shard, KeyState* st, const ServeKey& key, bool allow_sketch,
    Clock::time_point collected) {
  // The key's spec is set when it is created and never changes, and its
  // counters are atomics, so both are used here without the shard lock.
  const bool tracing = options_.stage_tracing;
  const QueryFunctionSpec& spec = st->spec;
  // Acquisition order matters for compaction safety: the delta SNAPSHOT
  // comes first, then the epoch check that confirms the key's (sketch,
  // watermarks) view, then the pins (a paged sketch, the base version).
  // Watermarks and the base fold watermark only ever advance, so
  // anything current after the snapshot is >= the snapshot's begin —
  // rows can never fall between the snapshot and the base. Pinning first
  // would race a concurrent compact (swap + trim) into dropping rows from
  // both views. The snapshot is taken once per batch: every query
  // composes against the same appended-row prefix.
  //
  // The view is the key's cached slot. A store write that happens before
  // a trim the snapshot sees also happens before the epoch load below,
  // so an unchanged epoch proves the slot is still the store's state
  // after the snapshot; a warm batch thus takes no store lock. The slot's
  // (sketch, watermarks) pair was read from one store slot, so a batch
  // corrects against the old version's watermarks or the new version's —
  // never a mix.
  const ResolvedSlot& slot = st->slot;
  DeltaBuffer::Snapshot dsnap;
  if (slot.delta != nullptr) dsnap = slot.delta->Snap();
  if (__builtin_expect(slot.epoch != store_->epoch(), 0)) {
    Reresolve(st, key, &dsnap);
  }
  const bool has_delta = !dsnap.empty();
  // A demoted key skips the sketch but still needs the delta for exact
  // composition. A paged sketch is pinned through the pool per batch.
  std::shared_ptr<const NeuroSketch> paged_pin;
  const NeuroSketch* sketch = nullptr;
  if (allow_sketch) {
    sketch = slot.sketch.get();
    if (__builtin_expect(slot.paged != nullptr, 0)) {
      paged_pin = slot.PinPaged(key);
      sketch = paged_pin.get();
    }
  }
  const ExactEngine* engine = slot.engine;
  // Pinned AFTER the snapshot: one base version for the whole batch, kept
  // alive across any concurrent compaction swap.
  const ExactEngine::PinnedBase pinned =
      engine != nullptr ? engine->Pin() : ExactEngine::PinnedBase{};

  // Completions own their queries and never read them again; steal the
  // buffers instead of cloning one heap allocation per query.
  std::vector<QueryInstance>& queries = shard->batch_queries;
  queries.clear();
  for (const Piece& p : shard->batch) {
    QueryInstance* first = p.completion->queries() + p.begin;
    queries.insert(queries.end(), std::make_move_iterator(first),
                   std::make_move_iterator(first + p.count));
  }
  shard->batch_results.resize(queries.size());
  PlanPrecision tier = PlanPrecision::kF64;  // of the sketch answers

  // Stage boundaries: assembly = collection -> inference start (store
  // lookup + query stealing), inference = inference start -> every
  // answer computed and held (so it absorbs composition, repairs, the
  // NaN scan, budget accounting and counters), fulfill = held -> the
  // group's publication (Publish records it). Tracing latency
  // discipline: on the latency-critical singleton-batch path, tracing
  // adds ZERO clock reads — inference start reuses the collection stamp
  // (assembly reads 0 and its sub-microsecond lookup cost is absorbed
  // into inference) and the other boundaries reuse the clock reads the
  // dispatcher pays anyway (batch end, publish); multi-query batches,
  // where per-request cost is amortized, pay one dedicated read to keep
  // the full 4-way split. This keeps the tracing-on single-query p50
  // within the <2% budget that tools/check_serving_overhead.sh gates.
  Clock::time_point infer_start = collected;
  if (tracing && queries.size() > 1) infer_start = Clock::now();

  if (sketch != nullptr) {
    // Dispatcher-thread answer buffer: capacity is retained across
    // batches, so with AnswerBatchVectorizedTo staging its bucketing in
    // the workspace arena the whole sketch path is allocation-free once
    // the thread is warm. With keys pinned to shards, only this shard's
    // thread ever warms this sketch's arena.
    thread_local std::vector<double> answers;
    thread_local std::vector<int> leaf_ids;
    answers.resize(queries.size());
    leaf_ids.resize(queries.size());
    sketch->AnswerBatchVectorizedTo(queries, answers.data(), leaf_ids.data());
    // Streaming composition: correct each sketch answer with the exact
    // contribution of the delta rows its leaf has not folded yet. Per
    // answer, `modes` records how it was produced (AnswerMode). A
    // decomposable aggregate takes a scalar delta correction and stays a
    // sketch answer; a non-decomposable one with matching unfolded rows
    // is recomputed exactly over base + delta and counted as a fallback.
    // Every exact answer of the batch — recomputes and NaN repairs —
    // comes from one shared walk of the base (ExactWithDelta) before
    // the NaN scan, which counts a repaired answer by its mode, so the
    // NaN scan and budget accounting below still see exactly the
    // sketch's own answerability.
    thread_local std::vector<uint8_t> modes;
    thread_local std::vector<uint32_t> exact_idx;
    modes.assign(answers.size(), kSketchAnswer);
    exact_idx.clear();
    const std::vector<uint64_t>* folded = slot.leaf_folded.get();
    for (size_t i = 0; i < answers.size(); ++i) {
      if (std::isnan(answers[i])) {
        if (engine != nullptr) {
          // Per-query exact repair: the sketch could not route/answer
          // this instance (e.g. out-of-domain), but the batch as a whole
          // stays on the fast path. With a live delta the repair composes
          // over base + appended rows, so the repaired answer honors the
          // same freshness contract.
          modes[i] = kRepaired;
          exact_idx.push_back(static_cast<uint32_t>(i));
        }
        continue;
      }
      if (!has_delta) continue;
      // Rows the leaf's model already reflects must not be corrected
      // twice: the delta scan starts at the leaf's fold watermark.
      const int leaf = leaf_ids[i];
      size_t from = dsnap.begin();
      if (folded != nullptr && static_cast<size_t>(leaf) < folded->size()) {
        const size_t w = (*folded)[leaf];
        if (w > from) from = w;
      }
      if (from >= dsnap.end()) continue;  // leaf fully folded
      // Non-decomposable with no exact engine: serve the (stale) sketch
      // answer — there is nothing better to compose from.
      if (!Decomposable(spec.agg) && engine == nullptr) continue;
      const DeltaMatch m = ScanDelta(dsnap, from, spec, queries[i]);
      if (m.matched == 0) continue;  // appends do not touch this query
      switch (spec.agg) {
        case Aggregate::kCount:
          answers[i] += static_cast<double>(m.matched);
          break;
        case Aggregate::kSum:
          answers[i] += m.sum;
          break;
        case Aggregate::kMin:
          answers[i] = std::min(answers[i], m.min);
          break;
        case Aggregate::kMax:
          answers[i] = std::max(answers[i], m.max);
          break;
        default:  // recomputed below
          modes[i] = kRecomputed;
          exact_idx.push_back(static_cast<uint32_t>(i));
          continue;
      }
      modes[i] = kDeltaCorrected;
    }
    ExactWithDelta(pinned, spec, queries, exact_idx, dsnap, answers.data());
    size_t nans = 0;
    for (size_t i = 0; i < answers.size(); ++i) {
      nans += modes[i] == kRepaired || std::isnan(answers[i]) ? 1 : 0;
    }
    const size_t genuine = answers.size() - nans;
    tier = sketch->plan_precision();

    bool tripped = false;
    {
      // Error-budget accounting BEFORE any answer is held: the moment
      // Publish resolves a client future, that client may Snapshot() —
      // the demotion decision must already be visible.
      // sketch_answers counts only genuinely sketch-answered queries —
      // repaired (NaN) queries must not dilute the failure-rate
      // denominator, or a half-broken sketch is demoted late or never.
      // The key lives on this shard, so the shard lock suffices (and is
      // uncontended: only this dispatcher and rare Snapshots take it).
      std::lock_guard<std::mutex> lock(shard->mu);
      st->sketch_answers += genuine;
      st->sketch_nans += nans;
      if (!st->demoted &&
          st->sketch_answers + st->sketch_nans >=
              options_.budget_min_samples &&
          static_cast<double>(st->sketch_nans) >
              options_.max_sketch_failure_rate *
                  static_cast<double>(st->sketch_answers)) {
        st->demoted = true;
        tripped = true;
        st->counters.Add(Counter::kBudgetTrips);
      }
    }
    // Eviction-policy signals for the paged catalog (resident keys have
    // none): genuine answers are this store's heat; a budget trip zeroes
    // it, so a demoted sketch — whose traffic now bypasses it anyway — is
    // the first thing the pool reclaims under pressure.
    if (slot.paged != nullptr && genuine > 0) slot.TouchPaged(key, genuine);
    if (tripped) store_->NotePenalized(key);

    for (size_t i = 0; i < answers.size(); ++i) {
      if (modes[i] == kRepaired ||
          (std::isnan(answers[i]) && engine != nullptr)) {
        // Exact repair of a NaN answer: Fulfill tallies fallback_answers
        // (or failed_answers when the engine is also stumped).
        Fulfill(shard, i, answers[i], false);
      } else if (modes[i] == kRecomputed) {
        // Non-decomposable aggregate recomputed exactly over base+delta:
        // counted as a fallback answer (used_sketch=false) plus the
        // delta_exact sub-counter.
        ++shard->tally.delta_exact_answers;
        Fulfill(shard, i, answers[i], false);
      } else {
        if (modes[i] == kDeltaCorrected) {
          ++shard->tally.delta_corrected_answers;
        }
        Fulfill(shard, i, answers[i], !std::isnan(answers[i]));
      }
    }
  } else if (engine != nullptr) {
    std::vector<double> answers;
    if (has_delta) {
      // Exact path with a live delta (demoted key, or no sketch yet):
      // every answer is the pinned-base accumulation continued over the
      // unfolded delta rows — bit-identical to scanning the appended
      // table from scratch, for every aggregate, across any concurrent
      // compaction.
      answers.resize(queries.size());
      std::vector<uint32_t> all(queries.size());
      for (size_t i = 0; i < all.size(); ++i) {
        all[i] = static_cast<uint32_t>(i);
      }
      ExactWithDelta(pinned, spec, queries, all, dsnap, answers.data());
    } else {
      answers = engine->AnswerBatch(spec, queries, options_.exact_batch_threads);
    }
    for (size_t i = 0; i < answers.size(); ++i) {
      Fulfill(shard, i, answers[i], false);
    }
  } else {
    // Neither a sketch nor an exact engine: answer NaN rather than hang.
    for (size_t i = 0; i < queries.size(); ++i) {
      Fulfill(shard, i, std::nan(""), false);
    }
  }
  Settle(shard, st, tier);

  const Clock::time_point answered = Clock::now();
  if (tracing) {
    // Queue waits are recomputed from the completions' enqueue stamps
    // (held completions live until the next Publish), one histogram add
    // per piece.
    for (const Piece& p : shard->batch) {
      shard->stages[kQueue].Add(
          MicrosBetween(p.completion->enqueued, collected), p.count);
    }
    shard->stages[kAssembly].Add(MicrosBetween(collected, infer_start));
    shard->stages[kInference].Add(MicrosBetween(infer_start, answered));
    shard->held_batches.push_back(
        HeldBatch{collected, infer_start, answered, queries.size()});
  }
  return answered;
}

void ServeEngine::Reresolve(KeyState* st, const ServeKey& key,
                            DeltaBuffer::Snapshot* dsnap) const {
  // The snapshot must come before the view it is composed with, so a
  // slot resolved after the snapshot is only trusted once the epoch
  // check after a fresh snapshot confirms it.
  do {
    *dsnap = DeltaBuffer::Snapshot();
    st->slot = store_->Resolve(key);
    if (st->slot.delta != nullptr) *dsnap = st->slot.delta->Snap();
  } while (st->slot.epoch != store_->epoch());
}

void ServeEngine::DemoteStore(const std::string& dataset,
                              const QueryFunctionSpec& spec) {
  const ServeKey key = ServeKey::From(dataset, spec);
  Shard* shard = shards_[ShardIndexOf(key)].get();
  bool tripped = false;
  {
    // Same lock discipline as the NaN error budget: the owning shard's
    // lock makes the decision visible before any later batch reads
    // `demoted` in its dispatch.
    std::lock_guard<std::mutex> lock(shard->mu);
    KeyState& st = KeyStateLocked(shard, key, spec).second;
    if (!st.demoted) {
      st.demoted = true;
      tripped = true;
      st.counters.Add(Counter::kBudgetTrips);
    }
  }
  // Demotion zeroes serving heat: a store whose drift outruns refresh is
  // the preferred eviction victim, exactly like a NaN-budget trip.
  if (tripped) store_->NotePenalized(key);
}

ServeCounts ServeEngine::ServeCounters::Read() const {
  ServeCounts out;
  for (size_t i = 0; i < kNumCounters; ++i) {
    out.*kCounterTable[i].field = counts[i].load(std::memory_order_relaxed);
  }
  return out;
}

void ServeEngine::ServeCounters::Reset() {
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);
  latency.Reset();
}

ServeStats ServeEngine::Snapshot() const {
  MergedHistograms merged;
  return Collect(&merged);
}

ServeStats ServeEngine::Collect(MergedHistograms* merged) const {
  ServeStats s;
  s.num_shards = shards_.size();
  s.per_shard.resize(shards_.size());
  // Each shard's key map is only touched long enough to note its keys
  // (stable addresses: nodes are never erased) and their budget state;
  // the counter blocks are read after unlocking, so a scrape never stalls
  // a dispatcher.
  struct KeyRef {
    size_t shard;
    const KeyState* st;
    bool demoted;
  };
  std::vector<KeyRef> keys;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    std::lock_guard<std::mutex> lock(sh.mu);
    s.per_shard[i].resident_keys = sh.keys.size();
    for (const auto& [key, st] : sh.keys) {
      (void)key;
      keys.push_back({i, &st, st.demoted});
    }
  }
  // Shard rows are sums of the store rows read here, so every scope
  // agrees within one snapshot.
  std::vector<LatencyHistogram> shard_latency(shards_.size());
  s.per_store.reserve(keys.size());
  for (const KeyRef& k : keys) {
    LatencyHistogram latency;
    latency.CopyFrom(k.st->counters.latency);
    StoreStatsSnapshot ss;
    static_cast<ServeCounts&>(ss) = k.st->counters.Read();
    ss.store = k.st->label;
    ss.demoted = k.demoted;
    ss.fallback_rate = Ratio(ss.fallback_answers, ss.queries);
    ss.latency = LatencyBreakdown::From(latency);
    s.per_shard[k.shard] += ss;
    shard_latency[k.shard].AddFrom(latency);
    s.per_store.push_back(std::move(ss));
  }
  std::sort(s.per_store.begin(), s.per_store.end(),
            [](const StoreStatsSnapshot& a, const StoreStatsSnapshot& b) {
              return a.store < b.store;
            });

  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& sh = *shards_[i];
    ShardStatsSnapshot& sd = s.per_shard[i];
    sd.shard = i;
    sd.backpressure_waits =
        sh.backpressure_waits.load(std::memory_order_relaxed);
    sd.mean_batch_size = Ratio(sd.queries, sd.batches);
    sd.latency = LatencyBreakdown::From(shard_latency[i]);
    s += sd;
    merged->latency.AddFrom(shard_latency[i]);
    for (size_t g = 0; g < kNumStages; ++g) {
      merged->stages[g].AddFrom(sh.stages[g]);
    }
  }
  s.elapsed_seconds = uptime_.ElapsedSeconds();
  s.qps = s.elapsed_seconds > 0.0
              ? static_cast<double>(s.queries) / s.elapsed_seconds
              : 0.0;
  s.mean_batch_size = Ratio(s.queries, s.batches);
  s.fallback_rate = Ratio(s.fallback_answers, s.queries);
  s.p50_us = merged->latency.PercentileUs(50);
  s.p95_us = merged->latency.PercentileUs(95);
  s.p99_us = merged->latency.PercentileUs(99);
  s.p999_us = merged->latency.PercentileUs(99.9);
  s.stage_tracing = options_.stage_tracing;
  for (size_t g = 0; g < kNumStages; ++g) {
    s.*kStageTable[g].field = LatencyBreakdown::From(merged->stages[g]);
  }
  return s;
}

void ServeEngine::ResetStats() {
  // One window restart across every shard: take all shard locks first so
  // no new batch lands between the counter clear and the clock restart.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& sh : shards_) locks.emplace_back(sh->mu);
  for (auto& sh : shards_) {
    sh->backpressure_waits.store(0, std::memory_order_relaxed);
    for (LatencyHistogram& h : sh->stages) h.Reset();
    for (auto& [key, st] : sh->keys) {
      (void)key;
      st.counters.Reset();
    }
  }
  slow_queries_.Clear();
  uptime_.Reset();
}

std::vector<metrics::SlowQueryTrace> ServeEngine::SlowQueries() const {
  return slow_queries_.SlowestFirst();
}

void ServeEngine::ExportMetrics(metrics::MetricsRegistry* registry,
                                const std::string& prefix) const {
  MergedHistograms merged;
  const ServeStats s = Collect(&merged);
  for (const CounterInfo& c : kCounterTable) {
    registry->SetCounter(prefix + c.name + "_total", s.*c.field, c.help);
  }
  registry->SetGauge(prefix + "elapsed_seconds", s.elapsed_seconds,
                     "Seconds since engine start or last ResetStats");
  registry->SetGauge(prefix + "mean_batch_size", s.mean_batch_size);
  registry->SetGauge(prefix + "shards", static_cast<double>(s.num_shards),
                     "Dispatcher shards (one dedicated thread each)");

  // Paged-catalog residency: all-zero series when the store has no paged
  // catalog attached (the pool is the single source of truth, snapshotted
  // exactly under its mutex — budget dashboards must not see torn reads).
  const BufferPoolStats pool = store_->PagedStats();
  registry->SetGauge(prefix + "resident_bytes",
                     static_cast<double>(pool.resident_bytes),
                     "Bytes of paged sketches currently faulted in");
  registry->SetGauge(prefix + "resident_bytes_peak",
                     static_cast<double>(pool.peak_resident_bytes),
                     "High-water mark of nsketch_serve_resident_bytes");
  registry->SetGauge(prefix + "resident_budget_bytes",
                     static_cast<double>(pool.max_bytes),
                     "max_resident_bytes budget (0 = unbounded)");
  registry->SetCounter(prefix + "faultins_total", pool.faultins,
                       "Cold sketches loaded from the paged catalog");
  registry->SetCounter(prefix + "faultin_hits_total", pool.hits,
                       "Paged lookups served without touching disk");
  registry->SetCounter(prefix + "evictions_total", pool.evictions,
                       "Resident sketches dropped back to cold");

  // Streaming-delta residency, one series set per streaming dataset.
  for (const auto& [dataset, ds] : store_->DeltaStats()) {
    const std::string label = "{dataset=\"" + dataset + "\"}";
    registry->SetGauge(prefix + "delta_rows" + label,
                       static_cast<double>(ds.rows),
                       "Live (untrimmed) delta rows per streaming dataset");
    registry->SetGauge(prefix + "delta_bytes" + label,
                       static_cast<double>(ds.bytes),
                       "Bytes held by live delta rows");
    registry->SetCounter(prefix + "delta_appends_total" + label, ds.appends,
                         "Writer calls (Append or AppendRows) accepted into "
                         "the delta buffer");
    registry->SetCounter(prefix + "delta_rows_appended_total" + label,
                         ds.rows_appended,
                         "Rows accepted across all delta writer calls");
    registry->SetCounter(prefix + "delta_trimmed_rows_total" + label,
                         ds.trimmed_rows,
                         "Delta rows dropped by Trim after base compaction");
  }
  for (const auto& [dataset, cs] : store_->CompactionStats()) {
    const std::string label = "{dataset=\"" + dataset + "\"}";
    registry->SetCounter(prefix + "delta_compactions_total" + label,
                         cs.compactions,
                         "Base-table compactions (fold + swap) per dataset");
    registry->SetCounter(prefix + "delta_folded_rows_total" + label,
                         cs.folded_rows,
                         "Delta rows folded into the base table per dataset");
  }

  auto copy_hist = [&](const std::string& name, const LatencyHistogram& h,
                       const std::string& help) {
    LatencyHistogram* dst = registry->GetHistogram(name, help);
    if (dst != nullptr) dst->CopyFrom(h);
  };
  copy_hist(prefix + "latency_us", merged.latency,
            "Submit->publish latency, microseconds");
  if (const metrics::LogHistogram* faultin = store_->FaultinLatency()) {
    copy_hist(prefix + "faultin_latency_us", *faultin,
              "Paged-catalog fault-in (disk load) latency, microseconds");
  }
  if (options_.stage_tracing) {
    for (size_t g = 0; g < kNumStages; ++g) {
      copy_hist(prefix + "stage_us{stage=\"" + kStageTable[g].name + "\"}",
                merged.stages[g],
                "Per-stage serve pipeline latency, microseconds");
    }
  }
  for (const auto& ss : s.per_store) {
    const std::string label = "{store=\"" + ss.store + "\"}";
    for (const CounterInfo& c : kCounterTable) {
      if (!c.per_store) continue;
      registry->SetCounter(prefix + "store_" + c.name + "_total" + label,
                           ss.*c.field, c.help + std::string(" per store"));
    }
    registry->SetGauge(prefix + "store_demoted" + label,
                       ss.demoted ? 1.0 : 0.0,
                       "1 when the error budget tripped for this store");
    registry->SetGauge(prefix + "store_p99_us" + label, ss.latency.p99_us,
                       "Per-store submit->publish p99, microseconds");
  }
  // Per-shard series: tail attribution can tell a hot shard (one
  // dispatcher saturated) from a hot store (one key saturated).
  for (const auto& sd : s.per_shard) {
    const std::string label = "{shard=\"" + std::to_string(sd.shard) + "\"}";
    for (const CounterInfo& c : kCounterTable) {
      if (!c.per_shard) continue;
      registry->SetCounter(prefix + "shard_" + c.name + "_total" + label,
                           sd.*c.field, c.help + std::string(" per shard"));
    }
    registry->SetCounter(prefix + "shard_backpressure_waits_total" + label,
                         sd.backpressure_waits,
                         "Submissions that blocked on a full shard ring");
    registry->SetGauge(prefix + "shard_resident_keys" + label,
                       static_cast<double>(sd.resident_keys),
                       "Store keys routed to this shard");
    registry->SetGauge(prefix + "shard_p99_us" + label, sd.latency.p99_us,
                       "Per-shard submit->publish p99, microseconds");
  }
}

}  // namespace serve
}  // namespace neurosketch
