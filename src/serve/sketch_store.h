// SketchStore: the serving-side registry of trained NeuroSketches. Where
// core/SketchCatalog is the maintenance view (decide, train, rebuild), the
// store is the read-mostly runtime view: named datasets, the latest sketch
// per query function, and the exact engine to fall back to. All methods are
// thread-safe; lookups take a shared lock and hand out shared_ptrs so a
// sketch stays alive for in-flight batches even after a newer one replaces
// it. The store keeps no superseded sketch: the last reader frees it.
#ifndef NEUROSKETCH_SERVE_SKETCH_STORE_H_
#define NEUROSKETCH_SERVE_SKETCH_STORE_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "core/neurosketch.h"
#include "data/streaming_table.h"
#include "query/engine.h"
#include "query/query.h"
#include "serve/delta_buffer.h"
#include "util/buffer_pool.h"
#include "util/status.h"

namespace neurosketch {
namespace serve {

/// \brief Store key: dataset name + query-function identity.
struct ServeKey {
  std::string dataset;
  QueryFunctionKey fn;

  bool operator<(const ServeKey& other) const {
    return std::tie(dataset, fn) < std::tie(other.dataset, other.fn);
  }
  bool operator==(const ServeKey& other) const {
    return !(*this < other) && !(other < *this);
  }

  /// \brief Stable 64-bit identity hash over every key field. This is
  /// what the serving engine routes shards by, so it is a pure function
  /// of the key — independent of registration order, store contents, or
  /// process lifetime.
  uint64_t Hash() const;

  static ServeKey From(const std::string& dataset,
                       const QueryFunctionSpec& spec) {
    return ServeKey{dataset, QueryFunctionKey::From(spec)};
  }
};

/// \brief A key's `store` label in serve and refresh metrics, e.g.
/// "gmm/AVG(col 2) WHERE axis_range". It names every ServeKey field, so
/// two keys never share a label.
inline std::string StoreLabel(const std::string& dataset,
                              const QueryFunctionSpec& spec) {
  return dataset + "/" + spec.ToString();
}

/// \brief One registered sketch, for listings. `size_bytes` is the
/// serialized (on-disk) footprint; `resident_bytes` is what the sketch
/// occupies in memory right now — 0 for a cold paged entry (a warm
/// sketch holds only its active tier's plans, a cold one nothing).
struct SketchListing {
  ServeKey key;
  /// How many times the key has been registered (paged entries read 1).
  uint64_t version = 0;
  size_t size_bytes = 0;      // serialized footprint (NeuroSketch::SizeBytes)
  size_t resident_bytes = 0;  // current in-memory footprint (0 when cold)
  size_t num_partitions = 0;
  bool compiled = false;  // serving from compiled inference plans
  /// Precision tier the sketch serves from (per-store selection: each
  /// registered sketch carries its own validated tier).
  PlanPrecision precision = PlanPrecision::kF64;
  /// True when the listing is a paged-catalog entry (cold listings report
  /// num_partitions/compiled/precision as defaults — inspecting structure
  /// would mean faulting the sketch in).
  bool paged = false;
};

/// \brief What the serving path needs for one answer, resolved in one
/// lookup: the key's sketch, its per-leaf delta fold watermarks, and the
/// dataset's delta buffer. The (sketch, leaf_folded)
/// pair is copied from one map slot under the store lock, so the two can
/// never be observed mid-swap: a refresh registers them together and a
/// reader sees either the old pair or the new pair.
struct ServedView {
  std::shared_ptr<const NeuroSketch> sketch;
  /// Per-leaf fold watermark: delta rows below leaf_folded[leaf_id] are
  /// already baked into this sketch's leaf model and must NOT be
  /// corrected again. nullptr = nothing folded (watermark 0 everywhere).
  std::shared_ptr<const std::vector<uint64_t>> leaf_folded;
  /// The dataset's streaming delta, nullptr when streaming is not
  /// enabled for the dataset.
  std::shared_ptr<const DeltaBuffer> delta;
};

/// \brief What one SketchStore::Compact call did.
struct CompactionOutcome {
  bool compacted = false;  ///< rows were folded and a new table version swapped
  uint64_t safe = 0;       ///< the computed safe fold watermark
  size_t folded_rows = 0;  ///< delta rows folded into the table by this call
  size_t trimmed_rows = 0;  ///< rows dropped from the delta (chunk-granular,
                            ///< may be 0 right after a fold and catch up on
                            ///< the next call)
  std::string message;      ///< why nothing was folded (informational)
};

/// \brief Per-dataset compaction counters for the metric export
/// (nsketch_serve_delta_compactions_total / delta_folded_rows_total).
struct CompactionCounters {
  uint64_t compactions = 0;
  uint64_t folded_rows = 0;
};

/// \brief Knobs for attaching a paged catalog to a store.
struct PagedCatalogOptions {
  /// Resident-byte budget shared by every paged sketch in this store
  /// (ResidentBytes accounting). 0 = unbounded. Fixed by the first
  /// AttachPagedCatalog call; later attaches share the same pool.
  size_t max_resident_bytes = 0;
};

/// \brief Thread-safe registry of (dataset, query function) -> one sketch
/// plus per-dataset exact engines.
class SketchStore {
 public:
  /// \brief Register the exact engine serving fallback traffic for a
  /// dataset. The engine (and its table) must outlive the store.
  Status RegisterDataset(const std::string& dataset,
                         const ExactEngine* engine);

  /// \brief Register a sketch under (dataset, spec), replacing the key's
  /// previous sketch (readers holding it keep it until they let go).
  /// `leaf_folded` records how many delta rows each leaf's model already
  /// reflects (see ServedView); it swaps in atomically with the sketch. When `leaf_folded` is nullptr and the
  /// dataset has a streaming table attached, the watermarks are filled
  /// with the table's current fold watermark — a sketch registered
  /// without watermarks is assumed trained on the CURRENT base table
  /// (train on a Pin() of it; registering a sketch trained on an older,
  /// since-compacted version needs explicit watermarks and is unsafe once
  /// the rows it would re-correct have been trimmed). Returns the key's
  /// version: how many times it has been registered, this time included.
  Result<uint64_t> Register(
      const std::string& dataset, const QueryFunctionSpec& spec,
      std::shared_ptr<const NeuroSketch> sketch,
      std::shared_ptr<const std::vector<uint64_t>> leaf_folded = nullptr);
  Result<uint64_t> Register(const std::string& dataset,
                            const QueryFunctionSpec& spec,
                            NeuroSketch sketch);

  /// \brief Deserialize a sketch from `path` (NeuroSketch::Load) and
  /// register it.
  Result<uint64_t> RegisterFromFile(const std::string& dataset,
                                    const QueryFunctionSpec& spec,
                                    const std::string& path);

  /// \brief Adopt every sketch the catalog has built, sharing ownership.
  /// Returns the number of sketches imported.
  size_t ImportFromCatalog(const std::string& dataset,
                           const SketchCatalog& catalog);

  /// \brief Attach a paged catalog file (WritePagedCatalog format): every
  /// entry becomes a cold, disk-resident sketch under (dataset, key) that
  /// faults in through the store's buffer pool on first Lookup. An
  /// explicit Register of the same key shadows the cold copy (that shadowing — and the pool's own eviction
  /// — is the "atomic swap to the cold handle": in-flight batches keep
  /// their pinned shared_ptr, new lookups see the new state). The first
  /// attach fixes the pool budget from `opts`. Returns the number of
  /// entries attached.
  Result<size_t> AttachPagedCatalog(const std::string& dataset,
                                    const std::string& path,
                                    PagedCatalogOptions opts = {});

  /// \brief The key's sketch, or nullptr when none registered. For a
  /// paged entry this may fault the sketch in from disk (admission may
  /// evict colder stores first); a fault-in failure (unreadable or
  /// corrupt image, value over the whole budget) serves as "no sketch" so
  /// traffic falls back to the exact engine.
  std::shared_ptr<const NeuroSketch> Lookup(const ServeKey& key) const;

  /// \brief The streaming serving view: the key's sketch + its fold
  /// watermarks + the dataset's delta buffer, read consistently under one
  /// shared lock (paged fault-in happens off-lock as in Lookup). The
  /// sketch is nullptr when none is registered; the delta is nullptr when
  /// streaming is not enabled for the dataset.
  ServedView LookupServed(const ServeKey& key) const;

  /// \brief Turn on streaming ingest for a dataset: creates its (empty)
  /// delta buffer with `num_columns` matching the base table. Idempotent;
  /// InvalidArgument when already enabled with a different column count.
  Status EnableStreaming(const std::string& dataset, size_t num_columns,
                         size_t chunk_rows = 1024);

  /// \brief Append one row / a batch of rows to a dataset's delta buffer.
  /// FailedPrecondition when streaming was not enabled. Thread-safe;
  /// appended rows become visible to in-flight serving exactly (readers
  /// pick them up on their next delta snapshot).
  Status Append(const std::string& dataset, const std::vector<double>& row);
  Status AppendRows(const std::string& dataset,
                    const std::vector<std::vector<double>>& rows);

  /// \brief A dataset's delta buffer, or nullptr when streaming is off.
  std::shared_ptr<const DeltaBuffer> Delta(const std::string& dataset) const;

  /// \brief Attach the swappable base table compaction folds into. The
  /// table must be the one the dataset's registered ExactEngine scans
  /// (construct the engine over it) and must outlive the store. Requires
  /// EnableStreaming first with a matching column count.
  Status AttachStreamingTable(const std::string& dataset,
                              StreamingTable* table);

  /// \brief The dataset's streaming table, or nullptr when none attached.
  StreamingTable* StreamingTableFor(const std::string& dataset) const;

  /// \brief Fold trimmed-eligible delta rows into the dataset's streaming
  /// table and trim the delta. Computes the SAFE FOLD WATERMARK — the
  /// minimum over every leaf watermark of the registered sketch of every
  /// (dataset, fn) key sharing the dataset (a nullptr watermark
  /// vector and an unshadowed paged entry count as 0; a dataset with no
  /// keys at all may fold everything) — because folding past any live
  /// watermark double-counts rows in one key's answers and drops them
  /// from another's. Rows [folded, safe) are appended to a copy of the
  /// current table version off-lock, the copy swaps in atomically, and
  /// DeltaBuffer::Trim drops whole chunks below the watermark. Serving is
  /// never blocked and answers are bit-identical across the swap:
  /// in-flight batches keep their pinned version plus a delta snapshot
  /// that owns its chunks. Thread-safe; concurrent Compact calls
  /// serialize. Status errors only for infrastructure problems (streaming
  /// off, no table attached); "nothing to fold" is an OK outcome with
  /// compacted=false.
  Result<CompactionOutcome> Compact(const std::string& dataset);

  /// \brief Per-dataset compaction counters, sorted by dataset name.
  std::vector<std::pair<std::string, CompactionCounters>> CompactionStats()
      const;

  /// \brief Per-dataset delta counters for the metric export, sorted by
  /// dataset name. Empty when no dataset streams.
  std::vector<std::pair<std::string, DeltaBufferStats>> DeltaStats() const;

  /// \brief Serving heat for the eviction policy: credit `answers`
  /// delivered from this key's sketch. No-op for non-paged keys.
  void NoteServed(const ServeKey& key, size_t answers) const;
  /// \brief Error-budget demotion signal: zero the key's heat so it
  /// becomes the preferred eviction victim. No-op for non-paged keys.
  void NotePenalized(const ServeKey& key) const;

  /// \brief Pool residency/faultin/eviction snapshot; zero-value struct
  /// when no paged catalog is attached.
  BufferPoolStats PagedStats() const;
  /// \brief Fault-in latency histogram (microseconds), or nullptr when no
  /// paged catalog is attached. Stable address once attached.
  const metrics::LogHistogram* FaultinLatency() const;

  /// \brief Drop the key's registered sketch. Returns 1 when there was
  /// one, else 0 (a paged entry stays attached).
  size_t Unregister(const ServeKey& key);

  /// \brief Fallback engine for a dataset, or nullptr when unknown.
  const ExactEngine* Engine(const std::string& dataset) const;

  /// \brief One listing per registered key, then one per unshadowed
  /// paged entry.
  std::vector<SketchListing> List() const;

  /// \brief Registered keys (at most one sketch each).
  size_t num_sketches() const;
  /// \brief Cold (paged) entries attached, independent of residency.
  size_t num_paged() const;

 private:
  struct PagedEntry {
    PagedCatalogEntry entry;
    std::shared_ptr<const PagedCatalogReader> reader;
  };

  /// A key's registered sketch plus the delta fold watermarks it was
  /// registered with. Living in one map slot is what makes the refresh
  /// swap atomic for readers.
  struct VersionEntry {
    uint64_t version = 0;  // Register calls on the key so far
    std::shared_ptr<const NeuroSketch> sketch;
    std::shared_ptr<const std::vector<uint64_t>> leaf_folded;
  };

  /// Replace the key's entry, bumping its version. Caller holds mu_
  /// uniquely.
  uint64_t RegisterLocked(const ServeKey& key,
                          std::shared_ptr<const NeuroSketch> sketch,
                          std::shared_ptr<const std::vector<uint64_t>>
                              leaf_folded);

  std::shared_ptr<const NeuroSketch> FaultIn(const ServeKey& key,
                                             const PagedEntry& pe) const;

  /// Safe fold watermark for a dataset whose delta currently publishes
  /// `delta_size` rows. Caller holds mu_ (shared or unique).
  uint64_t SafeWatermarkLocked(const std::string& dataset,
                               uint64_t delta_size) const;

  mutable std::shared_mutex mu_;
  std::map<ServeKey, VersionEntry> sketches_;
  std::map<std::string, const ExactEngine*> engines_;
  /// Per-dataset streaming delta buffers (DeltaBuffer is internally
  /// thread-safe; the store lock only guards the map itself).
  std::map<std::string, std::shared_ptr<DeltaBuffer>> deltas_;
  /// Per-dataset swappable base tables (compaction folds into these).
  std::map<std::string, StreamingTable*> streaming_tables_;
  std::map<std::string, CompactionCounters> compaction_counters_;
  /// Serializes Compact passes (the fold copy is the expensive step;
  /// overlapping folds of one dataset would race the swap monotonicity).
  std::mutex compact_mu_;
  std::map<ServeKey, PagedEntry> paged_;
  // Created by the first AttachPagedCatalog, never destroyed after —
  // Lookup reads the raw pointer under mu_ then faults in without it.
  // mutable: faulting in is logically const (read-side of the store).
  mutable std::unique_ptr<BufferPool<ServeKey, NeuroSketch>> pool_;
};

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_SKETCH_STORE_H_
