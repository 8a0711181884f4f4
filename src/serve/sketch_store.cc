#include "serve/sketch_store.h"

#include <algorithm>
#include <mutex>

#include "util/shard_router.h"

namespace neurosketch {
namespace serve {

uint64_t ServeKey::Hash() const {
  uint64_t h = Fnv1a64(dataset);
  h = Fnv1a64(fn.predicate_name, h);
  h = Fnv1a64(static_cast<uint64_t>(fn.agg), h);
  h = Fnv1a64(static_cast<uint64_t>(fn.measure_col), h);
  return h;
}

std::unique_lock<std::shared_mutex> SketchStore::WriteLock() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  return lock;
}

Status SketchStore::RegisterDataset(const std::string& dataset,
                                    const ExactEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine for dataset " + dataset);
  }
  auto lock = WriteLock();
  engines_[dataset] = engine;
  return Status::OK();
}

Result<uint64_t> SketchStore::Register(
    const std::string& dataset, const QueryFunctionSpec& spec,
    std::shared_ptr<const NeuroSketch> sketch,
    std::shared_ptr<const std::vector<uint64_t>> leaf_folded) {
  if (sketch == nullptr) {
    return Status::InvalidArgument("null sketch for dataset " + dataset);
  }
  if (spec.predicate == nullptr) {
    return Status::InvalidArgument("spec has no predicate");
  }
  if (leaf_folded != nullptr &&
      leaf_folded->size() != sketch->num_partitions()) {
    return Status::InvalidArgument("leaf_folded size != num_partitions");
  }
  const ServeKey key = ServeKey::From(dataset, spec);
  auto lock = WriteLock();
  if (leaf_folded == nullptr) {
    // No watermarks means "trained on the current base table": fill with
    // its fold watermark so already-folded rows are not corrected again.
    // Without a streaming table the watermark is 0 and nullptr keeps its
    // historical meaning (nothing folded).
    auto tit = streaming_tables_.find(dataset);
    if (tit != streaming_tables_.end()) {
      const uint64_t folded = tit->second->folded();
      if (folded > 0) {
        leaf_folded = std::make_shared<const std::vector<uint64_t>>(
            sketch->num_partitions(), folded);
      }
    }
  }
  return RegisterLocked(key, std::move(sketch), std::move(leaf_folded));
}

uint64_t SketchStore::RegisterLocked(
    const ServeKey& key, std::shared_ptr<const NeuroSketch> sketch,
    std::shared_ptr<const std::vector<uint64_t>> leaf_folded) {
  VersionEntry& entry = sketches_[key];
  ++entry.version;
  // The replaced sketch lives on only in readers that still hold it.
  entry.sketch = std::move(sketch);
  entry.leaf_folded = std::move(leaf_folded);
  return entry.version;
}

Result<uint64_t> SketchStore::Register(const std::string& dataset,
                                       const QueryFunctionSpec& spec,
                                       NeuroSketch sketch) {
  return Register(dataset, spec,
                  std::make_shared<const NeuroSketch>(std::move(sketch)));
}

Result<uint64_t> SketchStore::RegisterFromFile(const std::string& dataset,
                                               const QueryFunctionSpec& spec,
                                               const std::string& path) {
  NS_ASSIGN_OR_RETURN(NeuroSketch sketch, NeuroSketch::Load(path));
  return Register(dataset, spec, std::move(sketch));
}

size_t SketchStore::ImportFromCatalog(const std::string& dataset,
                                      const SketchCatalog& catalog) {
  size_t imported = 0;
  auto lock = WriteLock();  // one atomic import
  uint64_t folded = 0;
  auto tit = streaming_tables_.find(dataset);
  if (tit != streaming_tables_.end()) folded = tit->second->folded();
  for (auto& [fn_key, sketch] : catalog.Sketches()) {
    // Same assumption as Register without watermarks: catalog sketches
    // were trained on the current base table.
    auto leaf_folded =
        folded > 0 ? std::make_shared<const std::vector<uint64_t>>(
                         sketch->num_partitions(), folded)
                   : nullptr;
    RegisterLocked(ServeKey{dataset, fn_key}, sketch, std::move(leaf_folded));
    ++imported;
  }
  return imported;
}

Result<size_t> SketchStore::AttachPagedCatalog(const std::string& dataset,
                                               const std::string& path,
                                               PagedCatalogOptions opts) {
  NS_ASSIGN_OR_RETURN(PagedCatalogReader opened, PagedCatalogReader::Open(path));
  auto reader =
      std::make_shared<const PagedCatalogReader>(std::move(opened));
  auto lock = WriteLock();
  if (pool_ == nullptr) {
    pool_ = std::make_unique<BufferPool<ServeKey, NeuroSketch>>(
        opts.max_resident_bytes);
  }
  size_t attached = 0;
  for (const PagedCatalogEntry& entry : reader->entries()) {
    paged_[ServeKey{dataset, entry.key}] = PagedEntry{&entry, reader};
    ++attached;
  }
  return attached;
}

std::shared_ptr<const NeuroSketch> ResolvedSlot::PinPaged(
    const ServeKey& key) const {
  if (paged == nullptr) return nullptr;
  Result<BufferPool<ServeKey, NeuroSketch>::Handle> pinned = pool->Pin(
      key, [this]() -> Result<BufferPoolLoaded<NeuroSketch>> {
        NS_ASSIGN_OR_RETURN(NeuroSketch sketch, reader->LoadEntry(*paged));
        BufferPoolLoaded<NeuroSketch> out;
        out.value = std::make_shared<const NeuroSketch>(std::move(sketch));
        // Charge what the warm sketch actually occupies (active tier
        // only — Load comes up lean), not its on-disk size.
        out.bytes = out.value->ResidentBytes();
        return out;
      });
  // A fault-in failure (unreadable file, value over the whole budget)
  // serves as "no sketch": callers fall back to the exact engine.
  if (!pinned.ok()) return nullptr;
  return std::move(pinned).value();
}

void ResolvedSlot::TouchPaged(const ServeKey& key, size_t answers) const {
  if (paged != nullptr) pool->Touch(key, static_cast<double>(answers));
}

ResolvedSlot SketchStore::Resolve(const ServeKey& key) const {
  ResolvedSlot slot;
  std::shared_lock<std::shared_mutex> lock(mu_);
  slot.epoch = epoch_.load(std::memory_order_relaxed);
  auto dit = deltas_.find(key.dataset);
  if (dit != deltas_.end()) slot.delta = dit->second;
  auto eit = engines_.find(key.dataset);
  if (eit != engines_.end()) slot.engine = eit->second;
  auto it = sketches_.find(key);
  if (it != sketches_.end()) {
    // One slot read: the (sketch, leaf_folded) pair can never be
    // observed mid-swap.
    slot.sketch = it->second.sketch;
    slot.leaf_folded = it->second.leaf_folded;
    return slot;
  }
  auto pit = paged_.find(key);
  if (pit != paged_.end()) {
    slot.paged = pit->second.entry;
    slot.reader = pit->second.reader;
    slot.pool = pool_.get();
  }
  return slot;
}

std::shared_ptr<const NeuroSketch> SketchStore::Lookup(
    const ServeKey& key) const {
  return LookupServed(key).sketch;
}

ServedView SketchStore::LookupServed(const ServeKey& key) const {
  ResolvedSlot slot = Resolve(key);
  ServedView view;
  view.delta = std::move(slot.delta);
  if (slot.paged != nullptr) {
    // Fault in without the store lock: disk I/O (and any admission wait)
    // must not block registrations or unrelated lookups.
    view.sketch = slot.PinPaged(key);
  } else {
    view.sketch = std::move(slot.sketch);
    view.leaf_folded = std::move(slot.leaf_folded);
  }
  return view;
}

Status SketchStore::EnableStreaming(const std::string& dataset,
                                    size_t num_columns, size_t chunk_rows) {
  if (num_columns == 0) {
    return Status::InvalidArgument("streaming needs at least one column");
  }
  auto lock = WriteLock();
  auto it = deltas_.find(dataset);
  if (it != deltas_.end()) {
    if (it->second->num_columns() != num_columns) {
      return Status::InvalidArgument(
          "streaming already enabled with a different column count for " +
          dataset);
    }
    return Status::OK();
  }
  deltas_[dataset] = std::make_shared<DeltaBuffer>(num_columns, chunk_rows);
  return Status::OK();
}

Status SketchStore::Append(const std::string& dataset,
                           const std::vector<double>& row) {
  std::shared_ptr<DeltaBuffer> delta;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = deltas_.find(dataset);
    if (it == deltas_.end()) {
      return Status::FailedPrecondition("streaming not enabled for " + dataset);
    }
    delta = it->second;
  }
  delta->Append(row);
  return Status::OK();
}

Status SketchStore::AppendRows(const std::string& dataset,
                               const std::vector<std::vector<double>>& rows) {
  std::shared_ptr<DeltaBuffer> delta;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = deltas_.find(dataset);
    if (it == deltas_.end()) {
      return Status::FailedPrecondition("streaming not enabled for " + dataset);
    }
    delta = it->second;
  }
  delta->AppendRows(rows);
  return Status::OK();
}

std::shared_ptr<const DeltaBuffer> SketchStore::Delta(
    const std::string& dataset) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = deltas_.find(dataset);
  return it == deltas_.end() ? nullptr : it->second;
}

std::vector<std::pair<std::string, DeltaBufferStats>> SketchStore::DeltaStats()
    const {
  std::vector<std::pair<std::string, DeltaBufferStats>> out;
  std::shared_lock<std::shared_mutex> lock(mu_);
  out.reserve(deltas_.size());
  for (const auto& [dataset, delta] : deltas_) {
    out.emplace_back(dataset, delta->Stats());
  }
  return out;
}

Status SketchStore::AttachStreamingTable(const std::string& dataset,
                                         StreamingTable* table) {
  if (table == nullptr) {
    return Status::InvalidArgument("null streaming table for " + dataset);
  }
  auto lock = WriteLock();
  auto dit = deltas_.find(dataset);
  if (dit == deltas_.end()) {
    return Status::FailedPrecondition("streaming not enabled for " + dataset);
  }
  if (dit->second->num_columns() != table->num_columns()) {
    return Status::InvalidArgument(
        "streaming table column count does not match the delta buffer for " +
        dataset);
  }
  auto it = streaming_tables_.find(dataset);
  if (it != streaming_tables_.end() && it->second != table) {
    return Status::InvalidArgument(
        "a different streaming table is already attached for " + dataset);
  }
  streaming_tables_[dataset] = table;
  return Status::OK();
}

StreamingTable* SketchStore::StreamingTableFor(
    const std::string& dataset) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = streaming_tables_.find(dataset);
  return it == streaming_tables_.end() ? nullptr : it->second;
}

uint64_t SketchStore::SafeWatermarkLocked(const std::string& dataset,
                                          uint64_t delta_size) const {
  // Minimum over every leaf watermark of the registered sketch of every
  // key sharing the dataset. A sketch without watermarks and an
  // unshadowed paged entry mean "nothing folded" (watermark 0); a dataset
  // with no keys at all serves exact-only and may fold everything.
  uint64_t safe = delta_size;
  for (const auto& [key, entry] : sketches_) {
    if (key.dataset != dataset) continue;
    if (entry.leaf_folded == nullptr) return 0;
    for (uint64_t w : *entry.leaf_folded) safe = std::min(safe, w);
  }
  for (const auto& [key, pe] : paged_) {
    (void)pe;
    if (key.dataset == dataset && sketches_.count(key) == 0) return 0;
  }
  return safe;
}

Result<CompactionOutcome> SketchStore::Compact(const std::string& dataset) {
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  std::shared_ptr<DeltaBuffer> delta;
  StreamingTable* table = nullptr;
  uint64_t safe = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto dit = deltas_.find(dataset);
    if (dit == deltas_.end()) {
      return Status::FailedPrecondition("streaming not enabled for " + dataset);
    }
    delta = dit->second;
    auto tit = streaming_tables_.find(dataset);
    if (tit == streaming_tables_.end()) {
      return Status::FailedPrecondition("no streaming table attached for " +
                                        dataset);
    }
    table = tit->second;
    safe = SafeWatermarkLocked(dataset, delta->size());
  }

  CompactionOutcome out;
  out.safe = safe;
  const std::shared_ptr<const StreamingTable::Version> cur = table->Pin();
  if (safe <= cur->folded) {
    // Nothing new to fold; a previous fold may still have chunks whose
    // tail just crossed the watermark, so trimming is still worth a try.
    out.trimmed_rows = delta->Trim(cur->folded);
    out.message = "safe watermark " + std::to_string(safe) +
                  " <= folded " + std::to_string(cur->folded);
    return out;
  }

  // Fold [folded, safe) into a copy of the current version, off every
  // lock: serving and appends continue untouched. The snapshot's begin is
  // <= folded (Trim never passes the fold watermark) and its end covers
  // `safe` (read from the same buffer before the snapshot).
  Table next = cur->table;
  const DeltaBuffer::Snapshot snap = delta->Snap();
  std::vector<double> row(snap.num_columns());
  bool rows_ok = true;
  snap.ForEachRow(cur->folded, safe, [&](const double* r) {
    row.assign(r, r + snap.num_columns());
    if (!next.AppendRow(row).ok()) rows_ok = false;
  });
  if (!rows_ok) {
    return Status::Unknown("column mismatch while folding rows for " +
                           dataset);
  }

  // Swap under the store lock so it is atomic against Register's
  // default watermark fill, then recompute the trim bound: a sketch
  // registered between the safe computation above and this swap carries
  // the OLD fold watermark and still needs its delta rows — trim only to
  // what every currently registered watermark allows.
  uint64_t trim_to = safe;
  {
    auto lock = WriteLock();
    const Status swapped = table->Swap(std::move(next), safe);
    if (!swapped.ok()) return swapped;
    trim_to = std::min<uint64_t>(safe, SafeWatermarkLocked(dataset, safe));
    auto& counters = compaction_counters_[dataset];
    ++counters.compactions;
    counters.folded_rows += static_cast<uint64_t>(safe - cur->folded);
  }
  out.compacted = true;
  out.folded_rows = static_cast<size_t>(safe - cur->folded);
  out.trimmed_rows = delta->Trim(trim_to);
  return out;
}

std::vector<std::pair<std::string, CompactionCounters>>
SketchStore::CompactionStats() const {
  std::vector<std::pair<std::string, CompactionCounters>> out;
  std::shared_lock<std::shared_mutex> lock(mu_);
  out.reserve(compaction_counters_.size());
  for (const auto& [dataset, counters] : compaction_counters_) {
    out.emplace_back(dataset, counters);
  }
  return out;
}

void SketchStore::NoteServed(const ServeKey& key, size_t answers) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (pool_ != nullptr && paged_.count(key) > 0) {
    pool_->Touch(key, static_cast<double>(answers));
  }
}

void SketchStore::NotePenalized(const ServeKey& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (pool_ != nullptr && paged_.count(key) > 0) pool_->Penalize(key);
}

BufferPoolStats SketchStore::PagedStats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pool_ == nullptr ? BufferPoolStats{} : pool_->Stats();
}

const metrics::LogHistogram* SketchStore::FaultinLatency() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pool_ == nullptr ? nullptr : &pool_->faultin_latency();
}

size_t SketchStore::Unregister(const ServeKey& key) {
  auto lock = WriteLock();
  return sketches_.erase(key);
}

const ExactEngine* SketchStore::Engine(const std::string& dataset) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = engines_.find(dataset);
  return it == engines_.end() ? nullptr : it->second;
}

std::vector<SketchListing> SketchStore::List() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<SketchListing> out;
  for (const auto& [key, entry] : sketches_) {
    const NeuroSketch& sk = *entry.sketch;
    SketchListing l;
    l.key = key;
    l.version = entry.version;
    l.size_bytes = sk.SizeBytes();
    l.resident_bytes = sk.ResidentBytes();
    l.num_partitions = sk.num_partitions();
    l.compiled = sk.compiled();
    l.precision = sk.plan_precision();
    out.push_back(std::move(l));
  }
  for (const auto& [key, pe] : paged_) {
    // A registered sketch shadows the cold copy entirely.
    if (sketches_.count(key) > 0) continue;
    SketchListing l;
    l.key = key;
    l.version = 1;
    l.size_bytes = pe.entry->size_bytes;
    l.paged = true;
    // Peek (no pin, no fault-in): a resident entry reports its live
    // structure; a cold one reports only its on-disk size.
    if (auto resident = pool_ ? pool_->Peek(key) : nullptr) {
      l.resident_bytes = resident->ResidentBytes();
      l.num_partitions = resident->num_partitions();
      l.compiled = resident->compiled();
      l.precision = resident->plan_precision();
    }
    out.push_back(std::move(l));
  }
  return out;
}

size_t SketchStore::num_sketches() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return sketches_.size();
}

size_t SketchStore::num_paged() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return paged_.size();
}

}  // namespace serve
}  // namespace neurosketch
