// SketchCatalog: the database-maintenance view of NeuroSketch (Sec. 4.3).
// A query processing engine registers the query functions it sees, the
// catalog decides which to build sketches for (AQC-gated, via Advisor),
// trains and stores them keyed by query-function identity, and dispatches
// incoming queries to a sketch or the exact engine.
#ifndef NEUROSKETCH_CORE_CATALOG_H_
#define NEUROSKETCH_CORE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/advisor.h"
#include "core/neurosketch.h"
#include "query/engine.h"
#include "query/workload.h"

namespace neurosketch {

/// \brief Identity of a query function for catalog lookup: aggregation +
/// measure column + predicate family name.
struct QueryFunctionKey {
  std::string predicate_name;
  Aggregate agg;
  size_t measure_col;

  bool operator<(const QueryFunctionKey& other) const {
    return std::tie(predicate_name, agg, measure_col) <
           std::tie(other.predicate_name, other.agg, other.measure_col);
  }
  static QueryFunctionKey From(const QueryFunctionSpec& spec);
};

/// \brief One sketch's slot in a paged catalog file: its query-function
/// identity plus where its serialized image lives in the file.
struct PagedCatalogEntry {
  QueryFunctionKey key;
  uint64_t offset = 0;      // byte offset of the sketch image
  uint64_t size_bytes = 0;  // exact image length (== NeuroSketch::SizeBytes)
};

/// \brief Pack N sketches into one paged catalog file: a magic + count
/// header, an offset index (one entry per key), then the concatenated
/// NeuroSketch::Save images. The paged serving path
/// (serve/SketchStore::AttachPagedCatalog) memory-maps nothing and keeps
/// nothing resident — cold sketches fault in through a buffer pool, each
/// one positioned read (pread) at its offset through the descriptor the
/// reader opened once. Offsets are computed from SizeBytes(), which is
/// pinned to equal Save()'s byte count exactly; the writer verifies this
/// per entry and fails loudly on drift.
Status WritePagedCatalog(
    const std::string& path,
    const std::vector<std::pair<QueryFunctionKey,
                                std::shared_ptr<const NeuroSketch>>>&
        sketches);

/// \brief Read side of the paged catalog format: parses the index on
/// Open, loads individual sketches on demand. The file is opened once;
/// copies of a reader share that descriptor, and the last copy closes
/// it. So a reader keeps serving the file it attached even if the path
/// is later replaced or unlinked. LoadEntry is const and thread-safe
/// (pread never moves a shared file position), so many pool loaders can
/// fault in concurrently.
class PagedCatalogReader {
 public:
  PagedCatalogReader() = default;

  /// \brief Opens `path` and parses its index. The index is untrusted:
  /// every count and length is checked against the file size before
  /// anything is allocated, and every entry must lie inside the file, so
  /// a corrupt index returns a non-OK Status instead of throwing or
  /// allocating what it claims.
  static Result<PagedCatalogReader> Open(const std::string& path);

  const std::vector<PagedCatalogEntry>& entries() const { return entries_; }
  const std::string& path() const { return path_; }

  /// \brief Deserialize one sketch image (one pread into a per-thread
  /// buffer, parsed in place by NeuroSketch::LoadFrom). The loaded sketch
  /// is warm-and-lean: active tier materialized, trainer and inactive
  /// tiers cold.
  Result<NeuroSketch> LoadEntry(const PagedCatalogEntry& entry) const;

 private:
  /// The open catalog file and its size at Open; closes on destruction.
  struct File {
    int fd = -1;
    uint64_t size = 0;
    ~File();
  };

  std::string path_;
  std::shared_ptr<const File> file_;
  std::vector<PagedCatalogEntry> entries_;
};

/// \brief Outcome of a maintenance pass for one query function.
struct CatalogEntryInfo {
  QueryFunctionKey key;
  double normalized_aqc = 0.0;
  bool built = false;
  size_t size_bytes = 0;
};

/// \brief Manages per-query-function sketches over one table.
class SketchCatalog {
 public:
  /// \brief The engine (and its table) must outlive the catalog.
  SketchCatalog(const ExactEngine* engine, Advisor advisor,
                NeuroSketchConfig config)
      : engine_(engine), advisor_(advisor), config_(std::move(config)) {}

  /// \brief Maintenance: estimate the query function's AQC from a sampled
  /// workload; build and register a sketch when the advisor approves.
  /// Returns what happened either way.
  Result<CatalogEntryInfo> Register(const QueryFunctionSpec& spec,
                                    WorkloadGenerator* workload,
                                    size_t num_train);

  /// \brief True when a sketch exists for this query function.
  bool Has(const QueryFunctionSpec& spec) const;

  /// \brief The sketch built for this query function, or nullptr. Shared
  /// ownership lets callers (e.g. serve/SketchStore) keep serving a sketch
  /// even if the catalog later rebuilds the entry.
  std::shared_ptr<const NeuroSketch> Find(const QueryFunctionSpec& spec) const;

  /// \brief Query dispatch: the sketch when present AND the advisor's
  /// per-instance rule passes; otherwise the exact engine.
  HybridExecutor::Answer Execute(const QueryFunctionSpec& spec,
                                 const QueryInstance& q) const;

  /// \brief Registered entries (built or rejected), for inspection.
  std::vector<CatalogEntryInfo> Entries() const;

  /// \brief Every built sketch with its key, for export into a serving
  /// store (serve/SketchStore::ImportFromCatalog).
  std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
  Sketches() const;

  /// \brief Pack every built sketch into a paged catalog file at `path`
  /// (WritePagedCatalog over Sketches()).
  Status PackTo(const std::string& path) const {
    return WritePagedCatalog(path, Sketches());
  }

  size_t num_sketches() const { return sketches_.size(); }
  size_t TotalSizeBytes() const;

 private:
  const ExactEngine* engine_;
  Advisor advisor_;
  NeuroSketchConfig config_;
  std::map<QueryFunctionKey, std::shared_ptr<const NeuroSketch>> sketches_;
  std::map<QueryFunctionKey, CatalogEntryInfo> info_;
};

}  // namespace neurosketch

#endif  // NEUROSKETCH_CORE_CATALOG_H_
