#include "core/catalog.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <streambuf>
#include <utility>

#include "query/predicate.h"

namespace neurosketch {

namespace {

// "NSPCAT01" little-endian; bumped if the index layout ever changes.
constexpr uint64_t kPagedCatalogMagic = 0x313054414350534eULL;

template <typename T>
void WriteRaw(std::ostream* out, const T& v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}

// One index slot's serialized footprint: name_len + name + agg + measure
// + offset + size. Needed up front so blob offsets can be precomputed.
constexpr size_t kIndexEntryFixedBytes =
    sizeof(uint64_t) + sizeof(uint32_t) + 3 * sizeof(uint64_t);

size_t IndexEntryBytes(const QueryFunctionKey& key) {
  return kIndexEntryFixedBytes + key.predicate_name.size();
}

/// Reads exactly `n` bytes at `offset`, retrying short reads and EINTR.
/// False on a read error or end of file.
bool PreadFull(int fd, char* out, size_t n, uint64_t offset) {
  while (n > 0) {
    const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    n -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return true;
}

bool InFile(const PagedCatalogEntry& e, uint64_t file_size) {
  return e.offset <= file_size && e.size_bytes <= file_size - e.offset;
}

/// Sequential reads from the start of a file of known size; a read past
/// that size fails before touching the file. The index parse of
/// PagedCatalogReader::Open.
class IndexCursor {
 public:
  IndexCursor(int fd, uint64_t size) : fd_(fd), size_(size) {}

  /// Bytes of the file not yet consumed.
  uint64_t left() const { return size_ - pos_; }

  bool Read(void* dst, uint64_t n) {
    if (n > left() || !PreadFull(fd_, static_cast<char*>(dst), n, pos_)) {
      return false;
    }
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadRaw(T* v) {
    return Read(v, sizeof(*v));
  }

 private:
  const int fd_;
  const uint64_t size_;
  uint64_t pos_ = 0;
};

/// A read-only streambuf over bytes owned elsewhere, so LoadFrom parses a
/// sketch image in place. Reading past the end is a clean EOF, as for a
/// standalone file (LoadFrom's trailer probe relies on that).
class ImageBuf : public std::streambuf {
 public:
  ImageBuf(char* data, size_t n) { setg(data, data, data + n); }
};

}  // namespace

QueryFunctionKey QueryFunctionKey::From(const QueryFunctionSpec& spec) {
  QueryFunctionKey key;
  key.predicate_name = spec.predicate ? spec.predicate->name() : "";
  key.agg = spec.agg;
  key.measure_col = spec.measure_col;
  return key;
}

Result<CatalogEntryInfo> SketchCatalog::Register(
    const QueryFunctionSpec& spec, WorkloadGenerator* workload,
    size_t num_train) {
  if (spec.predicate == nullptr) {
    return Status::InvalidArgument("spec has no predicate");
  }
  const QueryFunctionKey key = QueryFunctionKey::From(spec);
  CatalogEntryInfo info;
  info.key = key;

  std::vector<QueryInstance> queries =
      workload->GenerateMany(num_train, engine_, &spec);
  std::vector<double> answers = engine_->AnswerBatch(spec, queries);
  info.normalized_aqc = Advisor::EstimateNormalizedAqc(queries, answers);

  if (!advisor_.ShouldBuild(info.normalized_aqc)) {
    info.built = false;
    info_[key] = info;
    return info;
  }
  NS_ASSIGN_OR_RETURN(NeuroSketch sketch,
                      NeuroSketch::Train(queries, answers, config_));
  info.built = true;
  info.size_bytes = sketch.SizeBytes();
  sketches_.insert_or_assign(
      key, std::make_shared<const NeuroSketch>(std::move(sketch)));
  info_[key] = info;
  return info;
}

bool SketchCatalog::Has(const QueryFunctionSpec& spec) const {
  return sketches_.count(QueryFunctionKey::From(spec)) > 0;
}

std::shared_ptr<const NeuroSketch> SketchCatalog::Find(
    const QueryFunctionSpec& spec) const {
  auto it = sketches_.find(QueryFunctionKey::From(spec));
  return it == sketches_.end() ? nullptr : it->second;
}

HybridExecutor::Answer SketchCatalog::Execute(const QueryFunctionSpec& spec,
                                              const QueryInstance& q) const {
  HybridExecutor::Answer out;
  auto it = sketches_.find(QueryFunctionKey::From(spec));
  const size_t data_dim = engine_->num_columns();
  if (it != sketches_.end() && advisor_.ShouldUseSketch(q, data_dim)) {
    out.value = it->second->Answer(q);
    out.used_sketch = true;
    if (!std::isnan(out.value)) return out;
  }
  out.value = engine_->Answer(spec, q);
  out.used_sketch = false;
  return out;
}

std::vector<CatalogEntryInfo> SketchCatalog::Entries() const {
  std::vector<CatalogEntryInfo> out;
  out.reserve(info_.size());
  for (const auto& [key, info] : info_) out.push_back(info);
  return out;
}

std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
SketchCatalog::Sketches() const {
  std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
      out;
  out.reserve(sketches_.size());
  for (const auto& [key, sketch] : sketches_) out.emplace_back(key, sketch);
  return out;
}

size_t SketchCatalog::TotalSizeBytes() const {
  size_t bytes = 0;
  for (const auto& [key, sketch] : sketches_) bytes += sketch->SizeBytes();
  return bytes;
}

Status WritePagedCatalog(
    const std::string& path,
    const std::vector<std::pair<QueryFunctionKey,
                                std::shared_ptr<const NeuroSketch>>>&
        sketches) {
  for (const auto& [key, sketch] : sketches) {
    (void)key;
    if (sketch == nullptr) {
      return Status::InvalidArgument("paged catalog: null sketch");
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open for write: " + path);
  }
  // Precompute the blob offsets: header + full index, then the images
  // back to back. SizeBytes() is pinned (by serialization_test) to equal
  // Save()'s byte count exactly, which is what makes this single-pass.
  size_t cursor = 2 * sizeof(uint64_t);
  for (const auto& [key, sketch] : sketches) {
    (void)sketch;
    cursor += IndexEntryBytes(key);
  }
  WriteRaw(&out, kPagedCatalogMagic);
  WriteRaw(&out, static_cast<uint64_t>(sketches.size()));
  for (const auto& [key, sketch] : sketches) {
    const uint64_t name_len = key.predicate_name.size();
    WriteRaw(&out, name_len);
    out.write(key.predicate_name.data(),
              static_cast<std::streamsize>(name_len));
    WriteRaw(&out, static_cast<uint32_t>(key.agg));
    WriteRaw(&out, static_cast<uint64_t>(key.measure_col));
    WriteRaw(&out, static_cast<uint64_t>(cursor));
    const uint64_t size = sketch->SizeBytes();
    WriteRaw(&out, size);
    cursor += size;
  }
  for (const auto& [key, sketch] : sketches) {
    const auto before = out.tellp();
    NS_RETURN_NOT_OK(sketch->SaveTo(&out));
    const auto written = out.tellp() - before;
    if (written != static_cast<std::streamoff>(sketch->SizeBytes())) {
      return Status::Unknown(
          "paged catalog: SizeBytes drifted from Save for predicate '" +
          key.predicate_name + "' (" + std::to_string(written) + " vs " +
          std::to_string(sketch->SizeBytes()) + " bytes)");
    }
  }
  out.flush();
  if (!out.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

PagedCatalogReader::File::~File() {
  if (fd >= 0) ::close(fd);
}

Result<PagedCatalogReader> PagedCatalogReader::Open(const std::string& path) {
  auto file = std::make_shared<File>();
  file->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file->fd < 0) {
    return Status::IOError("cannot open for read: " + path);
  }
  struct stat st;
  if (::fstat(file->fd, &st) != 0) {
    return Status::IOError("cannot stat: " + path);
  }
  file->size = static_cast<uint64_t>(st.st_size);
  const uint64_t file_size = file->size;
  IndexCursor in(file->fd, file_size);
  uint64_t magic = 0;
  uint64_t count = 0;
  if (!in.ReadRaw(&magic) || magic != kPagedCatalogMagic) {
    return Status::InvalidArgument("not a paged catalog: " + path);
  }
  if (!in.ReadRaw(&count)) {
    return Status::IOError("truncated paged catalog index: " + path);
  }
  // Every length below is checked against the bytes left before it sizes
  // an allocation: the index is untrusted.
  if (count > in.left() / kIndexEntryFixedBytes) {
    return Status::InvalidArgument(
        "corrupt paged catalog index: " + std::to_string(count) +
        " entries claimed, file has room for at most " +
        std::to_string(in.left() / kIndexEntryFixedBytes) + ": " + path);
  }
  PagedCatalogReader reader;
  reader.path_ = path;
  reader.entries_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PagedCatalogEntry entry;
    uint64_t name_len = 0;
    if (!in.ReadRaw(&name_len)) {
      return Status::IOError("truncated paged catalog index: " + path);
    }
    if (name_len > in.left()) {
      return Status::InvalidArgument(
          "corrupt paged catalog index: name length " +
          std::to_string(name_len) + " exceeds the " +
          std::to_string(in.left()) + " bytes left: " + path);
    }
    entry.key.predicate_name.resize(name_len);
    uint32_t agg = 0;
    uint64_t measure_col = 0;
    if (!in.Read(entry.key.predicate_name.data(), name_len) ||
        !in.ReadRaw(&agg) || !in.ReadRaw(&measure_col) ||
        !in.ReadRaw(&entry.offset) || !in.ReadRaw(&entry.size_bytes)) {
      return Status::IOError("truncated paged catalog index: " + path);
    }
    if (!InFile(entry, file_size)) {
      return Status::InvalidArgument(
          "corrupt paged catalog index: entry " + std::to_string(i) +
          " (offset " + std::to_string(entry.offset) + ", " +
          std::to_string(entry.size_bytes) + " bytes) lies past the " +
          std::to_string(file_size) + "-byte file: " + path);
    }
    entry.key.agg = static_cast<Aggregate>(agg);
    entry.key.measure_col = measure_col;
    reader.entries_.push_back(std::move(entry));
  }
  reader.file_ = std::move(file);
  return reader;
}

Result<NeuroSketch> PagedCatalogReader::LoadEntry(
    const PagedCatalogEntry& entry) const {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("paged catalog reader is not open");
  }
  if (!InFile(entry, file_->size)) {
    return Status::InvalidArgument("sketch image at offset " +
                                   std::to_string(entry.offset) +
                                   " lies past the end of " + path_);
  }
  // One positioned read into this thread's image buffer (its capacity is
  // reused across fault-ins); pread leaves no shared file position, so
  // concurrent pool loaders need no lock.
  thread_local std::vector<char> image;
  image.resize(entry.size_bytes);
  if (!PreadFull(file_->fd, image.data(), image.size(), entry.offset)) {
    return Status::IOError("truncated sketch image at offset " +
                           std::to_string(entry.offset) + " in " + path_);
  }
  ImageBuf buf(image.data(), image.size());
  std::istream in(&buf);
  return NeuroSketch::LoadFrom(&in);
}

}  // namespace neurosketch
