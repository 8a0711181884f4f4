#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>

namespace neurosketch {
namespace nn {

namespace {

constexpr uint32_t kMagic = 0x4e534b31;  // "NSK1"
constexpr uint32_t kVersion = 1;

void WriteU32(std::ostream* out, uint32_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WriteU64(std::ostream* out, uint64_t v) {
  out->write(reinterpret_cast<const char*>(&v), sizeof(v));
}
bool ReadU32(std::istream* in, uint32_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}
bool ReadU64(std::istream* in, uint64_t* v) {
  in->read(reinterpret_cast<char*>(v), sizeof(*v));
  return in->good();
}

void WriteHeader(const MlpConfig& cfg, std::ostream* out) {
  WriteU32(out, kMagic);
  WriteU32(out, kVersion);
  WriteU64(out, cfg.in_dim);
  WriteU64(out, cfg.out_dim);
  WriteU32(out, static_cast<uint32_t>(cfg.hidden_act));
  WriteU64(out, cfg.hidden.size());
  for (size_t h : cfg.hidden) WriteU64(out, h);
}

Result<MlpConfig> ReadHeader(std::istream* in) {
  uint32_t magic = 0, version = 0, act = 0;
  uint64_t in_dim = 0, out_dim = 0, n_hidden = 0;
  if (!ReadU32(in, &magic) || magic != kMagic) {
    return Status::InvalidArgument("bad magic in model stream");
  }
  if (!ReadU32(in, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported model version");
  }
  if (!ReadU64(in, &in_dim) || !ReadU64(in, &out_dim) || !ReadU32(in, &act) ||
      !ReadU64(in, &n_hidden)) {
    return Status::IOError("truncated model header");
  }
  if (act > static_cast<uint32_t>(Activation::kSigmoid)) {
    return Status::InvalidArgument("unknown activation id in model stream");
  }
  MlpConfig cfg;
  cfg.in_dim = in_dim;
  cfg.out_dim = out_dim;
  cfg.hidden_act = static_cast<Activation>(act);
  for (uint64_t i = 0; i < n_hidden; ++i) {
    uint64_t h = 0;
    if (!ReadU64(in, &h)) return Status::IOError("truncated hidden widths");
    cfg.hidden.push_back(h);
  }
  return cfg;
}

}  // namespace

Status SaveMlp(const Mlp& model, std::ostream* out) {
  WriteHeader(model.config(), out);
  for (const auto& layer : model.layers()) {
    out->write(reinterpret_cast<const char*>(layer.weight().data()),
               static_cast<std::streamsize>(layer.weight().size() *
                                            sizeof(double)));
    out->write(reinterpret_cast<const char*>(layer.bias().data()),
               static_cast<std::streamsize>(layer.bias().size() *
                                            sizeof(double)));
  }
  if (!out->good()) return Status::IOError("stream write failed");
  return Status::OK();
}

Status SaveMlpFile(const Mlp& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path);
  return SaveMlp(model, &out);
}

Result<Mlp> LoadMlp(std::istream* in) {
  NS_ASSIGN_OR_RETURN(MlpConfig cfg, ReadHeader(in));
  Mlp model(cfg);
  for (auto& layer : model.layers()) {
    in->read(reinterpret_cast<char*>(layer.weight().data()),
             static_cast<std::streamsize>(layer.weight().size() *
                                          sizeof(double)));
    in->read(reinterpret_cast<char*>(layer.bias().data()),
             static_cast<std::streamsize>(layer.bias().size() *
                                          sizeof(double)));
    if (!in->good()) return Status::IOError("truncated parameter block");
  }
  return model;
}

Result<Mlp> LoadMlpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadMlp(&in);
}

Status SaveCompiledMlp(const CompiledMlp& plan, std::ostream* out) {
  // The flat buffer is already laid out in serialization order (per layer:
  // weights then bias), so the whole parameter block is one write.
  WriteHeader(plan.config(), out);
  out->write(reinterpret_cast<const char*>(plan.params().data()),
             static_cast<std::streamsize>(plan.params().size() *
                                          sizeof(double)));
  if (!out->good()) return Status::IOError("stream write failed");
  return Status::OK();
}

Result<CompiledMlp> LoadCompiledMlp(std::istream* in) {
  NS_ASSIGN_OR_RETURN(MlpConfig cfg, ReadHeader(in));
  // Per layer: in * out weights + out biases. The widths are untrusted:
  // the count is checked for overflow and its block read before the plan
  // is sized.
  uint64_t count = 0, prev = cfg.in_dim;
  bool overflow = false;
  auto add_layer = [&](uint64_t out) {
    uint64_t layer = 0;
    overflow = overflow || __builtin_mul_overflow(prev, out, &layer) ||
               __builtin_add_overflow(layer, out, &layer) ||
               __builtin_add_overflow(count, layer, &count);
    prev = out;
  };
  for (size_t h : cfg.hidden) add_layer(h);
  add_layer(cfg.out_dim);
  if (overflow) return Status::InvalidArgument("model widths overflow");
  std::vector<double> params;
  if (!ReadDoubles(in, count, &params)) {
    return Status::IOError("truncated parameter block");
  }
  CompiledMlp plan = CompiledMlp::FromConfig(cfg);
  plan.mutable_params().swap(params);
  return plan;
}

bool ReadDoubles(std::istream* in, uint64_t count, std::vector<double>* out) {
  constexpr uint64_t kChunk = uint64_t{1} << 16;
  out->clear();
  while (out->size() < count) {
    const size_t have = out->size();
    const size_t n = static_cast<size_t>(std::min(kChunk, count - have));
    out->resize(have + n);
    in->read(reinterpret_cast<char*>(out->data() + have),
             static_cast<std::streamsize>(n * sizeof(double)));
    if (!in->good()) return false;
  }
  return true;
}

size_t SerializedHeaderBytes(const MlpConfig& config) {
  // Mirrors WriteHeader: magic, version, in/out dims, activation, hidden
  // count, then one u64 per hidden width.
  return 2 * sizeof(uint32_t) + 2 * sizeof(uint64_t) + sizeof(uint32_t) +
         sizeof(uint64_t) + config.hidden.size() * sizeof(uint64_t);
}

size_t SerializedModelBytes(const CompiledMlp& plan) {
  return SerializedHeaderBytes(plan.config()) +
         plan.num_params() * sizeof(double);
}

}  // namespace nn
}  // namespace neurosketch
