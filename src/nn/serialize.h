// Binary serialization for trained models. A NeuroSketch is "released"
// instead of the data (paper Sec. 7), so models must round-trip exactly.
#ifndef NEUROSKETCH_NN_SERIALIZE_H_
#define NEUROSKETCH_NN_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/inference_plan.h"
#include "nn/mlp.h"
#include "util/status.h"

namespace neurosketch {
namespace nn {

/// \brief Write the architecture and all parameters to a stream.
/// Format: magic, version, in/out dims, hidden widths, activation,
/// raw little-endian doubles.
Status SaveMlp(const Mlp& model, std::ostream* out);
Status SaveMlpFile(const Mlp& model, const std::string& path);

/// \brief Reconstruct a model saved with SaveMlp. Parameters round-trip
/// bit-exactly.
Result<Mlp> LoadMlp(std::istream* in);
Result<Mlp> LoadMlpFile(const std::string& path);

/// \brief Compiled-plan serialization. Byte-identical to SaveMlp/LoadMlp
/// (a plan's flat buffer *is* the serialized parameter block), so plans
/// and Mlps are interchangeable on disk; the plan path streams all
/// parameters with a single contiguous read/write. LoadCompiledMlp reads
/// the parameter block before it sizes the plan, so widths from a corrupt
/// header fail with a Status, not an allocation.
Status SaveCompiledMlp(const CompiledMlp& plan, std::ostream* out);
Result<CompiledMlp> LoadCompiledMlp(std::istream* in);

/// \brief Read `count` raw doubles into `out`, growing it one bounded
/// chunk at a time. For counts read from untrusted bytes: a corrupt count
/// fails on the first short read (returns false) having allocated at
/// most one chunk more than the stream holds.
bool ReadDoubles(std::istream* in, uint64_t count, std::vector<double>* out);

/// \brief Exact number of bytes SaveMlp/SaveCompiledMlp writes for a model
/// with this architecture, header included. Lets size accounting
/// (NeuroSketch::SizeBytes) agree byte-for-byte with the save path.
size_t SerializedHeaderBytes(const MlpConfig& config);
size_t SerializedModelBytes(const CompiledMlp& plan);

}  // namespace nn
}  // namespace neurosketch

#endif  // NEUROSKETCH_NN_SERIALIZE_H_
