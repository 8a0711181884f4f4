// Compiled zero-allocation inference plans. A trained Mlp is a training
// structure: per-layer Matrix objects, cached activations, gradient
// buffers. CompiledMlp is its serving form — all layer weights and biases
// packed into one contiguous flat buffer (in serialization order: per
// layer, weights then bias) plus fixed layer metadata — executed with the
// fused GEMM+bias+activation kernel (tensor/matrix.h) against a reusable
// Workspace arena. After warm-up a forward pass performs zero heap
// allocations and is bit-identical to Mlp::Predict / Mlp::PredictOne.
//
// CompiledMlpF32 is the opt-in single-precision tier: the same flat-buffer
// layout narrowed to float (half the footprint, twice the SIMD lanes). It
// is NOT bit-identical to the f64 reference; core/NeuroSketch validates
// its divergence against an error bound before serving from it.
#ifndef NEUROSKETCH_NN_INFERENCE_PLAN_H_
#define NEUROSKETCH_NN_INFERENCE_PLAN_H_

#include <cstddef>
#include <vector>

#include "nn/mlp.h"

namespace neurosketch {
namespace nn {

/// \brief Per-layer geometry of a compiled plan: shapes, flat-buffer
/// offsets, and the activation. Shared by the f64 and f32 tiers (offsets
/// are element counts, so they are precision-agnostic).
struct PlanLayer {
  size_t in = 0, out = 0;
  size_t w_off = 0, b_off = 0;  // offsets into the flat parameter buffer
  Activation act = Activation::kIdentity;
};

/// \brief Reusable scratch arena for compiled-plan execution. Buffers grow
/// monotonically and are never shrunk, so a serving thread stops allocating
/// once it has seen its largest batch. Not thread-safe; use ThreadLocal()
/// (one arena per thread) or own one per worker.
class Workspace {
 public:
  /// \brief Ping/pong layer-activation buffers of at least n doubles each.
  double* Ping(size_t n) { return Ensure(&ping_, n); }
  double* Pong(size_t n) { return Ensure(&pong_, n); }
  /// \brief Input-marshalling buffer (batch gather) of at least n doubles.
  double* Input(size_t n) { return Ensure(&input_, n); }
  /// \brief Output staging buffer of at least n doubles.
  double* Output(size_t n) { return Ensure(&output_, n); }

  /// \brief Single-precision twins for the f32 plan tier.
  float* PingF(size_t n) { return Ensure(&ping_f_, n); }
  float* PongF(size_t n) { return Ensure(&pong_f_, n); }
  float* InputF(size_t n) { return Ensure(&input_f_, n); }
  float* OutputF(size_t n) { return Ensure(&output_f_, n); }

  /// \brief Per-leaf bucketing scratch for vectorized batch answering: at
  /// least n index buckets, the first n cleared (capacity retained), so a
  /// warm thread re-buckets arbitrarily many batches without allocating.
  std::vector<std::vector<size_t>>& Buckets(size_t n) {
    if (buckets_.size() < n) buckets_.resize(n);
    for (size_t i = 0; i < n; ++i) buckets_[i].clear();
    return buckets_;
  }

  /// \brief The calling thread's arena (constructed on first use).
  static Workspace& ThreadLocal();

 private:
  template <typename T>
  static T* Ensure(std::vector<T>* v, size_t n) {
    if (v->size() < n) v->resize(n);
    return v->data();
  }
  std::vector<double> ping_, pong_, input_, output_;
  std::vector<float> ping_f_, pong_f_, input_f_, output_f_;
  std::vector<std::vector<size_t>> buckets_;
};

/// \brief Execution plan compiled from a trained Mlp: flat parameter
/// buffer + per-layer geometry, no per-call allocation, enum-dispatched
/// activations. Parameters are bit-identical copies of the source model.
class CompiledMlp {
 public:
  CompiledMlp() = default;

  /// \brief Pack `model`'s parameters into a plan.
  static CompiledMlp FromMlp(const Mlp& model);

  /// \brief Lay out a plan for `config` with zeroed parameters; the caller
  /// fills params() afterwards (deserialization path).
  static CompiledMlp FromConfig(const MlpConfig& config);

  /// \brief Reconstruct the trainable form; parameters round-trip
  /// bit-exactly. Used to rehydrate the scalar reference path after Load.
  Mlp ToMlp() const;

  /// \brief Single-input forward pass; x has in_dim() doubles. Zero heap
  /// allocations once `ws` is warm. out_dim() must be 1.
  double PredictOne(const double* x, Workspace* ws) const;

  /// \brief Batched forward pass over `rows` row-major inputs
  /// (rows x in_dim); writes rows x out_dim results to `out`. out must not
  /// alias x. Bit-identical to Mlp::Predict on the same batch.
  void PredictBatch(const double* x, size_t rows, Workspace* ws,
                    double* out) const;

  bool empty() const { return layers_.empty(); }
  size_t in_dim() const { return config_.in_dim; }
  size_t out_dim() const { return config_.out_dim; }
  size_t num_params() const { return params_.size(); }
  size_t SizeBytes() const { return params_.size() * sizeof(double); }
  const MlpConfig& config() const { return config_; }
  const std::vector<PlanLayer>& layers() const { return layers_; }
  size_t max_width() const { return max_width_; }

  /// \brief Flat parameter buffer in serialization order (per layer:
  /// weights row-major, then bias) — what SaveCompiledMlp streams.
  const std::vector<double>& params() const { return params_; }
  std::vector<double>& mutable_params() { return params_; }

 private:
  MlpConfig config_;
  std::vector<PlanLayer> layers_;
  std::vector<double> params_;
  size_t max_width_ = 0;  // widest layer output, sizes the ping/pong pair
};

/// \brief Single-precision clone of a CompiledMlp: the same flat-buffer
/// layout with every parameter narrowed to float (round-to-nearest, a
/// deterministic function of the f64 plan, so rebuilding from the f64
/// reference always reproduces the same f32 plan). Inputs arrive as
/// doubles and are narrowed into the arena; the result is widened back to
/// double. Zero heap allocations once the workspace is warm.
class CompiledMlpF32 {
 public:
  CompiledMlpF32() = default;

  /// \brief Narrow `plan`'s parameters into an f32 plan.
  static CompiledMlpF32 FromPlan(const CompiledMlp& plan);

  /// \brief Single-input forward pass; x has in_dim() doubles.
  double PredictOne(const double* x, Workspace* ws) const;

  /// \brief Batched forward pass over `rows` row-major double inputs;
  /// widens the rows x out_dim float results into `out`. Row r is
  /// bit-identical to PredictOne on row r (same float accumulation order).
  void PredictBatch(const double* x, size_t rows, Workspace* ws,
                    double* out) const;

  /// \brief Batched forward pass whose inputs are already float — the
  /// batched serving path gathers bucket inputs straight into the float
  /// arena, skipping the per-call f64 staging buffer and its narrowing
  /// pass. Same bits as PredictBatch on the same (narrowed) inputs. x may
  /// be the workspace's InputF buffer.
  void PredictBatchF32In(const float* x, size_t rows, Workspace* ws,
                         double* out) const;

  bool empty() const { return layers_.empty(); }
  size_t in_dim() const { return config_.in_dim; }
  size_t out_dim() const { return config_.out_dim; }
  size_t num_params() const { return params_.size(); }
  /// \brief Resident flat-buffer footprint — half the f64 plan's.
  size_t SizeBytes() const { return params_.size() * sizeof(float); }
  const MlpConfig& config() const { return config_; }

 private:
  MlpConfig config_;
  std::vector<PlanLayer> layers_;
  std::vector<float> params_;
  size_t max_width_ = 0;
};

}  // namespace nn
}  // namespace neurosketch

#endif  // NEUROSKETCH_NN_INFERENCE_PLAN_H_
