#include "core/neurosketch.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "nn/serialize.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace neurosketch {

namespace {

// Trailer appended after the model blocks by Save(): precision tier plus
// the f32 validation record. Sketches written before the trailer existed
// simply end at the last model; Load treats that as f64. Flag bits in the
// precision word: bit 0 = f32 active, bit 1 = f32 plans compiled. Bits 2
// (int8 active) and 3 (int8 plans compiled) belong to the retired int8
// tier: Save never sets them, and Load reads and drops the calibration
// block that follows them in older images.
constexpr uint32_t kPrecisionMagic = 0x4e535031;  // "NSP1"
constexpr size_t kPrecisionTrailerBytes =
    2 * sizeof(uint32_t) + 2 * sizeof(double);

bool EnvFlagSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Trains one leaf's MLP on its standardized targets (Train and
// RetrainLeaves share it, which is what makes a retrained leaf
// bit-identical to a clean rebuild) and returns its compiled f64 plan;
// the trainable form is dropped. `ids` index `qs`/`as`; an empty leaf
// keeps mean 0 / scale 1 and its plan predicts the initialization's
// output.
nn::CompiledMlp TrainLeaf(int id, const std::vector<size_t>& ids,
                          const std::vector<QueryInstance>& qs,
                          const std::vector<double>& as,
                          const NeuroSketchConfig& config, size_t qdim,
                          double* mean_out, double* scale_out) {
  nn::Mlp model(nn::MlpConfig::Paper(qdim, config.n_layers, config.l_first,
                                     config.l_rest),
                config.seed + id);
  *mean_out = 0.0;
  *scale_out = 1.0;
  if (!ids.empty()) {
    // Per-leaf target standardization keeps the MSE well-scaled across
    // query functions with very different answer magnitudes.
    std::vector<double> targets;
    targets.reserve(ids.size());
    for (size_t i : ids) targets.push_back(as[i]);
    const double mean = stats::Mean(targets);
    double scale = stats::Stddev(targets);
    if (scale <= 1e-12) scale = 1.0;
    *mean_out = mean;
    *scale_out = scale;

    Matrix inputs(ids.size(), qdim);
    Matrix outputs(ids.size(), 1);
    for (size_t i = 0; i < ids.size(); ++i) {
      const auto& q = qs[ids[i]];
      for (size_t jj = 0; jj < qdim; ++jj) inputs(i, jj) = q.q[jj];
      outputs(i, 0) = (as[ids[i]] - mean) / scale;
    }
    nn::TrainConfig tc = config.train;
    tc.seed = config.train.seed + static_cast<uint64_t>(id) * 1000003ULL;
    nn::TrainRegressor(&model, inputs, outputs, tc);
  }
  return nn::CompiledMlp::FromMlp(model);
}

// Result of a validation replay: worst divergence seen and how many
// queries actually contributed a measurement.
struct DivergenceRecord {
  double max_div = 0.0;
  size_t measured = 0;
};

// Sharded max-divergence reduction of the f32 validation replay.
// `fn(v, &div)` measures query v (returning false to skip it);
// queries shard into contiguous ranges, each shard keeps a local record,
// and the shards fold in fixed order below. max and + are exact
// reductions, so the result is bit-identical to a serial sweep for any
// shard layout — the determinism contract construction_parallel_test
// pins.
template <typename PerQuery>
DivergenceRecord ShardedMaxDivergence(size_t n, size_t num_threads,
                                      const PerQuery& fn) {
  ThreadPool& pool = ThreadPool::Shared();
  const size_t shards = pool.NumShards(n, num_threads);
  std::vector<DivergenceRecord> partial(shards);
  pool.ParallelForShards(n, num_threads,
                         [&](size_t s, size_t begin, size_t end) {
                           DivergenceRecord local;
                           for (size_t v = begin; v < end; ++v) {
                             double div;
                             if (!fn(v, &div)) continue;
                             if (div > local.max_div) local.max_div = div;
                             ++local.measured;
                           }
                           partial[s] = local;
                         });
  DivergenceRecord total;
  for (const DivergenceRecord& p : partial) {
    if (p.max_div > total.max_div) total.max_div = p.max_div;
    total.measured += p.measured;
  }
  return total;
}

}  // namespace

const char* PlanPrecisionName(PlanPrecision p) {
  return p == PlanPrecision::kF32 ? "f32" : "f64";
}

// CI hook: NEUROSKETCH_FORCE_F32_PLANS=1 upgrades default-precision
// training to the f32 tier so the whole test suite exercises it.
bool ForceF32PlansFromEnv() {
  return EnvFlagSet("NEUROSKETCH_FORCE_F32_PLANS");
}

Result<NeuroSketch> NeuroSketch::Train(
    const std::vector<QueryInstance>& queries,
    const std::vector<double>& answers, const NeuroSketchConfig& config) {
  if (queries.size() != answers.size()) {
    return Status::InvalidArgument("queries/answers size mismatch");
  }
  // Drop undefined answers (e.g. AVG over an empty range).
  std::vector<QueryInstance> q_ok;
  std::vector<double> a_ok;
  q_ok.reserve(queries.size());
  a_ok.reserve(answers.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (std::isnan(answers[i])) continue;
    q_ok.push_back(queries[i]);
    a_ok.push_back(answers[i]);
  }
  if (q_ok.size() < 2) {
    return Status::InvalidArgument("need at least 2 defined training answers");
  }
  const size_t qdim = q_ok[0].dim();
  for (const auto& q : q_ok) {
    if (q.dim() != qdim) {
      return Status::InvalidArgument("inconsistent query dimensionality");
    }
  }

  NeuroSketch sketch;
  sketch.stats_.training_queries = q_ok.size();

  Timer part_timer;
  PartitionConfig pc;
  pc.tree_height = config.tree_height;
  pc.target_leaves = config.target_partitions;
  pc.aqc = config.aqc;
  pc.num_threads = config.train_threads;
  PartitionResult partition = PartitionQuerySpace(q_ok, a_ok, pc);
  sketch.tree_ = std::move(partition.tree);
  sketch.routing_doubles_ = sketch.tree_.EncodeRouting().size();
  sketch.stats_.leaf_aqc = std::move(partition.leaf_aqc);
  sketch.stats_.partition_seconds = part_timer.ElapsedSeconds();

  Timer train_timer;
  auto leaves = sketch.tree_.Leaves();
  sketch.stats_.num_partitions = leaves.size();
  sketch.plans_.resize(leaves.size());
  sketch.target_mean_.assign(leaves.size(), 0.0);
  sketch.target_scale_.assign(leaves.size(), 1.0);

  // Leaf models are independent: each derives its init and shuffle seeds
  // from its leaf id alone and writes only its own slots, so training them
  // concurrently on the shared pool reproduces the sequential build
  // bit-for-bit regardless of thread count or completion order.
  ThreadPool::Shared().ParallelFor(
      leaves.size(), config.train_threads, [&](size_t li) {
        const int id = leaves[li]->leaf_id;
        sketch.plans_[id] = TrainLeaf(
            id, leaves[li]->query_ids, q_ok, a_ok, config, qdim,
            &sketch.target_mean_[id], &sketch.target_scale_[id]);
      });
  sketch.stats_.train_seconds = train_timer.ElapsedSeconds();

  if (config.plan_precision == PlanPrecision::kF32 || ForceF32PlansFromEnv()) {
    Timer calib_timer;
    // Compile the f32 tier and validate it over the training workload; on
    // a blown error bound EnableF32 leaves the sketch serving f64.
    sketch.EnableF32(q_ok, config.f32_error_bound, config.train_threads);
    sketch.stats_.calibrate_seconds = calib_timer.ElapsedSeconds();
  }
  return sketch;
}

Status NeuroSketch::RetrainLeaves(const std::vector<int>& leaf_ids,
                                  const std::vector<QueryInstance>& queries,
                                  const std::vector<double>& answers,
                                  const NeuroSketchConfig& config) {
  if (!compiled()) {
    return Status::InvalidArgument("RetrainLeaves on an untrained sketch");
  }
  if (queries.size() != answers.size()) {
    return Status::InvalidArgument("queries/answers size mismatch");
  }
  std::vector<char> wanted(plans_.size(), 0);
  std::vector<int> ids;
  for (int id : leaf_ids) {
    if (id < 0 || static_cast<size_t>(id) >= plans_.size()) {
      return Status::InvalidArgument("leaf id out of range");
    }
    if (!wanted[id]) {
      wanted[id] = 1;
      ids.push_back(id);
    }
  }
  if (ids.empty()) return Status::OK();

  const size_t qdim = tree_.query_dim();
  std::vector<QueryInstance> q_ok;
  std::vector<double> a_ok;
  q_ok.reserve(queries.size());
  a_ok.reserve(answers.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (std::isnan(answers[i])) continue;
    if (queries[i].dim() != qdim) {
      return Status::InvalidArgument("inconsistent query dimensionality");
    }
    q_ok.push_back(queries[i]);
    a_ok.push_back(answers[i]);
  }
  if (q_ok.size() < 2) {
    return Status::InvalidArgument("need at least 2 defined training answers");
  }

  // Re-gather each retrained leaf's training set by routing through the
  // FIXED tree — the partition is untouched, which is the whole point of
  // a leaf-granular refresh (readers keep routing identically; only the
  // flagged leaves' parameters move).
  std::vector<std::vector<size_t>> members(plans_.size());
  for (size_t i = 0; i < q_ok.size(); ++i) {
    const auto* leaf = tree_.Route(q_ok[i]);
    if (leaf == nullptr || leaf->leaf_id < 0 ||
        static_cast<size_t>(leaf->leaf_id) >= plans_.size()) {
      continue;
    }
    if (wanted[leaf->leaf_id]) members[leaf->leaf_id].push_back(i);
  }

  // Train's per-leaf step (TrainLeaf): retraining a leaf here is
  // bit-identical to a clean rebuild of that leaf over the same partition
  // and training set.
  ThreadPool::Shared().ParallelFor(
      ids.size(), config.train_threads, [&](size_t k) {
        const int id = ids[k];
        plans_[id] = TrainLeaf(id, members[id], q_ok, a_ok, config, qdim,
                               &target_mean_[id], &target_scale_[id]);
      });

  // The f32 tier was validated against the OLD leaf parameters; serving it
  // over the new ones would be unvalidated. Drop it and re-run the same
  // validate-or-fallback step as Train — the divergence record is
  // whole-sketch state, so the replay covers every leaf, not just the
  // retrained ones.
  std::vector<nn::CompiledMlpF32>().swap(plans_f32_);
  f32_available_ = false;
  precision_ = PlanPrecision::kF64;
  if (config.plan_precision == PlanPrecision::kF32 || ForceF32PlansFromEnv()) {
    EnableF32(q_ok, config.f32_error_bound, config.train_threads);
  }
  return Status::OK();
}

Result<NeuroSketch> NeuroSketch::TrainFromEngine(
    const ExactEngine& engine, const QueryFunctionSpec& spec,
    WorkloadGenerator* workload, size_t num_train,
    const NeuroSketchConfig& config) {
  std::vector<QueryInstance> queries =
      workload->GenerateMany(num_train, &engine, &spec);
  std::vector<double> answers = engine.AnswerBatch(spec, queries);
  return Train(queries, answers, config);
}

bool NeuroSketch::EnableF32(const std::vector<QueryInstance>& validation,
                            double error_bound, size_t num_threads) {
  if (!compiled()) return false;
  // Per-leaf narrowing is independent and deterministic; compile the tier
  // concurrently on the shared pool.
  ThreadPool& pool = ThreadPool::Shared();
  plans_f32_.resize(plans_.size());
  pool.ParallelFor(plans_.size(), num_threads, [&](size_t i) {
    plans_f32_[i] = nn::CompiledMlpF32::FromPlan(plans_[i]);
  });
  // Measure the worst |f32 - f64| divergence in standardized units (the
  // raw network output, before per-leaf rescaling) so the bound does not
  // depend on the magnitude of the query function's answers. Sharded
  // replay; bit-identical to serial (see ShardedMaxDivergence).
  const DivergenceRecord rec = ShardedMaxDivergence(
      validation.size(), num_threads, [&](size_t v, double* div) {
        const auto& q = validation[v];
        const auto* leaf = tree_.Route(q);
        if (leaf == nullptr || leaf->leaf_id < 0 ||
            static_cast<size_t>(leaf->leaf_id) >= plans_.size()) {
          return false;
        }
        const int id = leaf->leaf_id;
        nn::Workspace& ws = nn::Workspace::ThreadLocal();
        const double raw64 = plans_[id].PredictOne(q.q.data(), &ws);
        const double raw32 = plans_f32_[id].PredictOne(q.q.data(), &ws);
        *div = std::fabs(raw32 - raw64);
        return true;
      });
  const double max_div = rec.max_div;
  const size_t measured = rec.measured;
  f32_error_bound_ = error_bound;
  f32_max_divergence_ = max_div;
  if (measured == 0 || !(max_div <= error_bound)) {
    // Blown bound, NaN divergence, or no validation coverage at all: f32
    // is never served blind — drop the tier, keep serving f64.
    std::vector<nn::CompiledMlpF32>().swap(plans_f32_);
    f32_available_ = false;
    precision_ = PlanPrecision::kF64;
    return false;
  }
  f32_available_ = true;
  precision_ = PlanPrecision::kF32;
  return true;
}

Status NeuroSketch::SelectPrecision(PlanPrecision precision) {
  if (precision == PlanPrecision::kF64) {
    // The f32 tier stays carried; only its plans go.
    std::vector<nn::CompiledMlpF32>().swap(plans_f32_);
  } else {
    if (!f32_available_) {
      return Status::InvalidArgument(
          "no f32 plans compiled: train with plan_precision = kF32 or call "
          "EnableF32");
    }
    if (plans_f32_.empty()) {
      // Deterministic narrowing of the f64 parameters, so the plans match
      // the validated ones bit-for-bit.
      plans_f32_.resize(plans_.size());
      for (size_t i = 0; i < plans_.size(); ++i) {
        plans_f32_[i] = nn::CompiledMlpF32::FromPlan(plans_[i]);
      }
    }
  }
  precision_ = precision;
  return Status::OK();
}

size_t NeuroSketch::ResidentBytes() const {
  size_t bytes = routing_doubles_ * sizeof(double);
  bytes += 2 * plans_.size() * sizeof(double);  // per-leaf mean + scale
  bytes += PlanBytes(PlanPrecision::kF64);
  bytes += PlanBytes(PlanPrecision::kF32);
  return bytes;
}

int NeuroSketch::RouteToModel(const QueryInstance& q) const {
  const auto* leaf = tree_.Route(q);
  if (leaf == nullptr || leaf->leaf_id < 0 ||
      static_cast<size_t>(leaf->leaf_id) >= plans_.size()) {
    return -1;
  }
  return leaf->leaf_id;
}

double NeuroSketch::Answer(const QueryInstance& q) const {
  return AnswerWithModel(q, RouteToModel(q));
}

double NeuroSketch::AnswerWithModel(const QueryInstance& q, int id) const {
  if (id < 0) return std::nan("");
  nn::Workspace& ws = nn::Workspace::ThreadLocal();
  double raw;
  if (precision_ == PlanPrecision::kF32) {
    raw = plans_f32_[id].PredictOne(q.q.data(), &ws);
  } else {
    raw = plans_[id].PredictOne(q.q.data(), &ws);
  }
  return raw * target_scale_[id] + target_mean_[id];
}

double NeuroSketch::AnswerScalar(const QueryInstance& q) const {
  const int id = RouteToModel(q);
  if (id < 0) return std::nan("");
  // ToMlp round-trips the f64 parameters bit-exactly, so the rebuilt
  // model answers identically to the one Train compiled.
  const double raw = plans_[id].ToMlp().PredictOne(q.q);
  return raw * target_scale_[id] + target_mean_[id];
}

std::vector<double> NeuroSketch::AnswerBatch(
    const std::vector<QueryInstance>& queries) const {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) out.push_back(Answer(q));
  return out;
}

std::vector<double> NeuroSketch::AnswerBatchVectorized(
    const std::vector<QueryInstance>& queries) const {
  std::vector<double> out(queries.size());
  AnswerBatchVectorizedTo(queries, out.data());
  return out;
}

void NeuroSketch::AnswerBatchVectorizedTo(
    const std::vector<QueryInstance>& queries, double* out,
    int* leaf_ids) const {
  if (queries.empty()) return;
  if (queries.size() == 1) {
    // Serve fast path: a single-query "batch" skips bucket bookkeeping and
    // runs the zero-allocation compiled plan directly.
    const int id = RouteToModel(queries[0]);
    if (leaf_ids != nullptr) leaf_ids[0] = id;
    out[0] = AnswerWithModel(queries[0], id);
    return;
  }
  for (size_t i = 0; i < queries.size(); ++i) out[i] = std::nan("");
  // Bucket query indices by leaf model, staging the buckets in the arena
  // so a warm thread performs zero heap allocations per batch.
  nn::Workspace& ws = nn::Workspace::ThreadLocal();
  std::vector<std::vector<size_t>>& buckets = ws.Buckets(plans_.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const int id = RouteToModel(queries[i]);
    if (leaf_ids != nullptr) leaf_ids[i] = id;
    if (id >= 0) buckets[id].push_back(i);
  }
  const size_t qdim = tree_.query_dim();
  for (size_t m = 0; m < plans_.size(); ++m) {
    const auto& ids = buckets[m];
    if (ids.empty()) continue;
    // Gather the bucket's inputs and stage its predictions in the arena:
    // per-batch cost is bookkeeping only, the model math never allocates.
    // When the f32 tier is active the gather marshals straight into the
    // float arena — casting once per element during the copy instead of
    // staging doubles and re-reading them for a separate narrowing pass
    // (8 fewer bytes of traffic per element, same float bits).
    double* pred = ws.Output(ids.size());
    if (precision_ == PlanPrecision::kF32) {
      float* inputs = ws.InputF(ids.size() * qdim);
      for (size_t r = 0; r < ids.size(); ++r) {
        const auto& q = queries[ids[r]].q;
        float* dst = inputs + r * qdim;
        for (size_t j = 0; j < qdim; ++j) dst[j] = static_cast<float>(q[j]);
      }
      plans_f32_[m].PredictBatchF32In(inputs, ids.size(), &ws, pred);
    } else {
      double* inputs = ws.Input(ids.size() * qdim);
      for (size_t r = 0; r < ids.size(); ++r) {
        const auto& q = queries[ids[r]].q;
        std::copy(q.begin(), q.end(), inputs + r * qdim);
      }
      plans_[m].PredictBatch(inputs, ids.size(), &ws, pred);
    }
    for (size_t r = 0; r < ids.size(); ++r) {
      out[ids[r]] = pred[r] * target_scale_[m] + target_mean_[m];
    }
  }
}

size_t NeuroSketch::PlanBytes(PlanPrecision precision) const {
  size_t bytes = 0;
  if (precision == PlanPrecision::kF32) {
    for (const auto& p : plans_f32_) bytes += p.SizeBytes();
  } else {
    for (const auto& p : plans_) bytes += p.SizeBytes();
  }
  return bytes;
}

void NeuroSketch::ExportBuildMetrics(metrics::MetricsRegistry* registry,
                                     const std::string& prefix) const {
  registry->SetGauge(prefix + "partition_seconds", stats_.partition_seconds,
                     "Construction phase wall time: kd-tree build + AQC merge");
  registry->SetGauge(prefix + "train_seconds", stats_.train_seconds,
                     "Construction phase wall time: per-leaf MLP training");
  registry->SetGauge(prefix + "calibrate_seconds", stats_.calibrate_seconds,
                     "Construction phase wall time: f32 validate replay "
                     "(0 for plain f64)");
  registry->SetGauge(prefix + "num_partitions",
                     static_cast<double>(stats_.num_partitions),
                     "Final leaf count after the AQC merge");
  registry->SetGauge(prefix + "training_queries",
                     static_cast<double>(stats_.training_queries),
                     "Training-set size after NaN drops");
  registry->SetGauge(prefix + "size_bytes", static_cast<double>(SizeBytes()),
                     "Serialized sketch size (the paper's storage metric)");
  registry->SetGauge(prefix + "resident_bytes",
                     static_cast<double>(ResidentBytes()),
                     "In-memory sketch footprint: routing, scales, f64 "
                     "plans, and f32 plans while f32 is active");
  double aqc_max = 0.0, aqc_sum = 0.0;
  for (double a : stats_.leaf_aqc) {
    aqc_sum += a;
    if (a > aqc_max) aqc_max = a;
  }
  registry->SetGauge(prefix + "leaf_aqc_max", aqc_max,
                     "Max per-leaf AQC after merging");
  registry->SetGauge(
      prefix + "leaf_aqc_mean",
      stats_.leaf_aqc.empty() ? 0.0 : aqc_sum / stats_.leaf_aqc.size());
  registry->SetGauge(prefix + "active_precision",
                     static_cast<double>(precision_),
                     "Serving tier: 0 = f64, 1 = f32");
  for (PlanPrecision tier : {PlanPrecision::kF64, PlanPrecision::kF32}) {
    registry->SetGauge(prefix + "plan_bytes{tier=\"" +
                           std::string(PlanPrecisionName(tier)) + "\"}",
                       static_cast<double>(PlanBytes(tier)),
                       "Resident compiled-plan bytes per precision tier");
  }
  // The validate-or-fallback record: an f32 tier whose measured
  // divergence exceeds its bound was dropped (fell back to f64), which
  // reads here as divergence > bound with zero f32 plan bytes.
  registry->SetGauge(prefix + "f32_max_divergence", f32_max_divergence_,
                     "Max |f32 - f64| over the validation workload, "
                     "standardized units");
  registry->SetGauge(prefix + "f32_error_bound", f32_error_bound_);
}

size_t NeuroSketch::SizeBytes() const {
  // Exactly the bytes Save() writes, in the same order: header fields,
  // routing block, per-leaf scales, serialized models, precision trailer.
  size_t bytes = 3 * sizeof(uint64_t);  // qdim, routing size, model count
  bytes += tree_.EncodeRouting().size() * sizeof(double);
  bytes += 2 * plans_.size() * sizeof(double);  // per-leaf mean + scale
  for (const auto& p : plans_) bytes += nn::SerializedModelBytes(p);
  bytes += kPrecisionTrailerBytes;
  return bytes;
}

Status NeuroSketch::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path);
  NS_RETURN_NOT_OK(SaveTo(&out));
  if (!out.good()) return Status::IOError("write failed for " + path);
  return Status::OK();
}

Status NeuroSketch::SaveTo(std::ostream* out_stream) const {
  std::ostream& out = *out_stream;
  const uint64_t qdim = tree_.query_dim();
  out.write(reinterpret_cast<const char*>(&qdim), sizeof(qdim));
  const std::vector<double> routing = tree_.EncodeRouting();
  const uint64_t rsize = routing.size();
  out.write(reinterpret_cast<const char*>(&rsize), sizeof(rsize));
  out.write(reinterpret_cast<const char*>(routing.data()),
            static_cast<std::streamsize>(rsize * sizeof(double)));
  const uint64_t nmodels = plans_.size();
  out.write(reinterpret_cast<const char*>(&nmodels), sizeof(nmodels));
  out.write(reinterpret_cast<const char*>(target_mean_.data()),
            static_cast<std::streamsize>(nmodels * sizeof(double)));
  out.write(reinterpret_cast<const char*>(target_scale_.data()),
            static_cast<std::streamsize>(nmodels * sizeof(double)));
  // Serialize from the compiled plans: the flat buffer is already in
  // on-disk parameter order, so each model is one contiguous write and the
  // bytes are identical to SaveMlp on the corresponding Mlp. Parameters
  // are always stored in f64 — the f32 tier is a deterministic narrowing
  // rebuilt on Load.
  for (const auto& p : plans_) {
    NS_RETURN_NOT_OK(nn::SaveCompiledMlp(p, &out));
  }
  const uint32_t magic = kPrecisionMagic;
  // Bit 0: f32 is the active serving tier. Bit 1: the sketch carries the
  // f32 tier (it may be carried while f64 is selected; the tier must
  // survive the round-trip either way). The f32 plans themselves are
  // never written: they are a pure function of the f64 parameters.
  const uint32_t precision = (precision_ == PlanPrecision::kF32 ? 1u : 0u) |
                             (f32_available_ ? 2u : 0u);
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&precision), sizeof(precision));
  out.write(reinterpret_cast<const char*>(&f32_error_bound_),
            sizeof(f32_error_bound_));
  out.write(reinterpret_cast<const char*>(&f32_max_divergence_),
            sizeof(f32_max_divergence_));
  if (!out.good()) return Status::IOError("sketch write failed");
  return Status::OK();
}

Result<NeuroSketch> NeuroSketch::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadFrom(&in);
}

Result<NeuroSketch> NeuroSketch::LoadFrom(std::istream* in_stream) {
  std::istream& in = *in_stream;
  uint64_t qdim = 0, rsize = 0, nmodels = 0;
  in.read(reinterpret_cast<char*>(&qdim), sizeof(qdim));
  in.read(reinterpret_cast<char*>(&rsize), sizeof(rsize));
  if (!in.good()) return Status::IOError("truncated sketch header");
  // Counts come from untrusted bytes: ReadDoubles grows its vector only as
  // far as the stream backs it.
  std::vector<double> routing;
  if (!nn::ReadDoubles(&in, rsize, &routing)) {
    return Status::IOError("truncated sketch routing");
  }
  in.read(reinterpret_cast<char*>(&nmodels), sizeof(nmodels));
  if (!in.good()) return Status::IOError("truncated sketch routing");

  NeuroSketch sketch;
  // Every model is routed to by exactly one leaf.
  NS_ASSIGN_OR_RETURN(sketch.tree_,
                      QuerySpaceKdTree::DecodeRouting(routing, qdim, nmodels));
  sketch.routing_doubles_ = routing.size();
  if (!nn::ReadDoubles(&in, nmodels, &sketch.target_mean_) ||
      !nn::ReadDoubles(&in, nmodels, &sketch.target_scale_)) {
    return Status::IOError("truncated sketch scales");
  }
  // 16 bytes per model are now known to be in the stream, so this
  // reservation is proportional to the image size.
  sketch.plans_.reserve(nmodels);
  for (uint64_t i = 0; i < nmodels; ++i) {
    // Compile-on-load: the plan is the deserialization target (one
    // contiguous parameter read).
    NS_ASSIGN_OR_RETURN(nn::CompiledMlp plan, nn::LoadCompiledMlp(&in));
    // Splits index the query by dimensions below qdim, so a qdim that
    // is not the models' input width is corrupt too.
    if (plan.in_dim() != qdim) {
      return Status::InvalidArgument("sketch model width differs from qdim");
    }
    sketch.plans_.push_back(std::move(plan));
  }
  sketch.stats_.num_partitions = nmodels;

  // Optional precision trailer; sketches written before it existed end at
  // the last model (a clean EOF here) and load as f64.
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in.good() && in.gcount() != 0) {
    // A partial magic read is a truncated trailer, not a legacy file.
    return Status::IOError("truncated precision trailer");
  }
  if (in.good()) {
    if (magic != kPrecisionMagic) {
      return Status::InvalidArgument("bad precision trailer in sketch file");
    }
    uint32_t precision = 0;
    in.read(reinterpret_cast<char*>(&precision), sizeof(precision));
    in.read(reinterpret_cast<char*>(&sketch.f32_error_bound_),
            sizeof(sketch.f32_error_bound_));
    in.read(reinterpret_cast<char*>(&sketch.f32_max_divergence_),
            sizeof(sketch.f32_max_divergence_));
    if (!in.good()) return Status::IOError("truncated precision trailer");
    if (precision > 15u) {
      return Status::InvalidArgument("unknown plan precision in sketch file");
    }
    const bool has_f32 = (precision & 3u) != 0;
    const bool legacy_int8 = (precision & 12u) != 0;
    // An image from the retired int8 tier serves f32 when it carries f32
    // and f64 otherwise. Its calibration block (int8 bound, measured
    // divergence, then per leaf a layer count and that many absmax
    // doubles; 0 layers = uncovered leaf) is checked and dropped.
    if (legacy_int8) {
      double record[2];
      in.read(reinterpret_cast<char*>(record), sizeof(record));
      if (!in.good()) return Status::IOError("truncated int8 calibration");
      for (size_t i = 0; i < sketch.plans_.size(); ++i) {
        uint64_t nl = 0;
        in.read(reinterpret_cast<char*>(&nl), sizeof(nl));
        if (!in.good()) return Status::IOError("truncated int8 calibration");
        if (nl == 0) continue;
        if (nl != sketch.plans_[i].layers().size()) {
          return Status::InvalidArgument(
              "int8 calibration does not match model architecture");
        }
        std::vector<double> absmax(nl);
        in.read(reinterpret_cast<char*>(absmax.data()),
                static_cast<std::streamsize>(nl * sizeof(double)));
        if (!in.good()) return Status::IOError("truncated int8 calibration");
      }
    }
    // A carried but inactive f32 tier is recorded, not compiled;
    // SelectPrecision(kF32) narrows it on demand, bit-identically.
    sketch.f32_available_ = has_f32;
    const bool active_f32 = (precision & 1u) != 0 || (legacy_int8 && has_f32);
    NS_RETURN_NOT_OK(sketch.SelectPrecision(
        active_f32 ? PlanPrecision::kF32 : PlanPrecision::kF64));
  }
  return sketch;
}

}  // namespace neurosketch
