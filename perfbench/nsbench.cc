// nsbench: the repository benchmark. One process runs one workload on one
// pinned CPU with every thread knob fixed, performs passes of a fixed
// number of operations until --seconds have been measured, checks every
// served answer bit-for-bit against a reference, and prints its metrics,
// ending with one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics (stage tracing off);
// --trace 1 reports the per-layer metrics from a traced run plus replays
// of the same requests through each layer's public calls.
//
// Usage: nsbench --workload point|batch|paged|stream --seed N
//                --seconds S --trace 0|1 --workdir DIR
// See perfbench/README.md for why each workload exists.
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "core/neurosketch.h"
#include "data/datasets.h"
#include "data/normalizer.h"
#include "query/aggregate.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "query/workload.h"
#include "serve/delta_buffer.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/random.h"
#include "util/stats.h"

namespace nsbench {
namespace {

using namespace neurosketch;  // NOLINT: benchmark program, one TU
using serve::DeltaBuffer;
using serve::ServeEngine;
using serve::ServeKey;
using serve::ServeOptions;
using serve::ServeResult;
using serve::ServeStats;
using serve::ServedView;
using serve::SketchStore;

using Clock = std::chrono::steady_clock;

double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// ------------------------------------------------------------- constants
// The dataset and the trained sketches are the system under test and use
// fixed seeds; --seed drives only the requests (queries, key draws,
// appended rows), so runs at different seeds measure one system.
constexpr uint64_t kDataSeed = 20230611;
constexpr double kPmScale = 0.5;  // ~20.9k rows of the PM-like table
constexpr size_t kSetupReps = 3;  // setup_s is the median of these
constexpr size_t kTrainQueries = 1000;
constexpr size_t kPoolSize = 4096;
constexpr size_t kMinPasses = 5;
const char* const kDataset = "pm";

// Workload shapes (fixed operation counts per pass).
constexpr size_t kPointRequests = 16384, kPointWindow = 32;
constexpr size_t kBatchRequests = 512, kBatchBurst = 256, kBatchWindow = 4;
constexpr size_t kPagedKeys = 256, kPagedSketches = 8;
constexpr size_t kPagedRequests = 4096, kPagedBurst = 16, kPagedWindow = 4;
constexpr double kPagedZipf = 0.99, kPagedBudget = 0.25;
constexpr size_t kStreamSteps = 32, kStreamRowsPerStep = 128;
constexpr size_t kStreamReadsPerStep = 2, kStreamBurst = 64;
// Appended rows fall in this box on every column. Each read burst holds
// exactly kStreamTouching queries whose range covers the box centre; they
// take the exact recompute path, the rest scan the delta without a match.
constexpr double kStreamBoxLo = 0.90, kStreamBoxHi = 0.92;
constexpr size_t kStreamTouching = 9;

// The layer-sum check: replayed self-times plus engine overhead must be
// within this fraction of the untraced end-to-end per-query time. Typical
// residuals on the development VM: point 0.04-0.26 (time no replayed
// layer holds, such as the cache misses the forward pass and the engine
// cause each other), batch -0.02-0.04.
constexpr double kLayerSumTolerance = 0.35;

// ------------------------------------------------------------- arguments
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return (a->workload == "point" || a->workload == "batch" ||
          a->workload == "paged" || a->workload == "stream") &&
         a->seconds > 0.0;
}

// ----------------------------------------------------------- environment
/// Affines the process to one CPU: the highest-numbered one it may use
/// (CPU 0 takes most housekeeping interrupts). Threads started later
/// inherit the mask. Returns the CPU, or -1 on failure.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? c : -1;
  }
  return -1;
}

/// CPU time of a clock such as CLOCK_PROCESS_CPUTIME_ID, in ns.
double CpuNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ------------------------------------------------- statistics, formatting
std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

/// "min=.. q1=.. median=.. q3=.. max=.." for a report line.
std::string Quartiles(const std::vector<double>& v) {
  if (v.empty()) return "empty";
  return Fmt("min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g",
             *std::min_element(v.begin(), v.end()), Percentile(v, 25),
             Median(v), Percentile(v, 75), Percentile(v, 100));
}

uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603u) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211u;
  }
  return h;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --------------------------------------------------------------- report
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Human-readable lines, then the one-line JSON result (last line).
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    // A non-finite value cannot be written as JSON; it marks a failed run.
    for (const auto& m : metrics_) correct = correct && std::isfinite(m.value);
    for (const auto& n : notes_) std::printf("%s\n", n.c_str());
    for (const auto& m : metrics_) {
      std::printf("metric %-44s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v =
          std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(), v,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};


// ----------------------------------------------------------- host speed
/// A fixed reference computation that the benchmark owns, run between
/// passes to measure how fast the host executes the kind of work the
/// program does: a chained dense f64 matrix-vector product with ReLU (the
/// forward pass), a branchy range filter over a 2 MiB column (the exact
/// scan) and a mutex/condition-variable handoff between two threads on
/// the pinned CPU (the engine's client/dispatcher handoff), sized to take
/// about a third of its time each on the development VM. On a shared host
/// the pinned CPU's speed moves by up to 2x in regimes seconds to minutes
/// long; the probe moves with it, and program code cannot change it.
///
/// The probe is timed in CPU time, not wall time: a process that shares
/// the CPU slows a CPU-bound probe by its full share, but the serving
/// threads, which sleep and wake, by far less (measured with a spinning
/// process on the pinned CPU), so wall time would over-correct.
class SpeedProbe {
 public:
  /// A typical probe time on the development VM (4-vCPU Intel Xeon,
  /// 2.0 GHz nominal); its speed over a day gave 1.0e7 to 1.5e7 ns.
  /// Times are reported at the speed that gives this probe time.
  static constexpr double kNominalNs = 1.45e7;

  SpeedProbe() : mat_(kDim * kDim), vec_(kDim), col_(kColumn) {
    for (size_t i = 0; i < mat_.size(); ++i) {
      mat_[i] = static_cast<double>(i % 17) * 0.01 - 0.05;
    }
    for (size_t i = 0; i < kDim; ++i) vec_[i] = static_cast<double>(i) * 1e-3;
    for (size_t i = 0; i < kColumn; ++i) {
      col_[i] = static_cast<double>(i * 2654435761u % 1000) * 1e-3;
    }
    (void)Run();  // first touch of the inputs
  }

  /// Runs one probe and returns the CPU time its two threads used, in ns.
  /// A thread the program left running would share the CPU with the probe,
  /// so the probe fails if the process's other threads (idle pool workers,
  /// say) used more than 2% of the time of its single-threaded parts.
  double Run() {
    const double proc0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    const double self0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
    std::vector<double> out(kDim);
    for (size_t r = 0; r < kDenseReps; ++r) {
      for (size_t i = 0; i < kDim; ++i) {
        double a = 0.0;
        for (size_t j = 0; j < kDim; ++j) a += mat_[i * kDim + j] * vec_[j];
        out[i] = a > 0.0 ? a : 0.0;
      }
      vec_[r % kDim] = out[(r * 7) % kDim] * 1e-3 + 1e-3;
    }
    double acc = 0.0;
    size_t hits = 0;
    for (size_t r = 0; r < kScanReps; ++r) {
      const double lo = 0.2, hi = 0.2 + 0.05 * static_cast<double>(r);
      for (double v : col_) {
        if (v > lo && v < hi) {
          acc += v;
          ++hits;
        }
      }
    }
    const double solo_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - self0;
    const double others = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - proc0 - solo_ns;
    if (others > 0.02 * solo_ns) {
      throw std::runtime_error(Fmt(
          "speed probe: other threads used %.0f of %.0f ns", others, solo_ns));
    }
    std::mutex m;
    std::condition_variable cv;
    bool ping = false;
    double peer_ns = 0.0;
    std::thread peer([&] {
      const double c0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      for (size_t i = 0; i < kHandoffs; ++i) {
        std::unique_lock<std::mutex> l(m);
        cv.wait(l, [&] { return ping; });
        ping = false;
        cv.notify_one();
      }
      peer_ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - c0;
    });
    for (size_t i = 0; i < kHandoffs; ++i) {
      std::unique_lock<std::mutex> l(m);
      ping = true;
      cv.notify_one();
      cv.wait(l, [&] { return !ping; });
    }
    peer.join();
    const double ns = CpuNs(CLOCK_THREAD_CPUTIME_ID) - self0 + peer_ns;
    sink_ += out[3] + acc + static_cast<double>(hits);
    return ns;
  }

 private:
  static constexpr size_t kDim = 64, kDenseReps = 1500;
  static constexpr size_t kColumn = size_t{1} << 18, kScanReps = 8;
  static constexpr size_t kHandoffs = 500;
  std::vector<double> mat_, vec_, col_;
  volatile double sink_ = 0.0;  // keeps the computed values live
};

// ---------------------------------------------------------------- setup
QueryFunctionSpec AvgSpec(size_t measure_col) {
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kAvg;
  spec.measure_col = measure_col;
  return spec;
}

WorkloadConfig QueryConfig(uint64_t seed) {
  WorkloadConfig wc;
  wc.num_active = 1;
  wc.range_frac_lo = 0.05;
  wc.range_frac_hi = 0.5;
  wc.min_matches = 5;
  wc.seed = seed;
  return wc;
}

/// Sketch served by point, batch and stream: the bench-scale paper shape
/// (kd-tree height 3 merged to 4 leaves, 5-layer MLPs).
NeuroSketchConfig ServedSketchConfig() {
  NeuroSketchConfig cfg;
  cfg.tree_height = 3;
  cfg.target_partitions = 4;
  cfg.n_layers = 5;
  cfg.l_first = 48;
  cfg.l_rest = 24;
  cfg.train.epochs = 60;
  cfg.train.learning_rate = 2e-3;
  cfg.train.lr_decay = 0.5;
  cfg.train.decay_every = 20;
  cfg.train.patience = 20;
  cfg.seed = kDataSeed;
  cfg.train_threads = 1;
  cfg.plan_precision = PlanPrecision::kF64;
  return cfg;
}

/// The paged catalog's sketches are small, so a fault-in (read, parse,
/// compile) stays a few microseconds, as for a catalog of many keys.
NeuroSketchConfig PagedSketchConfig(size_t i) {
  NeuroSketchConfig cfg;
  cfg.tree_height = 2;
  cfg.target_partitions = 2;
  cfg.n_layers = 3;
  cfg.l_first = 24;
  cfg.l_rest = 16;
  cfg.train.epochs = 100;
  cfg.train.learning_rate = 2e-3;
  cfg.seed = kDataSeed + 101 * i;
  cfg.train.seed = 7 + i;
  cfg.train_threads = 1;
  cfg.plan_precision = PlanPrecision::kF64;
  return cfg;
}

struct Fixture {
  Table table;
  QueryFunctionSpec spec;
  std::unique_ptr<ExactEngine> engine;  // scans `table`
  /// point/batch/stream: one sketch; paged: kPagedSketches, key i serves
  /// sketches[i % kPagedSketches].
  std::vector<std::shared_ptr<const NeuroSketch>> sketches;
  std::string catalog_path;  // paged only
  size_t paged_budget = 0;   // kPagedBudget of the faulted-in footprint
  double setup_s = 0.0;
  double train_s = 0.0;
  uint64_t digest = 0;  // over every sketch image (determinism audit)
};

std::shared_ptr<const NeuroSketch> TrainSketch(
    const std::vector<QueryInstance>& q, const std::vector<double>& a,
    const NeuroSketchConfig& cfg) {
  Result<NeuroSketch> trained = NeuroSketch::Train(q, a, cfg);
  if (!trained.ok()) {
    throw std::runtime_error("train: " + trained.status().ToString());
  }
  NeuroSketch s = std::move(trained).value();
  // The f64 tier is served whatever the environment asks Train for.
  if (s.plan_precision() != PlanPrecision::kF64) {
    Status st = s.SelectPrecision(PlanPrecision::kF64);
    if (!st.ok()) throw std::runtime_error("pin f64: " + st.ToString());
  }
  return std::make_shared<const NeuroSketch>(std::move(s));
}

QueryFunctionKey PagedKey(size_t i) {
  QueryFunctionKey key;
  key.predicate_name = AxisRangePredicate::Make()->name();
  key.agg = Aggregate::kAvg;
  key.measure_col = i;  // distinct measure columns make distinct keys
  return key;
}

std::unique_ptr<Fixture> Setup(const std::string& workload,
                               const std::string& workdir) {
  auto f = std::make_unique<Fixture>();
  const Clock::time_point t0 = Clock::now();
  Result<Dataset> ds = MakeDatasetByName("PM", kPmScale, kDataSeed);
  if (!ds.ok()) throw std::runtime_error("dataset: " + ds.status().ToString());
  f->table = Normalizer::Fit(ds.value().table).Transform(ds.value().table);
  f->spec = AvgSpec(ds.value().measure_col);
  f->engine = std::make_unique<ExactEngine>(&f->table);
  // Training set: exact answers to generated queries. The paged
  // catalog's sketches share it and differ by their initialization seed.
  const Clock::time_point t_train = Clock::now();
  WorkloadGenerator gen(f->table.num_columns(), QueryConfig(kDataSeed));
  const std::vector<QueryInstance> q =
      gen.GenerateMany(kTrainQueries, f->engine.get(), &f->spec);
  const std::vector<double> a = f->engine->AnswerBatch(f->spec, q, 1);
  const size_t n = workload == "paged" ? kPagedSketches : 1;
  for (size_t i = 0; i < n; ++i) {
    f->sketches.push_back(TrainSketch(
        q, a,
        workload == "paged" ? PagedSketchConfig(i) : ServedSketchConfig()));
  }
  f->train_s = NsBetween(t_train, Clock::now()) * 1e-9;
  if (workload == "paged") {
    std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
        entries;
    for (size_t i = 0; i < kPagedKeys; ++i) {
      entries.emplace_back(PagedKey(i), f->sketches[i % kPagedSketches]);
    }
    f->catalog_path = workdir + "/paged.cat";
    Status st = WritePagedCatalog(f->catalog_path, entries);
    if (!st.ok()) throw std::runtime_error("catalog: " + st.ToString());
  }
  f->setup_s = NsBetween(t0, Clock::now()) * 1e-9;
  if (workload == "paged") {
    // The budget is a share of what the entries occupy once faulted in
    // (lean: active tier only), measured by loading each one.
    Result<PagedCatalogReader> reader =
        PagedCatalogReader::Open(f->catalog_path);
    if (!reader.ok()) throw std::runtime_error("open catalog");
    size_t full = 0;
    for (const auto& e : reader.value().entries()) {
      Result<NeuroSketch> s = reader.value().LoadEntry(e);
      if (!s.ok()) throw std::runtime_error("load entry");
      full += s.value().ResidentBytes();
    }
    f->paged_budget =
        static_cast<size_t>(kPagedBudget * static_cast<double>(full));
  }
  for (const auto& s : f->sketches) {
    std::ostringstream img;
    Status st = s->SaveTo(&img);
    if (!st.ok()) throw std::runtime_error("save: " + st.ToString());
    const std::string bytes = img.str();
    f->digest = Fnv1a(bytes.data(), bytes.size(), f->digest ^ 0x9e3779b9u);
  }
  return f;
}

// ---------------------------------------------------------------- plans
/// One pass of a workload: a fixed sequence of requests, each one
/// Submit (point) or one SubmitMany burst, grouped into phases. A phase
/// first appends its rows (stream), then runs its requests closed-loop
/// with `window` requests in flight, and drains before the next phase so
/// every read sees a known delta state.
struct Plan {
  bool single = false;
  size_t window = 1;
  size_t max_batch = 1;
  std::vector<uint32_t> req_key;   // per request
  std::vector<size_t> req_off;     // request r: [req_off[r], req_off[r+1])
  std::vector<uint32_t> qi;        // pool index per served query
  struct Phase {
    size_t first_req = 0, end_req = 0;
    std::vector<std::vector<double>> rows;  // appended before the reads
  };
  std::vector<Phase> phases;
  std::vector<QueryFunctionSpec> key_spec;  // per key
  // Per served query: the bit-exact reference and the exact answer at the
  // same delta state; stream also counts the ExactWithDelta recomputes.
  std::vector<double> expect, truth;
  uint64_t expect_exact_count = 0;
  uint64_t rows_appended = 0;

  size_t num_requests() const { return req_key.size(); }
  size_t num_queries() const { return qi.size(); }
};

struct Inputs {
  std::vector<QueryInstance> pool;
  /// Exact accumulation over the base table per pool query; Finalize()
  /// is the exact answer, and continuing it over appended rows gives the
  /// exact answer at any delta state.
  std::vector<AggregateAccumulator> base;
  std::vector<double> exact;             // base-table exact answers
  std::vector<std::vector<double>> ref;  // [sketch][pool]: AnswerBatch
};

Inputs MakeInputs(const Fixture& f, uint64_t seed) {
  Inputs in;
  WorkloadGenerator gen(f.table.num_columns(),
                        QueryConfig(seed * 1000003u + 11));
  // Keep only queries every served sketch answers: a NaN would go to the
  // exact repair path, and the reference would test the fallback instead.
  for (int round = 0; in.pool.size() < kPoolSize; ++round) {
    if (round == 8) throw std::runtime_error("too few answerable queries");
    std::vector<QueryInstance> cand =
        gen.GenerateMany(kPoolSize, f.engine.get(), &f.spec);
    std::vector<bool> keep(cand.size(), true);
    for (const auto& s : f.sketches) {
      const std::vector<double> a = s->AnswerBatch(cand);
      for (size_t i = 0; i < a.size(); ++i) {
        keep[i] = keep[i] && !std::isnan(a[i]);
      }
    }
    for (size_t i = 0; i < cand.size() && in.pool.size() < kPoolSize; ++i) {
      if (keep[i]) in.pool.push_back(std::move(cand[i]));
    }
  }
  for (const auto& q : in.pool) {
    in.base.emplace_back(f.spec.agg);
    ExactEngine::AccumulateOver(f.table, f.spec, q, &in.base.back());
    in.exact.push_back(in.base.back().Finalize());
  }
  for (const auto& s : f.sketches) in.ref.push_back(s->AnswerBatch(in.pool));
  return in;
}

void AddRequest(Plan* p, uint32_t key, size_t count, size_t* cursor) {
  p->req_key.push_back(key);
  for (size_t j = 0; j < count; ++j) {
    p->qi.push_back(static_cast<uint32_t>((*cursor)++ % kPoolSize));
  }
  p->req_off.push_back(p->qi.size());
}

/// A stream read burst: kStreamTouching queries from `touching` spread
/// evenly through the burst, the rest from `other`, both cycled in order.
void AddStreamRequest(Plan* p, const std::vector<uint32_t>& touching,
                      const std::vector<uint32_t>& other, size_t* ct,
                      size_t* co) {
  p->req_key.push_back(0);
  const size_t stride = kStreamBurst / kStreamTouching;
  for (size_t j = 0; j < kStreamBurst; ++j) {
    const bool t = j % stride == 0 && j / stride < kStreamTouching;
    p->qi.push_back(t ? touching[(*ct)++ % touching.size()]
                      : other[(*co)++ % other.size()]);
  }
  p->req_off.push_back(p->qi.size());
}

/// Zipf(s) over `n` keys: key k has weight 1/(k+1)^s. The hot set is
/// the same at every seed (key k serves sketch k % kPagedSketches, so
/// each sketch's share of traffic is fixed); the seed drives the draws.
std::vector<uint32_t> ZipfKeys(size_t n, double s, size_t draws, Rng* rng) {
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = acc;
  }
  std::vector<uint32_t> out(draws);
  for (auto& k : out) {
    const double u = rng->Uniform(0.0, acc);
    const size_t r = std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    k = static_cast<uint32_t>(std::min(r, n - 1));
  }
  return out;
}

Plan MakePlan(const std::string& w, const Fixture& f, const Inputs& in,
              uint64_t seed) {
  Plan p;
  p.req_off.push_back(0);
  Rng rng(seed * 7919u + 3);
  size_t cursor = 0;
  if (w == "point" || w == "batch") {
    p.single = w == "point";
    p.window = p.single ? kPointWindow : kBatchWindow;
    p.max_batch = p.single ? 1 : kBatchBurst;
    const size_t nreq = p.single ? kPointRequests : kBatchRequests;
    for (size_t r = 0; r < nreq; ++r) {
      AddRequest(&p, 0, p.single ? 1 : kBatchBurst, &cursor);
    }
    p.phases.push_back({0, nreq, {}});
    p.key_spec.push_back(f.spec);
  } else if (w == "paged") {
    p.window = kPagedWindow;
    p.max_batch = kPagedBurst;
    for (uint32_t k : ZipfKeys(kPagedKeys, kPagedZipf, kPagedRequests, &rng)) {
      AddRequest(&p, k, kPagedBurst, &cursor);
    }
    p.phases.push_back({0, kPagedRequests, {}});
    for (size_t i = 0; i < kPagedKeys; ++i) {
      QueryFunctionSpec s = f.spec;
      s.measure_col = i;
      p.key_spec.push_back(s);
    }
  } else {  // stream
    p.window = kStreamReadsPerStep;
    p.max_batch = kStreamBurst;
    p.key_spec.push_back(f.spec);
    const size_t cols = f.table.num_columns();
    const std::vector<double> centre(cols, 0.5 * (kStreamBoxLo + kStreamBoxHi));
    std::vector<uint32_t> touching, other;
    for (uint32_t i = 0; i < in.pool.size(); ++i) {
      (f.spec.predicate->Matches(in.pool[i], centre.data(), cols) ? touching
                                                                  : other)
          .push_back(i);
    }
    if (touching.empty() || other.empty()) {
      throw std::runtime_error("stream: pool has no box-covering queries");
    }
    size_t ct = 0, co = 0;
    for (size_t step = 0; step < kStreamSteps; ++step) {
      Plan::Phase ph;
      for (size_t r = 0; r < kStreamRowsPerStep; ++r) {
        std::vector<double> row(cols);
        for (double& v : row) v = rng.Uniform(kStreamBoxLo, kStreamBoxHi);
        ph.rows.push_back(std::move(row));
      }
      p.rows_appended += ph.rows.size();
      ph.first_req = p.num_requests();
      for (size_t r = 0; r < kStreamReadsPerStep; ++r) {
        AddStreamRequest(&p, touching, other, &ct, &co);
      }
      ph.end_req = p.num_requests();
      p.phases.push_back(std::move(ph));
    }
  }

  // References. Resident and paged keys: the serial AnswerBatch of the
  // key's own sketch. Stream: the composition contract, recomputed from
  // the base table and the rows appended so far — a query that matches an
  // unfolded row is recomputed exactly (AVG does not decompose), base
  // scan first, then the delta rows in append order.
  const size_t nq = p.num_queries();
  p.expect.resize(nq);
  p.truth.resize(nq);
  std::vector<std::vector<double>> delta;
  for (const auto& ph : p.phases) {
    delta.insert(delta.end(), ph.rows.begin(), ph.rows.end());
    for (size_t r = ph.first_req; r < ph.end_req; ++r) {
      const size_t sk = p.req_key[r] % f.sketches.size();
      for (size_t j = p.req_off[r]; j < p.req_off[r + 1]; ++j) {
        const uint32_t i = p.qi[j];
        p.expect[j] = in.ref[sk][i];
        p.truth[j] = in.exact[i];
        if (delta.empty()) continue;
        AggregateAccumulator acc = in.base[i];
        bool matched = false;
        for (const auto& row : delta) {
          if (f.spec.predicate->Matches(in.pool[i], row.data(), row.size())) {
            acc.Add(row[f.spec.measure_col]);
            matched = true;
          }
        }
        p.truth[j] = acc.Finalize();
        if (matched) {
          p.expect[j] = p.truth[j];
          ++p.expect_exact_count;
        }
      }
    }
  }
  return p;
}

// -------------------------------------------------------------- serving
ServeOptions Options(const Plan& p, bool tracing) {
  ServeOptions o;
  o.max_batch = p.max_batch;
  o.batch_window_us = 0.0;  // no timer-driven dispatch
  o.num_shards = 1;
  o.exact_batch_threads = 1;
  o.stage_tracing = tracing;
  return o;
}

/// A store holding what the workload serves; `empty` leaves out every
/// sketch, engine and delta so each request costs only the engine's own
/// work (the null-layer drive behind serve_engine.overhead_ns_per_query).
std::unique_ptr<SketchStore> MakeStore(const std::string& w, const Fixture& f,
                                       bool empty) {
  auto store = std::make_unique<SketchStore>();
  if (empty) return store;
  if (w == "paged") {
    serve::PagedCatalogOptions o;
    o.max_resident_bytes = f.paged_budget;
    Result<size_t> n = store->AttachPagedCatalog(kDataset, f.catalog_path, o);
    if (!n.ok() || n.value() != kPagedKeys) {
      throw std::runtime_error("attach paged catalog failed");
    }
    return store;
  }
  Status st = store->RegisterDataset(kDataset, f.engine.get());
  if (st.ok()) st = store->Register(kDataset, f.spec, f.sketches[0]).status();
  if (st.ok() && w == "stream") {
    st = store->EnableStreaming(kDataset, f.table.num_columns());
  }
  if (!st.ok()) throw std::runtime_error("store: " + st.ToString());
  return store;
}

/// Counts that must repeat exactly in every pass at a fixed seed.
struct Audit {
  uint64_t queries = 0, batches = 0, sketch_answers = 0, fallback = 0,
           failed_answers = 0, delta_exact = 0, backpressure = 0,
           faultins = 0, evictions = 0, hits = 0, rows_appended = 0,
           answers_digest = 0;

  bool operator==(const Audit& o) const {
    return std::memcmp(this, &o, sizeof(Audit)) == 0;
  }
  std::string ToString() const {
    return Fmt("queries=%llu batches=%llu sketch=%llu fallback=%llu "
               "failed=%llu delta_exact=%llu backpressure=%llu "
               "faultins=%llu evictions=%llu hits=%llu rows_appended=%llu "
               "answers_digest=%016llx",
               (unsigned long long)queries, (unsigned long long)batches,
               (unsigned long long)sketch_answers, (unsigned long long)fallback,
               (unsigned long long)failed_answers,
               (unsigned long long)delta_exact,
               (unsigned long long)backpressure, (unsigned long long)faultins,
               (unsigned long long)evictions, (unsigned long long)hits,
               (unsigned long long)rows_appended,
               (unsigned long long)answers_digest);
  }
};

struct PassOut {
  double seconds = 0.0;
  std::vector<double> latency_us;  // one sample per request
  std::vector<double> served;      // one value per query
  uint64_t failed = 0;             // mismatches, NaNs, exceptions
  ServeStats stats;
  Audit audit;

  double qps(size_t queries) const { return queries / seconds; }
};

/// Runs one pass closed-loop from a fresh store and engine.
PassOut RunPass(const std::string& w, const Fixture& f, const Inputs& in,
                const Plan& p, bool tracing, bool empty) {
  std::unique_ptr<SketchStore> store = MakeStore(w, f, empty);
  const size_t nreq = p.num_requests();
  // Requests are built before the clock starts and moved into the engine.
  std::vector<QueryInstance> singles;
  std::vector<std::vector<QueryInstance>> bursts;
  if (p.single) {
    singles.reserve(nreq);
    for (size_t r = 0; r < nreq; ++r) singles.push_back(in.pool[p.qi[r]]);
  } else {
    bursts.resize(nreq);
    for (size_t r = 0; r < nreq; ++r) {
      for (size_t j = p.req_off[r]; j < p.req_off[r + 1]; ++j) {
        bursts[r].push_back(in.pool[p.qi[j]]);
      }
    }
  }
  PassOut out;
  out.latency_us.resize(nreq);
  out.served.assign(p.num_queries(), std::nan(""));
  ServeEngine eng(store.get(), Options(p, tracing));

  struct InFlight {
    size_t req;
    Clock::time_point sent;
    std::future<ServeResult> one;
    std::future<std::vector<ServeResult>> many;
  };
  std::deque<InFlight> flight;
  auto submit = [&](size_t r) {
    InFlight x;
    x.req = r;
    const QueryFunctionSpec& spec = p.key_spec[p.req_key[r]];
    x.sent = Clock::now();
    if (p.single) {
      x.one = eng.Submit(kDataset, spec, std::move(singles[r]));
    } else {
      x.many = eng.SubmitMany(kDataset, spec, std::move(bursts[r]));
    }
    flight.push_back(std::move(x));
  };
  auto complete = [&]() {
    InFlight x = std::move(flight.front());
    flight.pop_front();
    const size_t off = p.req_off[x.req];
    try {
      if (p.single) {
        out.served[off] = x.one.get().value;
      } else {
        const std::vector<ServeResult> res = x.many.get();
        for (size_t j = 0; j < res.size(); ++j) {
          out.served[off + j] = res[j].value;
        }
      }
    } catch (const std::exception&) {
      // served values stay NaN and count as failed below
    }
    out.latency_us[x.req] = NsBetween(x.sent, Clock::now()) * 1e-3;
  };

  const Clock::time_point t0 = Clock::now();
  for (const auto& ph : p.phases) {
    if (!ph.rows.empty() && !empty) {
      Status st = store->AppendRows(kDataset, ph.rows);
      if (!st.ok()) throw std::runtime_error("append: " + st.ToString());
    }
    size_t next = ph.first_req;
    while (next < ph.end_req && flight.size() < p.window) submit(next++);
    while (!flight.empty()) {
      complete();
      if (next < ph.end_req) submit(next++);
    }
  }
  out.seconds = NsBetween(t0, Clock::now()) * 1e-9;

  out.stats = eng.Snapshot();
  const BufferPoolStats pool = store->PagedStats();
  Audit& a = out.audit;
  a.queries = out.stats.queries;
  a.batches = out.stats.batches;
  a.sketch_answers = out.stats.sketch_answers;
  a.fallback = out.stats.fallback_answers;
  a.failed_answers = out.stats.failed_answers;
  a.delta_exact = out.stats.delta_exact_answers;
  for (const auto& sh : out.stats.per_shard) {
    a.backpressure += sh.backpressure_waits;
  }
  a.faultins = pool.faultins;
  a.evictions = pool.evictions;
  a.hits = pool.hits;
  for (const auto& d : store->DeltaStats()) {
    a.rows_appended += d.second.rows_appended;
  }
  a.answers_digest =
      Fnv1a(out.served.data(), out.served.size() * sizeof(double));
  if (!empty) {
    for (size_t j = 0; j < out.served.size(); ++j) {
      if (!SameBits(out.served[j], p.expect[j])) ++out.failed;
    }
  }
  return out;
}

/// Pass-level invariants: the engine formed exactly one micro-batch per
/// request, the stream recomputed exactly the reference's queries, and
/// appended exactly the schedule's rows.
std::string CheckShape(const Plan& p, const Audit& a) {
  if (a.queries != p.num_queries()) return "query count";
  if (a.batches != p.num_requests()) return "micro-batch count";
  if (a.delta_exact != p.expect_exact_count) return "exact recompute count";
  if (a.rows_appended != p.rows_appended) return "appended rows";
  return "";
}

// --------------------------------------------------------------- replay
/// Per-layer self-times from replaying one pass's requests through each
/// layer's public calls, in serve order. Spans are kept in memory (one
/// per chunk of calls, so two clock reads never dominate a sub-µs call)
/// and summarized at exit.
struct Span {
  const char* layer;
  double ns;
  uint64_t calls;
};

struct Replay {
  std::vector<Span> spans;
  double Total(const char* layer) const {
    double t = 0.0;
    for (const auto& s : spans) t += Is(s, layer) ? s.ns : 0.0;
    return t;
  }
  uint64_t Calls(const char* layer) const {
    uint64_t n = 0;
    for (const auto& s : spans) n += Is(s, layer) ? s.calls : 0;
    return n;
  }
  std::vector<double> PerCall(const char* layer) const {
    std::vector<double> v;
    for (const auto& s : spans) {
      if (Is(s, layer) && s.calls > 0) v.push_back(s.ns / s.calls);
    }
    return v;
  }
  static bool Is(const Span& s, const char* layer) {
    return std::strcmp(s.layer, layer) == 0;
  }
  uint64_t faultins = 0, evictions = 0, hits = 0;
  uint64_t rows_scanned = 0, scanned_queries = 0, matched_queries = 0;
  uint64_t exact_queries = 0, exact_rows = 0, mismatches = 0;
  uint64_t appended_rows = 0;
  size_t peak_resident_bytes = 0;
};

template <typename Fn>
void Timed(Replay* rp, const char* layer, uint64_t calls, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  rp->spans.push_back({layer, NsBetween(t0, Clock::now()), calls});
}

Replay RunReplay(const std::string& w, const Fixture& f, const Inputs& in,
                 const Plan& p) {
  Replay rp;
  std::unique_ptr<SketchStore> store = MakeStore(w, f, false);
  const size_t nreq = p.num_requests();
  // Point requests are single queries: group 256 of them per span.
  const size_t chunk = p.single ? 256 : 1;
  std::vector<std::vector<QueryInstance>> batches(nreq);
  for (size_t r = 0; r < nreq; ++r) {
    for (size_t j = p.req_off[r]; j < p.req_off[r + 1]; ++j) {
      batches[r].push_back(in.pool[p.qi[j]]);
    }
  }
  auto sketch_for = [&](size_t r) {
    return f.sketches[p.req_key[r] % f.sketches.size()].get();
  };

  // Store lookup (LookupServed), in serve order. A paged lookup may fault
  // the sketch in; the serve path then credits the answers as heat and
  // drops its pin at the end of the batch, which the replay mirrors so
  // the pool makes the same choices as in the served pass.
  const ServeKey key0 = ServeKey::From(kDataset, p.key_spec[0]);
  if (w == "paged") {
    for (size_t r = 0; r < nreq; ++r) {
      const ServeKey key = ServeKey::From(kDataset, p.key_spec[p.req_key[r]]);
      const uint64_t before = store->PagedStats().faultins;
      const Clock::time_point t0 = Clock::now();
      ServedView view = store->LookupServed(key);
      const double ns = NsBetween(t0, Clock::now());
      const bool faulted = store->PagedStats().faultins != before;
      rp.spans.push_back({faulted ? "faultin" : "lookup", ns, 1});
      store->NoteServed(key, p.req_off[r + 1] - p.req_off[r]);
    }
    const BufferPoolStats ps = store->PagedStats();
    rp.faultins = ps.faultins;
    rp.evictions = ps.evictions;
    rp.hits = ps.hits;
    rp.peak_resident_bytes = ps.peak_resident_bytes;
  } else {
    for (size_t r = 0; r < nreq; r += chunk) {
      const size_t e = std::min(nreq, r + chunk);
      Timed(&rp, "lookup", e - r, [&] {
        for (size_t i = r; i < e; ++i) {
          ServedView view = store->LookupServed(key0);
          if (view.sketch == nullptr) ++rp.mismatches;
        }
      });
    }
    for (const auto& l : store->List()) {
      rp.peak_resident_bytes += l.resident_bytes;
    }
  }

  // Delta layer (stream): each step's AppendRows, then one Snap per read
  // batch; the snapshot after each step feeds the scan replay below.
  std::vector<DeltaBuffer::Snapshot> step_snap(p.phases.size());
  std::vector<size_t> phase_of(nreq, 0);
  for (size_t ph = 0; ph < p.phases.size(); ++ph) {
    const auto& phase = p.phases[ph];
    for (size_t r = phase.first_req; r < phase.end_req; ++r) phase_of[r] = ph;
    if (phase.rows.empty()) continue;
    Timed(&rp, "append", phase.rows.size(), [&] {
      Status st = store->AppendRows(kDataset, phase.rows);
      if (!st.ok()) ++rp.mismatches;
    });
    rp.appended_rows += phase.rows.size();
    std::shared_ptr<const DeltaBuffer> delta = store->Delta(kDataset);
    for (size_t r = phase.first_req; r < phase.end_req; ++r) {
      Timed(&rp, "snap", 1, [&] { step_snap[ph] = delta->Snap(); });
    }
  }
  const bool has_delta = !p.phases.front().rows.empty();

  // kd-tree route, timed on its own (the forward pass below routes too).
  for (size_t r = 0; r < nreq; r += chunk) {
    const size_t e = std::min(nreq, r + chunk);
    uint64_t calls = 0;
    for (size_t i = r; i < e; ++i) calls += batches[i].size();
    Timed(&rp, "route", calls, [&] {
      for (size_t i = r; i < e; ++i) {
        const NeuroSketch* s = sketch_for(i);
        for (const auto& q : batches[i]) {
          if (s->tree().Route(q) == nullptr) ++rp.mismatches;
        }
      }
    });
  }

  // Forward pass at the workload's own batch shape (includes one route).
  std::vector<double> answers(kBatchBurst);
  for (size_t r = 0; r < nreq; r += chunk) {
    const size_t e = std::min(nreq, r + chunk);
    uint64_t calls = 0;
    for (size_t i = r; i < e; ++i) calls += batches[i].size();
    Timed(&rp, "forward", calls, [&] {
      for (size_t i = r; i < e; ++i) {
        sketch_for(i)->AnswerBatchVectorizedTo(batches[i], answers.data());
      }
    });
    for (size_t i = r; i < e; ++i) {
      // Check the last batch of the chunk against the reference bits.
      if (i + 1 != e || p.expect_exact_count > 0) continue;
      for (size_t j = 0; j < batches[i].size(); ++j) {
        if (!SameBits(answers[j], p.expect[p.req_off[i] + j])) ++rp.mismatches;
      }
    }
  }

  // Delta scan and exact recompute (stream): every query scans the
  // unfolded rows; a query with a match is recomputed over base + delta.
  if (has_delta) {
    const size_t dim = f.table.num_columns();
    for (size_t r = 0; r < nreq; ++r) {
      const DeltaBuffer::Snapshot& snap = step_snap[phase_of[r]];
      std::vector<uint8_t> matched(batches[r].size(), 0);
      Timed(&rp, "scan", batches[r].size(), [&] {
        for (size_t j = 0; j < batches[r].size(); ++j) {
          size_t m = 0;
          snap.ForEachRow(snap.begin(), snap.end(), [&](const double* row) {
            if (f.spec.predicate->Matches(batches[r][j], row, dim)) ++m;
          });
          matched[j] = m > 0;
        }
      });
      for (size_t j = 0; j < batches[r].size(); ++j) {
        rp.rows_scanned += snap.end() - snap.begin();
        ++rp.scanned_queries;
        rp.matched_queries += matched[j];
      }
      uint64_t exact = 0;
      for (uint8_t m : matched) exact += m;
      if (exact == 0) continue;
      Timed(&rp, "exact", exact, [&] {
        for (size_t j = 0; j < batches[r].size(); ++j) {
          if (!matched[j]) continue;
          AggregateAccumulator acc(f.spec.agg);
          ExactEngine::AccumulateOver(f.table, f.spec, batches[r][j], &acc);
          snap.ForEachRow(snap.begin(), snap.end(), [&](const double* row) {
            if (f.spec.predicate->Matches(batches[r][j], row, dim)) {
              acc.Add(row[f.spec.measure_col]);
            }
          });
          answers[j] = acc.Finalize();
        }
      });
      for (size_t j = 0; j < batches[r].size(); ++j) {
        if (matched[j] && !SameBits(answers[j], p.expect[p.req_off[r] + j])) {
          ++rp.mismatches;
        }
      }
      rp.exact_queries += exact;
      rp.exact_rows += exact * (f.table.num_rows() + snap.end() - snap.begin());
    }
  }
  return rp;
}

/// Forward-pass self time per query at batch size `b` over the pool:
/// AnswerBatchVectorizedTo minus the route it performs, each timed over
/// the whole pool in one span.
double ForwardSelfNs(const NeuroSketch& s, const Inputs& in, size_t b) {
  std::vector<std::vector<QueryInstance>> batches;
  for (size_t i = 0; i + b <= in.pool.size(); i += b) {
    batches.emplace_back(in.pool.begin() + i, in.pool.begin() + i + b);
  }
  const double n = static_cast<double>(batches.size() * b);
  std::vector<double> out(b);
  Clock::time_point t0 = Clock::now();
  for (const auto& batch : batches) {
    s.AnswerBatchVectorizedTo(batch, out.data());
  }
  const double fwd = NsBetween(t0, Clock::now());
  size_t misses = 0;
  t0 = Clock::now();
  for (const auto& batch : batches) {
    for (const auto& q : batch) misses += s.tree().Route(q) == nullptr;
  }
  const double route = NsBetween(t0, Clock::now());
  if (misses > 0) throw std::runtime_error("route miss on a pool query");
  return (fwd - route) / n;
}

/// One round of a traced run: an untraced, a traced and a null-layer pass
/// of the same plan, plus one replay.
struct Round {
  double qps = 0.0, qps_traced = 0.0, qps_null = 0.0;
  ServeStats traced;
  Replay replay;
};

/// The layer-sum check, per query in ns: the untraced end-to-end time
/// against the engine's own overhead (the null-layer pass) plus the
/// replayed self-times of every layer the serve path calls.
struct LayerSum {
  double e2e, overhead, lookup, route, forward, delta, exact, residual;
};

LayerSum LayerSumOf(const Round& rd, double q) {
  const Replay& r = rd.replay;
  LayerSum s;
  s.e2e = 1e9 / rd.qps;
  s.overhead = 1e9 / rd.qps_null;
  s.lookup = (r.Total("lookup") + r.Total("faultin")) / q;
  const double route_call =
      r.Total("route") / std::max<uint64_t>(1, r.Calls("route"));
  // The forward pass routes once; the delta path routes every query again.
  s.route = route_call * (r.appended_rows > 0 ? 2 : 1);
  s.forward = r.Total("forward") / q - route_call;
  s.delta = (r.Total("append") + r.Total("snap") + r.Total("scan")) / q;
  s.exact = r.Total("exact") / q;
  s.residual = (s.e2e - s.overhead - s.lookup - s.route - s.forward -
                s.delta - s.exact) /
               s.e2e;
  return s;
}

// ----------------------------------------------------------------- main
int Run(const Args& args) {
  Report report;
  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "nsbench: cannot affine to one CPU\n");
    return 2;
  }
  // The f64 tier is the one measured: strip the CI hooks that would make
  // Train compile (and pay for) a narrower tier.
  unsetenv("NEUROSKETCH_FORCE_F32_PLANS");
  unsetenv("NEUROSKETCH_FORCE_INT8_PLANS");

  // Setup, several times: setup_s is the median, each at the probe's
  // nominal speed (probes before and after it); every repetition must
  // build bit-identical sketch images.
  SpeedProbe probe;
  std::vector<double> setup_s, setup_raw_s, train_s;
  std::unique_ptr<Fixture> f;
  uint64_t digest = 0;
  bool correct = true;
  double probe_ns = probe.Run();
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    f = Setup(args.workload, args.workdir);
    const double before_ns = probe_ns;
    probe_ns = probe.Run();
    setup_raw_s.push_back(f->setup_s);
    setup_s.push_back(f->setup_s * SpeedProbe::kNominalNs /
                      (0.5 * (before_ns + probe_ns)));
    train_s.push_back(f->train_s);
    if (rep == 0) digest = f->digest;
    if (f->digest != digest) {
      correct = false;
      report.Note("FAIL determinism: sketch images differ between setups");
    }
  }
  for (const auto& s : f->sketches) {
    if (s->plan_precision() != PlanPrecision::kF64) correct = false;
  }

  report.Note(Fmt("env workload=%s seed=%llu trace=%d nproc=%ld cpuset=%d "
                  "clients=1 num_shards=1 exact_batch_threads=1 "
                  "train_threads=1 batch_window_us=0 refresh_controller=off "
                  "plan_tier=%s stage_tracing_timed=off",
                  args.workload.c_str(), (unsigned long long)args.seed,
                  args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), cpu,
                  PlanPrecisionName(f->sketches[0]->plan_precision())));

  const Inputs in = MakeInputs(*f, args.seed);
  const Plan plan = MakePlan(args.workload, *f, in, args.seed);
  const size_t nq = plan.num_queries();
  report.Note(Fmt("plan requests=%zu queries=%zu window=%zu max_batch=%zu "
                  "exact_recomputes=%llu rows_appended=%llu",
                  plan.num_requests(), nq, plan.window, plan.max_batch,
                  (unsigned long long)plan.expect_exact_count,
                  (unsigned long long)plan.rows_appended));

  uint64_t attempted = 0, failed = 0;
  Audit audit0;
  bool have_audit = false;
  auto account = [&](const PassOut& o) {
    attempted += nq + plan.phases.size() * (plan.rows_appended > 0 ? 1 : 0);
    failed += o.failed;
    const std::string shape = CheckShape(plan, o.audit);
    if (!shape.empty()) {
      correct = false;
      report.Note("FAIL pass shape: " + shape + ": " + o.audit.ToString());
    }
    if (!have_audit) {
      audit0 = o.audit;
      have_audit = true;
    } else if (!(o.audit == audit0)) {
      correct = false;
      report.Note("FAIL determinism: pass counts differ: " +
                  o.audit.ToString());
    }
  };

  // Warm-up pass: lazy set-up (thread pool, workspace arenas, page cache)
  // finishes before timing; its answers are still checked.
  account(RunPass(args.workload, *f, in, plan, false, false));
  // Peak memory of the program at steady state, before the timed loop
  // stores latency samples.
  const double peak_rss_mb = PeakRssMb();

  // Timed loop. An untraced run repeats untraced passes. A traced run
  // repeats rounds of an untraced, a traced and a null-layer pass plus
  // one replay, so each round's layer sum compares figures measured
  // within seconds of each other on the same CPU.
  std::vector<double> qps, p50, lat, probes;
  std::vector<Round> rounds;
  double nmae = -1.0;
  if (!args.trace) probes.push_back(probe.Run());
  const Clock::time_point start = Clock::now();
  const size_t min_passes = args.trace ? 3 : kMinPasses;
  while (qps.size() < min_passes ||
         NsBetween(start, Clock::now()) * 1e-9 < args.seconds) {
    PassOut o = RunPass(args.workload, *f, in, plan, false, false);
    account(o);
    qps.push_back(o.qps(nq));
    p50.push_back(Percentile(o.latency_us, 50));
    lat.insert(lat.end(), o.latency_us.begin(), o.latency_us.end());
    if (nmae < 0.0) nmae = stats::NormalizedMae(plan.truth, o.served);
    if (!args.trace) {
      probes.push_back(probe.Run());
      continue;
    }
    Round rd;
    rd.qps = qps.back();
    PassOut t = RunPass(args.workload, *f, in, plan, true, false);
    account(t);
    rd.qps_traced = t.qps(nq);
    rd.traced = t.stats;
    rd.qps_null = RunPass(args.workload, *f, in, plan, false, true).qps(nq);
    rd.replay = RunReplay(args.workload, *f, in, plan);
    const Replay& r = rd.replay;
    failed += r.mismatches;
    if (r.faultins != audit0.faultins || r.evictions != audit0.evictions ||
        r.hits != audit0.hits || r.exact_queries != plan.expect_exact_count ||
        r.appended_rows != plan.rows_appended ||
        (!rounds.empty() &&
         r.rows_scanned != rounds.front().replay.rows_scanned)) {
      correct = false;
      report.Note("FAIL determinism: replay counts differ from served pass");
    }
    rounds.push_back(std::move(rd));
  }
  report.Note("audit " + audit0.ToString());
  report.Note(Fmt("passes=%zu pass_qps ", qps.size()) + Quartiles(qps));
  // Host slowness of each pass: the mean of the probes on either side of
  // it over the nominal probe time (1 = the development VM's speed).
  std::vector<double> slow;
  for (size_t i = 0; i + 1 < probes.size(); ++i) {
    slow.push_back(0.5 * (probes[i] + probes[i + 1]) / SpeedProbe::kNominalNs);
  }
  std::string per_pass =
      args.trace ? "per_pass qps,p50_us:" : "per_pass qps,p50_us,slowness:";
  for (size_t i = 0; i < qps.size(); ++i) {
    per_pass += Fmt(" %.6g,%.6g", qps[i], p50[i]);
    if (!args.trace) per_pass += Fmt(",%.4g", slow[i]);
  }
  report.Note(per_pass);
  report.Note("pass_p50_us " + Quartiles(p50));
  report.Note(Fmt("latency pooled samples=%zu beyond_p99=%zu p50_us=%.6g "
                  "p99_us=%.6g",
                  lat.size(), lat.size() / 100, Percentile(lat, 50),
                  Percentile(lat, 99)));

  if (!args.trace) {
    // Medians over passes of each pass's figure at the probe's nominal
    // speed: the host's speed moves between and within runs, and the
    // probes on either side of a pass measure it (see perfbench/README.md).
    std::vector<double> qps_at, p50_at;
    for (size_t i = 0; i < qps.size(); ++i) {
      qps_at.push_back(qps[i] * slow[i]);
      p50_at.push_back(p50[i] / slow[i]);
    }
    report.Note("host_slowness " + Quartiles(slow) +
                Fmt(" probe_nominal_ns=%.6g", SpeedProbe::kNominalNs));
    std::string setups = "setup_s raw,at_nominal:";
    for (size_t i = 0; i < setup_s.size(); ++i) {
      setups += Fmt(" %.4g,%.4g", setup_raw_s[i], setup_s[i]);
    }
    report.Note(setups);
    report.Add("qps", Median(qps_at), "1/s");
    report.Add("p50_us", Median(p50_at), "us");
    report.Add("nmae", nmae, "ratio");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("peak_rss_mb", peak_rss_mb, "MiB");
    if (!f->catalog_path.empty()) std::remove(f->catalog_path.c_str());
    report.Print(correct && failed == 0, attempted, failed);
    return 0;
  }

  // ------------------------------------------------------ traced run
  auto med = [&](auto&& fn) {
    std::vector<double> v;
    for (const Round& rd : rounds) v.push_back(fn(rd));
    return Median(v);
  };
  const double q = static_cast<double>(nq);
  const LayerSum sum{
      med([&](const Round& rd) { return LayerSumOf(rd, q).e2e; }),
      med([&](const Round& rd) { return LayerSumOf(rd, q).overhead; }),
      med([&](const Round& rd) { return LayerSumOf(rd, q).lookup; }),
      med([&](const Round& rd) { return LayerSumOf(rd, q).route; }),
      med([&](const Round& rd) { return LayerSumOf(rd, q).forward; }),
      med([&](const Round& rd) { return LayerSumOf(rd, q).delta; }),
      med([&](const Round& rd) { return LayerSumOf(rd, q).exact; }),
      med([&](const Round& rd) { return LayerSumOf(rd, q).residual; })};
  const double trace_overhead =
      med([](const Round& rd) { return rd.qps / rd.qps_traced - 1.0; });
  report.Note(Fmt("layer_sum rounds=%zu e2e_ns_per_query=%.1f overhead=%.1f "
                  "lookup=%.1f route=%.1f forward_self=%.1f delta=%.1f "
                  "exact=%.1f residual_frac=%.4f trace_overhead_frac=%.4f",
                  rounds.size(), sum.e2e, sum.overhead, sum.lookup, sum.route,
                  sum.forward, sum.delta, sum.exact, sum.residual,
                  trace_overhead));
  if ((args.workload == "point" || args.workload == "batch") &&
      std::fabs(sum.residual) > kLayerSumTolerance) {
    correct = false;
    report.Note(Fmt("FAIL layer sum: residual %.4f exceeds %.2f",
                    sum.residual, kLayerSumTolerance));
  }

  // Serial round trip: one request in flight at a time (diagnostic).
  std::vector<double> roundtrip;
  {
    std::unique_ptr<SketchStore> store = MakeStore("point", *f, false);
    ServeOptions o = Options(plan, false);
    o.max_batch = 1;
    ServeEngine eng(store.get(), o);
    for (size_t i = 0; i < 2200; ++i) {
      const Clock::time_point t0 = Clock::now();
      (void)eng.Answer(kDataset, f->spec, in.pool[i % in.pool.size()]);
      if (i >= 200) roundtrip.push_back(NsBetween(t0, Clock::now()) * 1e-3);
    }
  }

  // Catalog entry load (paged): every entry once, median.
  std::vector<double> load_entry_us;
  if (args.workload == "paged") {
    Result<PagedCatalogReader> reader =
        PagedCatalogReader::Open(f->catalog_path);
    if (!reader.ok()) throw std::runtime_error("open catalog");
    for (const auto& e : reader.value().entries()) {
      const Clock::time_point t0 = Clock::now();
      Result<NeuroSketch> s = reader.value().LoadEntry(e);
      load_entry_us.push_back(NsBetween(t0, Clock::now()) * 1e-3);
      if (!s.ok()) ++failed;
    }
    std::remove(f->catalog_path.c_str());
  }

  size_t plan_bytes = 0;
  for (size_t k = 0; k < plan.key_spec.size(); ++k) {
    plan_bytes +=
        f->sketches[k % f->sketches.size()]->PlanBytes(PlanPrecision::kF64);
  }
  std::vector<double> fwd1, fwd256;
  for (size_t i = 0; i < 3; ++i) {
    fwd1.push_back(ForwardSelfNs(*f->sketches[0], in, 1));
    fwd256.push_back(ForwardSelfNs(*f->sketches[0], in, 256));
  }
  const Replay& r0 = rounds.front().replay;
  const ServeStats& st = rounds.front().traced;
  uint64_t backpressure = 0;
  for (const auto& sh : st.per_shard) backpressure += sh.backpressure_waits;
  auto per_call = [&](const char* layer, double scale) {
    return med([&](const Round& rd) {
      return rd.replay.Total(layer) * scale /
             std::max<uint64_t>(1, rd.replay.Calls(layer));
    });
  };

  report.Add("serve_engine.overhead_ns_per_query", sum.overhead, "ns");
  report.Add("serve_engine.layer_residual_frac", sum.residual, "ratio");
  report.Add("serve_engine.batches_per_query",
             static_cast<double>(st.batches) / st.queries, "ratio");
  report.Add("serve_engine.mean_batch_size", st.mean_batch_size, "count");
  report.Add("serve_engine.backpressure_waits", backpressure, "count");
  report.Add("serve_engine.queue_us_p50",
             med([](const Round& rd) { return rd.traced.stage_queue.p50_us; }),
             "us");
  report.Add("serve_engine.assembly_us_p50", med([](const Round& rd) {
               return rd.traced.stage_assembly.p50_us;
             }),
             "us");
  report.Add("serve_engine.fulfill_us_p50", med([](const Round& rd) {
               return rd.traced.stage_fulfill.p50_us;
             }),
             "us");
  report.Add("serve_engine.roundtrip_serial_us_p50", Median(roundtrip), "us");
  report.Add("sketch_store.lookup_ns", per_call("lookup", 1.0), "ns");
  report.Add("sketch_store.faultins", audit0.faultins, "count");
  report.Add("sketch_store.evictions", audit0.evictions, "count");
  report.Add("sketch_store.hit_ratio",
             args.workload == "paged"
                 ? static_cast<double>(audit0.hits) /
                       std::max<uint64_t>(1, audit0.hits + audit0.faultins)
                 : 1.0,
             "ratio");
  report.Add("sketch_store.faultin_us_p50", med([](const Round& rd) {
               return Median(rd.replay.PerCall("faultin")) * 1e-3;
             }),
             "us");
  report.Add("sketch_store.peak_resident_bytes", r0.peak_resident_bytes,
             "bytes");
  report.Add("catalog.load_entry_us", Median(load_entry_us), "us");
  report.Add("kdtree.route_ns_per_query", sum.route, "ns");
  report.Add("neurosketch.forward_ns_per_query_b256", Median(fwd256), "ns");
  report.Add("neurosketch.forward_ns_per_query_b1", Median(fwd1), "ns");
  report.Add("neurosketch.train_s", Median(train_s), "s");
  report.Add("neurosketch.plan_bytes", plan_bytes, "bytes");
  report.Add("delta_buffer.append_ns_per_row", per_call("append", 1.0), "ns");
  report.Add("delta_buffer.snap_ns", per_call("snap", 1.0), "ns");
  report.Add("delta_buffer.rows_scanned_per_query", r0.rows_scanned / q,
             "count");
  report.Add("delta_buffer.scan_ns_per_query",
             med([&](const Round& rd) { return rd.replay.Total("scan") / q; }),
             "ns");
  report.Add("delta_buffer.match_ratio",
             r0.matched_queries /
                 static_cast<double>(std::max<uint64_t>(1, r0.scanned_queries)),
             "ratio");
  report.Add("engine.accumulate_us_per_query", per_call("exact", 1e-3), "us");
  report.Add("engine.exact_answer_frac", r0.exact_queries / q, "ratio");
  report.Add("engine.rows_scanned_per_query", r0.exact_rows / q, "count");
  report.Add("trace.overhead_frac", trace_overhead, "ratio");
  report.Print(correct && failed == 0, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace nsbench

int main(int argc, char** argv) {
  nsbench::Args args;
  if (!nsbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nsbench --workload point|batch|paged|stream "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  try {
    return nsbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nsbench: %s\n", e.what());
    return 1;
  }
}
