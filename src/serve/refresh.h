// RefreshController: the drift-driven online refresh loop that closes the
// streaming story. Each registered target pairs a served (dataset, query
// function) key with a DriftMonitor probe set; a refresh pass re-answers
// the probes on the *appended* data (base table + live delta rows), flags
// the kd-tree leaves whose region drifted, retrains ONLY those leaves on a
// private copy of the sketch, validates the result against the drift
// policy bound, and atomically swaps the new version into the SketchStore
// (readers never block: in-flight batches keep their pinned shared_ptr).
// A refresh that throws or produces an out-of-bound sketch leaves the old
// version serving and counts a failure; a failure streak demotes the store
// through the serve engine's error budget so drift that outruns refresh
// falls back to exact serving instead of serving stale sketch answers.
#ifndef NEUROSKETCH_SERVE_REFRESH_H_
#define NEUROSKETCH_SERVE_REFRESH_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/drift.h"
#include "core/neurosketch.h"
#include "query/query.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/metrics.h"
#include "util/status.h"

namespace neurosketch {
namespace serve {

struct RefreshOptions {
  /// Background cadence of Start()'s loop; each tick refreshes every
  /// registered target whose drift probe recommends it.
  int64_t interval_ms = 1000;
  /// Consecutive failed refreshes of one target before the store is
  /// demoted to exact serving (0 disables demotion).
  size_t max_failures_before_demote = 3;
  /// Compaction trigger: after each pass, any streaming dataset whose
  /// delta holds at least this many resident rows is compacted through
  /// SketchStore::Compact (0 = the controller never compacts). A
  /// successful refresh swap advances the fold watermarks, so triggering
  /// right after a pass is what keeps delta residency bounded under
  /// sustained ingest.
  size_t compact_min_rows = 0;
};

/// \brief One (dataset, query function) under refresh management.
struct RefreshTarget {
  std::string dataset;
  DriftMonitor monitor;  ///< probes + policy; monitor.spec() names the key
  /// Retrain configuration: must match the deployed sketch's build config
  /// (seeds, architecture, train schedule) for the bit-identity contract
  /// of NeuroSketch::RetrainLeaves to hold. `config.train_threads` is the
  /// retrain parallelism.
  NeuroSketchConfig config;
  /// Training queries for the partial retrain; answered exactly over
  /// base + delta each refresh. Empty = reuse the monitor's probes.
  std::vector<QueryInstance> train_queries;
};

/// \brief What one refresh pass did for one target.
struct RefreshOutcome {
  bool probed = false;       ///< drift probe ran (sketch + engine found)
  bool retrained = false;    ///< stale leaves were retrained
  bool swapped = false;      ///< new version registered in the store
  bool failed = false;       ///< retrain threw or validated out of bound
  bool demoted = false;      ///< this failure crossed the demotion streak
  size_t retrained_leaves = 0;
  /// Times the post-retrain validation demoted the serving tier
  /// (f32 -> f64) because the f32 tier was out of bound on the probe set.
  size_t tier_fallbacks = 0;
  std::vector<int> stale_leaves;  ///< what the probe flagged
  double pre_mae = 0.0;      ///< probe normalized MAE before retrain
  double post_mae = 0.0;     ///< after retrain (== pre when not retrained)
  std::string message;       ///< failure detail, empty on success
};

/// \brief Counters across all targets since construction.
struct RefreshStats {
  uint64_t runs = 0;              ///< refresh passes that probed a target
  uint64_t swaps = 0;             ///< new versions registered
  uint64_t retrained_leaves = 0;  ///< leaves retrained across all swaps
  uint64_t failures = 0;          ///< refreshes discarded (throw / bound)
  uint64_t demotions = 0;         ///< stores demoted by failure streaks
  uint64_t skipped = 0;           ///< passes where drift was in bound
  uint64_t tier_fallbacks = 0;    ///< validation-driven tier demotions
  uint64_t compactions = 0;       ///< threshold-triggered Compact calls that
                                  ///< folded rows
  uint64_t compaction_folded_rows = 0;  ///< rows those folds moved into base
};

/// \brief Drift-driven background refresher over a SketchStore.
///
/// Thread-safety: AddTarget / RefreshNow / RefreshAll / Stats may be
/// called from any thread; one refresh pass runs at a time (a mutex
/// serializes them — retraining is the expensive step and overlapping
/// passes on one store would fight over the same versions). Serving is
/// never blocked: refresh works on copies and publishes via the store's
/// atomic version swap.
class RefreshController {
 public:
  /// `store` must outlive the controller. `engine` may be nullptr (no
  /// demotion — failures only count); when set it must outlive it too.
  RefreshController(SketchStore* store, ServeEngine* engine,
                    RefreshOptions options = {});
  ~RefreshController();  // Stop()s the background thread

  void AddTarget(RefreshTarget target);

  /// \brief Fault-injection hook for tests: called with the private
  /// retrained copy after RetrainLeaves succeeds and before validation.
  /// Throwing exercises the exception path; mutating the sketch into an
  /// out-of-bound state exercises the validation-fallback path. Either
  /// way the old version must keep serving.
  void SetFaultHook(std::function<void(NeuroSketch*)> hook);

  /// \brief Synchronously refresh one target (probe, maybe retrain, maybe
  /// swap). InvalidArgument when no such target is registered;
  /// FailedPrecondition when the target has no sketch or no exact engine
  /// to probe with. A *failed refresh* (fault hook throw, out-of-bound
  /// validation) is NOT a Status error — it returns OK with
  /// outcome.failed=true, because the controller handled it: the old
  /// version is still serving.
  Result<RefreshOutcome> RefreshNow(const std::string& dataset,
                                    const QueryFunctionSpec& spec);

  /// \brief Refresh every registered target once, in registration order.
  std::vector<RefreshOutcome> RefreshAll();

  /// \brief Start / stop the background loop (idempotent). The loop runs
  /// RefreshAll every `interval_ms`.
  void Start();
  void Stop();

  RefreshStats Stats() const;

  /// \brief Export nsketch_serve_refresh_* counter/gauge/histogram series.
  void ExportMetrics(metrics::MetricsRegistry* registry,
                     const std::string& prefix = "nsketch_serve_") const;

 private:
  RefreshOutcome RefreshTargetLocked(RefreshTarget& target);
  /// Threshold-policy compaction for one dataset (no-op below threshold
  /// or when the options disable compaction). Caller holds run_mu_.
  void MaybeCompactLocked(const std::string& dataset);

  SketchStore* store_;
  ServeEngine* engine_;  // may be nullptr
  RefreshOptions options_;

  mutable std::mutex mu_;  // targets, streaks, stats, hook, last-MAE map
  std::vector<RefreshTarget> targets_;
  std::map<std::string, size_t> failure_streak_;  // by store label
  std::map<std::string, double> last_mae_;        // by store label
  RefreshStats stats_;
  std::function<void(NeuroSketch*)> fault_hook_;
  metrics::LogHistogram refresh_duration_us_;

  std::mutex run_mu_;  // serializes refresh passes

  std::thread loop_;
  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool running_ = false;
  bool stop_requested_ = false;
};

}  // namespace serve
}  // namespace neurosketch

#endif  // NEUROSKETCH_SERVE_REFRESH_H_
