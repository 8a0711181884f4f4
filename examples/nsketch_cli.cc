// nsketch_cli — train, query and evaluate NeuroSketches from the command
// line, using CSV data and the parametric-SQL front end (Sec. 4.3).
//
//   nsketch_cli train <data.csv> "<sql template>" <out.sketch> [n_train]
//                     [f64|f32]
//       Trains a sketch for the query function denoted by the template
//       (e.g. "SELECT AVG(duration) FROM t WHERE latitude BETWEEN ?a AND
//       ?b AND longitude BETWEEN ?c AND ?d"). Writes <out.sketch> plus a
//       <out.sketch>.norm sidecar holding the column normalization so
//       query-time parameters can be given in original units. The final
//       argument selects the compiled-plan precision tier (default f64);
//       f32 is validated against the f64 reference on the training
//       workload and automatically falls back to f64 when out of bound.
//
//   nsketch_cli query <out.sketch> "<sql template>" <data.csv> <p1> <p2> ...
//       Binds the parameters (original units) and answers from the sketch
//       alone; the CSV is read only for its schema header.
//
//   nsketch_cli eval <data.csv> "<sql template>" <out.sketch> [n_test]
//       Compares the sketch against the exact engine on a random workload
//       of the template's parameters.
//
//   nsketch_cli serve <data.csv> "<sql template>" <out.sketch> [n_queries]
//                     [n_clients] [metrics_interval_s] [n_shards]
//       Serves a random workload of the template's parameters through the
//       concurrent micro-batching engine (serve/): n_clients threads
//       submit bursts, answered by the sketch with exact-engine fallback;
//       prints throughput, latency percentiles and the fallback rate.
//       n_shards sets the dispatcher shard count (0 or omitted = one per
//       hardware thread).
//       When the sketch file cannot be loaded, serving runs exact-only —
//       the fallback path end to end. A positive metrics_interval_s dumps
//       the metrics registry (text exposition) every that-many seconds
//       while serving, and once more at the end.
//
//   nsketch_cli stream <data.csv> "<sql template>" <out.sketch> [n_queries]
//                      [n_clients] [append_frac] [refresh_interval_ms]
//                      [max_nmae] [compact_min_rows]
//       Streaming-ingest serving: the last append_frac (default 0.2) of
//       the CSV's rows are held back and appended live while n_clients
//       serve the workload — answers stay exact at all times via the
//       delta composition (sketch answer + exact correction over the
//       unfolded delta rows). A background refresh loop (every
//       refresh_interval_ms, default 100; 0 disables it) probes for
//       drift against the appended data, retrains only the kd-tree
//       leaves whose region drifted past max_nmae (default 0.2), and
//       atomically swaps the new sketch version in; a failure streak
//       demotes the store to exact serving. The base lives in a
//       swappable StreamingTable, and the refresh loop also compacts:
//       once the resident delta crosses compact_min_rows (default 4096;
//       0 disables), safely-folded rows move into the base table and
//       their delta storage is trimmed, so the buffer stays bounded
//       under sustained appends. Prints serve stats, delta / refresh /
//       compaction counters, and the metrics registry document.
//
//   nsketch_cli catalog pack <data.csv> <out.cat> "<sql>" <file.sketch>
//                            ["<sql>" <file.sketch> ...]
//       Packs previously-trained sketches into one paged catalog file
//       (core/WritePagedCatalog): an offset index followed by the
//       serialized images, keyed by each template's query-function
//       identity. The CSV is read only for its schema header.
//
//   nsketch_cli catalog serve <data.csv> <catalog.cat> "<sql template>"
//                             [n_queries] [n_clients] [max_resident_mb]
//       Serves a workload of the template's parameters from a paged
//       catalog: sketches start cold (disk-resident) and fault in through
//       the store's buffer pool under the given resident budget
//       (0 or omitted = unbounded). Prints throughput plus the pool's
//       residency, fault-in and eviction stats.
//
//   nsketch_cli metrics <data.csv> "<sql template>" [n_train] [n_queries]
//       One-shot observability dump: trains a small sketch in-process,
//       serves a workload through the micro-batching engine, then prints
//       one uniform metrics document (Prometheus-style text exposition)
//       covering both build metrics (nsketch_build_*) and serve metrics
//       (nsketch_serve_*), followed by the slowest captured queries.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/neurosketch.h"
#include "data/normalizer.h"
#include "data/streaming_table.h"
#include "data/table.h"
#include "query/parametric.h"
#include "serve/refresh.h"
#include "serve/serve_engine.h"
#include "serve/sketch_store.h"
#include "util/csv.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace neurosketch;

namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

Status SaveNormalizer(const Normalizer& norm, const Schema& schema,
                      const std::string& path) {
  std::vector<std::vector<double>> rows;
  for (size_t c = 0; c < norm.num_columns(); ++c) {
    rows.push_back({static_cast<double>(c), norm.lo(c), norm.hi(c)});
  }
  (void)schema;
  return csv::WriteNumeric(path, {"col", "lo", "hi"}, rows);
}

Result<std::vector<std::pair<double, double>>> LoadNormalizer(
    const std::string& path) {
  NS_ASSIGN_OR_RETURN(csv::NumericCsv parsed, csv::ReadNumeric(path));
  std::vector<std::pair<double, double>> out;
  for (const auto& row : parsed.rows) {
    if (row.size() != 3) return Status::InvalidArgument("bad norm sidecar");
    out.emplace_back(row[1], row[2]);
  }
  return out;
}

/// Predicate columns are queried in normalized coordinates, but the
/// measure column keeps original units (so answers read naturally) unless
/// the template also constrains it.
Table PrepareQueryTable(const Table& raw, const Normalizer& norm,
                        const ParametricQuery& pq) {
  Table table = norm.Transform(raw);
  const size_t measure = pq.spec().measure_col;
  for (size_t col : pq.parameter_columns()) {
    if (col == measure) return table;  // measure constrained: stay normalized
  }
  table.column(measure) = raw.column(measure);
  return table;
}

/// Random parameter draws for a template: each attribute's (lo, hi) pair
/// is drawn as a sub-interval of [0,1]; one-sided parameters uniform.
std::vector<QueryInstance> RandomWorkload(const ParametricQuery& pq,
                                          size_t n, Rng* rng) {
  std::vector<QueryInstance> out;
  const size_t num_params = pq.parameter_names().size();
  size_t guard = 0;
  while (out.size() < n && guard++ < n * 50) {
    std::vector<double> params(num_params);
    for (auto& p : params) p = rng->Uniform();
    auto q = pq.Bind(params);
    if (q.ok()) out.push_back(std::move(q).value());
  }
  return out;
}

int CmdTrain(int argc, char** argv) {
  if (argc < 5) return Fail(Status::InvalidArgument("train needs 3+ args"));
  const std::string csv_path = argv[2], sql = argv[3], out_path = argv[4];
  const size_t n_train = argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 4000;
  PlanPrecision precision = PlanPrecision::kF64;
  if (argc > 6) {
    const std::string tier = argv[6];
    if (tier == "f32") {
      precision = PlanPrecision::kF32;
    } else if (tier != "f64") {
      return Fail(Status::InvalidArgument("precision must be f64 or f32"));
    }
  }

  auto table_r = Table::FromCsvFile(csv_path);
  if (!table_r.ok()) return Fail(table_r.status());
  const Table& raw = table_r.value();
  Normalizer norm = Normalizer::Fit(raw);

  auto pq = ParametricQuery::Parse(sql, raw.schema());
  if (!pq.ok()) return Fail(pq.status());
  Table table = PrepareQueryTable(raw, norm, pq.value());

  ExactEngine engine(&table);
  Rng rng(4242);
  Timer gen_timer;
  auto queries = RandomWorkload(pq.value(), n_train, &rng);
  auto answers = engine.AnswerBatch(pq.value().spec(), queries, 8);
  std::printf("generated %zu training answers in %.1fs\n", queries.size(),
              gen_timer.ElapsedSeconds());

  NeuroSketchConfig config;
  config.train.epochs = 150;
  config.plan_precision = precision;
  Timer train_timer;
  auto sketch = NeuroSketch::Train(queries, answers, config);
  if (!sketch.ok()) return Fail(sketch.status());
  std::printf("trained %zu partitions in %.1fs (%.1f KB)\n",
              sketch.value().num_partitions(), train_timer.ElapsedSeconds(),
              sketch.value().SizeBytes() / 1024.0);
  if (precision != PlanPrecision::kF64) {
    const NeuroSketch& ns = sketch.value();
    std::printf("plan precision: %s (max f32 divergence %.3g, bound %.3g)%s\n",
                PlanPrecisionName(ns.plan_precision()),
                ns.f32_max_divergence(), ns.f32_error_bound(),
                ns.plan_precision() == precision
                    ? ""
                    : " — fell back from the requested tier");
  }
  Status st = sketch.value().Save(out_path);
  if (!st.ok()) return Fail(st);
  st = SaveNormalizer(norm, raw.schema(), out_path + ".norm");
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s and %s.norm\n", out_path.c_str(), out_path.c_str());
  // Emit the build phases / tier divergences as the same uniform metrics
  // document the serve side produces (see docs/OBSERVABILITY.md).
  metrics::MetricsRegistry reg;
  sketch.value().ExportBuildMetrics(&reg);
  std::printf("-- build metrics --\n%s", reg.TextExposition().c_str());
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 5) return Fail(Status::InvalidArgument("query needs 3+ args"));
  const std::string sketch_path = argv[2], sql = argv[3], csv_path = argv[4];

  auto table_r = Table::FromCsvFile(csv_path);
  if (!table_r.ok()) return Fail(table_r.status());
  auto pq = ParametricQuery::Parse(sql, table_r.value().schema());
  if (!pq.ok()) return Fail(pq.status());
  auto ranges = LoadNormalizer(sketch_path + ".norm");
  if (!ranges.ok()) return Fail(ranges.status());
  auto sketch = NeuroSketch::Load(sketch_path);
  if (!sketch.ok()) return Fail(sketch.status());

  const size_t want = pq.value().parameter_names().size();
  if (static_cast<size_t>(argc - 5) != want) {
    return Fail(Status::InvalidArgument(
        "template needs " + std::to_string(want) + " parameters"));
  }
  // Parameters arrive in original units; normalize each using the column
  // it constrains (exposed by the parser).
  std::vector<double> normed(want);
  for (size_t i = 0; i < want; ++i) {
    const double raw = std::strtod(argv[5 + i], nullptr);
    const size_t col = pq.value().parameter_columns()[i];
    if (col >= ranges.value().size()) {
      return Fail(Status::OutOfRange("norm sidecar missing column"));
    }
    const auto [lo, hi] = ranges.value()[col];
    normed[i] = (raw - lo) / (hi - lo);
  }
  auto q = pq.value().Bind(normed);
  if (!q.ok()) return Fail(q.status());
  const double answer = sketch.value().Answer(q.value());
  std::printf("%s = %.6f\n", pq.value().aggregate_name().c_str(), answer);
  return 0;
}

int CmdEval(int argc, char** argv) {
  if (argc < 5) return Fail(Status::InvalidArgument("eval needs 3+ args"));
  const std::string csv_path = argv[2], sql = argv[3], sketch_path = argv[4];
  const size_t n_test = argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 300;

  auto table_r = Table::FromCsvFile(csv_path);
  if (!table_r.ok()) return Fail(table_r.status());
  Normalizer norm = Normalizer::Fit(table_r.value());
  auto pq = ParametricQuery::Parse(sql, table_r.value().schema());
  if (!pq.ok()) return Fail(pq.status());
  Table table = PrepareQueryTable(table_r.value(), norm, pq.value());
  auto sketch = NeuroSketch::Load(sketch_path);
  if (!sketch.ok()) return Fail(sketch.status());

  ExactEngine engine(&table);
  Rng rng(777);
  auto queries = RandomWorkload(pq.value(), n_test, &rng);
  Timer exact_t;
  auto truth = engine.AnswerBatch(pq.value().spec(), queries, 8);
  const double exact_us = exact_t.ElapsedMicros() / queries.size();
  Timer sk_t;
  auto pred = sketch.value().AnswerBatch(queries);
  const double sketch_us = sk_t.ElapsedMicros() / queries.size();
  std::vector<double> t2, p2;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (std::isnan(truth[i]) || std::isnan(pred[i])) continue;
    t2.push_back(truth[i]);
    p2.push_back(pred[i]);
  }
  std::printf("queries: %zu | norm MAE: %.4f | sketch %.2f us/q | exact "
              "%.2f us/q\n",
              t2.size(), stats::NormalizedMae(t2, p2), sketch_us, exact_us);
  return 0;
}

int CmdServe(int argc, char** argv) {
  if (argc < 5) return Fail(Status::InvalidArgument("serve needs 3+ args"));
  const std::string csv_path = argv[2], sql = argv[3], sketch_path = argv[4];
  const size_t n_queries =
      argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 20000;
  const size_t n_clients = argc > 6 ? std::strtoul(argv[6], nullptr, 10) : 4;
  const double metrics_interval_s =
      argc > 7 ? std::strtod(argv[7], nullptr) : 0.0;
  const size_t n_shards = argc > 8 ? std::strtoul(argv[8], nullptr, 10) : 0;
  if (n_queries == 0 || n_clients == 0) {
    return Fail(Status::InvalidArgument(
        "n_queries and n_clients must be positive integers"));
  }

  auto table_r = Table::FromCsvFile(csv_path);
  if (!table_r.ok()) return Fail(table_r.status());
  Normalizer norm = Normalizer::Fit(table_r.value());
  auto pq = ParametricQuery::Parse(sql, table_r.value().schema());
  if (!pq.ok()) return Fail(pq.status());
  Table table = PrepareQueryTable(table_r.value(), norm, pq.value());
  const QueryFunctionSpec& spec = pq.value().spec();

  ExactEngine engine(&table);
  serve::SketchStore store;
  Status st = store.RegisterDataset("cli", &engine);
  if (!st.ok()) return Fail(st);
  auto version = store.RegisterFromFile("cli", spec, sketch_path);
  if (version.ok()) {
    const auto listings = store.List();
    std::printf("registered %s as version %llu (%s plans)\n",
                sketch_path.c_str(),
                static_cast<unsigned long long>(version.value()),
                listings.empty()
                    ? "?"
                    : PlanPrecisionName(listings.front().precision));
  } else {
    std::printf("no sketch (%s); serving exact-only\n",
                version.status().ToString().c_str());
  }

  Rng rng(2026);
  const auto pool = RandomWorkload(pq.value(), 4096, &rng);
  if (pool.empty()) return Fail(Status::InvalidArgument("empty workload"));

  serve::ServeOptions serve_opts;
  serve_opts.num_shards = n_shards;  // 0 = one shard per hardware thread
  serve::ServeEngine serving(&store, serve_opts);
  std::printf("serving with %zu dispatcher shard%s\n", serving.num_shards(),
              serving.num_shards() == 1 ? "" : "s");

  // Optional periodic scrape: dump the registry every interval while the
  // clients run, the way a Prometheus scraper would poll /metrics.
  std::atomic<bool> serving_done{false};
  std::thread scraper;
  if (metrics_interval_s > 0.0) {
    scraper = std::thread([&] {
      const auto interval = std::chrono::duration<double>(metrics_interval_s);
      while (!serving_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(interval);
        metrics::MetricsRegistry reg;
        serving.ExportMetrics(&reg);
        std::printf("-- metrics scrape --\n%s", reg.TextExposition().c_str());
        std::fflush(stdout);
      }
    });
  }

  Timer t;
  std::vector<std::thread> clients;
  const size_t per_client = (n_queries + n_clients - 1) / n_clients;
  for (size_t c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      constexpr size_t kBurst = 128;
      size_t done = 0;
      while (done < per_client) {
        const size_t n = std::min(kBurst, per_client - done);
        std::vector<QueryInstance> burst;
        burst.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          burst.push_back(pool[(c * per_client + done + i) % pool.size()]);
        }
        serving.SubmitMany("cli", spec, std::move(burst)).get();
        done += n;
      }
    });
  }
  for (auto& c : clients) c.join();
  const double seconds = t.ElapsedSeconds();
  serving_done.store(true, std::memory_order_relaxed);
  if (scraper.joinable()) scraper.join();

  const auto stats = serving.Snapshot();
  std::printf("served %llu queries from %zu clients in %.2fs\n",
              static_cast<unsigned long long>(stats.queries), n_clients,
              seconds);
  std::printf("  qps: %.0f | mean batch: %.1f | fallback rate: %.2f%% | "
              "f32 answers: %llu\n",
              static_cast<double>(stats.queries) / seconds,
              stats.mean_batch_size, 100.0 * stats.fallback_rate,
              static_cast<unsigned long long>(stats.f32_sketch_answers));
  std::printf("  latency p50/p95/p99/p99.9: %.0f / %.0f / %.0f / %.0f us\n",
              stats.p50_us, stats.p95_us, stats.p99_us, stats.p999_us);
  if (stats.stage_tracing && stats.stage_queue.count > 0) {
    std::printf("  stage p50 (us): queue %.0f | assembly %.0f | inference "
                "%.0f | fulfill %.0f\n",
                stats.stage_queue.p50_us, stats.stage_assembly.p50_us,
                stats.stage_inference.p50_us, stats.stage_fulfill.p50_us);
  }
  if (metrics_interval_s > 0.0) {
    metrics::MetricsRegistry reg;
    serving.ExportMetrics(&reg);
    std::printf("-- final metrics --\n%s", reg.TextExposition().c_str());
  }
  return 0;
}

int CmdStream(int argc, char** argv) {
  if (argc < 5) return Fail(Status::InvalidArgument("stream needs 3+ args"));
  const std::string csv_path = argv[2], sql = argv[3], sketch_path = argv[4];
  const size_t n_queries =
      argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 20000;
  const size_t n_clients = argc > 6 ? std::strtoul(argv[6], nullptr, 10) : 4;
  const double append_frac = argc > 7 ? std::strtod(argv[7], nullptr) : 0.2;
  const int64_t refresh_interval_ms =
      argc > 8 ? std::strtol(argv[8], nullptr, 10) : 100;
  const double max_nmae = argc > 9 ? std::strtod(argv[9], nullptr) : 0.2;
  const size_t compact_min_rows =
      argc > 10 ? std::strtoul(argv[10], nullptr, 10) : 4096;
  if (n_queries == 0 || n_clients == 0 || append_frac <= 0.0 ||
      append_frac >= 1.0) {
    return Fail(Status::InvalidArgument(
        "n_queries/n_clients must be positive and append_frac in (0,1)"));
  }

  auto table_r = Table::FromCsvFile(csv_path);
  if (!table_r.ok()) return Fail(table_r.status());
  Normalizer norm = Normalizer::Fit(table_r.value());
  auto pq = ParametricQuery::Parse(sql, table_r.value().schema());
  if (!pq.ok()) return Fail(pq.status());
  Table table = PrepareQueryTable(table_r.value(), norm, pq.value());
  const QueryFunctionSpec& spec = pq.value().spec();

  // Hold back the last append_frac of the rows: they arrive as live
  // appends while the workload is being served, so the sketch (trained
  // on the full CSV or not) is queried against a table that grows under
  // it — the delta composition keeps answers exact, and the refresh
  // loop folds the growth into the model.
  const size_t total_rows = table.num_rows();
  const size_t base_rows = total_rows -
                           static_cast<size_t>(append_frac *
                                               static_cast<double>(total_rows));
  if (base_rows == 0 || base_rows == total_rows) {
    return Fail(Status::InvalidArgument("append split leaves no rows"));
  }
  const size_t cols = table.num_columns();
  Table base(table.schema());
  std::vector<std::vector<double>> tail;
  {
    std::vector<double> row(cols);
    for (size_t i = 0; i < total_rows; ++i) {
      for (size_t c = 0; c < cols; ++c) row[c] = table.column(c)[i];
      if (i < base_rows) {
        Status st = base.AppendRow(row);
        if (!st.ok()) return Fail(st);
      } else {
        tail.push_back(row);
      }
    }
  }

  // The base is swappable so compaction can fold delta rows into it
  // while serving continues on pinned versions.
  StreamingTable streaming_base(std::move(base));
  ExactEngine engine(&streaming_base);
  serve::SketchStore store;
  Status st = store.RegisterDataset("cli", &engine);
  if (!st.ok()) return Fail(st);
  st = store.EnableStreaming("cli", cols);
  if (!st.ok()) return Fail(st);
  st = store.AttachStreamingTable("cli", &streaming_base);
  if (!st.ok()) return Fail(st);
  auto version = store.RegisterFromFile("cli", spec, sketch_path);
  if (version.ok()) {
    std::printf("registered %s as version %llu\n", sketch_path.c_str(),
                static_cast<unsigned long long>(version.value()));
  } else {
    std::printf("no sketch (%s); serving exact-only\n",
                version.status().ToString().c_str());
  }
  std::printf("base %zu rows, streaming in %zu rows while serving\n",
              base_rows, tail.size());

  Rng rng(2026);
  const auto pool = RandomWorkload(pq.value(), 4096, &rng);
  if (pool.size() < 512) {
    return Fail(Status::InvalidArgument("template workload too small"));
  }

  serve::ServeEngine serving(&store, serve::ServeOptions{});

  // Drift-driven refresh: probes and retrain queries are disjoint slices
  // of the same random workload; the policy bound is the knob.
  serve::RefreshOptions ropts;
  ropts.interval_ms = refresh_interval_ms > 0 ? refresh_interval_ms : 100;
  ropts.compact_min_rows = compact_min_rows;
  serve::RefreshController refresher(&store, &serving, ropts);
  if (version.ok() && refresh_interval_ms > 0) {
    DriftPolicy policy;
    policy.max_normalized_mae = max_nmae;
    std::vector<QueryInstance> probes(pool.begin(), pool.begin() + 256);
    std::vector<QueryInstance> retrain_q(pool.begin() + 256, pool.end());
    NeuroSketchConfig cfg;  // CmdTrain's schedule, for the partial retrain
    cfg.train.epochs = 150;
    refresher.AddTarget(serve::RefreshTarget{
        "cli", DriftMonitor(spec, std::move(probes), policy), cfg,
        std::move(retrain_q)});
    std::printf("refresh loop: every %lld ms, drift bound %.3f\n",
                static_cast<long long>(ropts.interval_ms), max_nmae);
  }
  if (refresh_interval_ms > 0) {
    // Even with no sketch target (exact-only serving) the loop's sweep
    // still compacts the delta into the base table at the threshold.
    refresher.Start();
    if (compact_min_rows > 0) {
      std::printf("compaction: folding the delta into the base past %zu "
                  "resident rows\n",
                  compact_min_rows);
    }
  }

  Timer t;
  std::thread appender([&] {
    // Spread the appends across the serving window in 256-row batches.
    for (size_t i = 0; i < tail.size(); i += 256) {
      const size_t n = std::min<size_t>(256, tail.size() - i);
      std::vector<std::vector<double>> chunk(tail.begin() + i,
                                             tail.begin() + i + n);
      (void)store.AppendRows("cli", chunk);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> clients;
  const size_t per_client = (n_queries + n_clients - 1) / n_clients;
  for (size_t c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      constexpr size_t kBurst = 128;
      size_t done = 0;
      while (done < per_client) {
        const size_t n = std::min(kBurst, per_client - done);
        std::vector<QueryInstance> burst;
        burst.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          burst.push_back(pool[(c * per_client + done + i) % pool.size()]);
        }
        serving.SubmitMany("cli", spec, std::move(burst)).get();
        done += n;
      }
    });
  }
  for (auto& c : clients) c.join();
  appender.join();
  const double seconds = t.ElapsedSeconds();
  refresher.Stop();

  const auto stats = serving.Snapshot();
  std::printf("served %llu queries in %.2fs (%.0f qps), p50/p99 %.0f/%.0f "
              "us\n",
              static_cast<unsigned long long>(stats.queries), seconds,
              static_cast<double>(stats.queries) / seconds, stats.p50_us,
              stats.p99_us);
  std::printf("  delta-corrected answers: %llu | exact recomputes: %llu | "
              "fallback rate: %.2f%%\n",
              static_cast<unsigned long long>(stats.delta_corrected_answers),
              static_cast<unsigned long long>(stats.delta_exact_answers),
              100.0 * stats.fallback_rate);
  for (const auto& [name, dstats] : store.DeltaStats()) {
    std::printf("  delta %s: %zu live rows (%llu append calls, %llu rows "
                "appended, %llu trimmed)\n",
                name.c_str(), dstats.rows,
                static_cast<unsigned long long>(dstats.appends),
                static_cast<unsigned long long>(dstats.rows_appended),
                static_cast<unsigned long long>(dstats.trimmed_rows));
  }
  for (const auto& [name, cstats] : store.CompactionStats()) {
    std::printf("  compaction %s: %llu folds, %llu rows moved into the "
                "base (table now %zu rows, fold watermark %llu)\n",
                name.c_str(),
                static_cast<unsigned long long>(cstats.compactions),
                static_cast<unsigned long long>(cstats.folded_rows),
                streaming_base.Pin()->table.num_rows(),
                static_cast<unsigned long long>(streaming_base.folded()));
  }
  const auto rstats = refresher.Stats();
  std::printf("  refresh: %llu runs, %llu swaps, %llu leaves retrained, "
              "%llu failures, %llu demotions, %llu in-bound skips\n",
              static_cast<unsigned long long>(rstats.runs),
              static_cast<unsigned long long>(rstats.swaps),
              static_cast<unsigned long long>(rstats.retrained_leaves),
              static_cast<unsigned long long>(rstats.failures),
              static_cast<unsigned long long>(rstats.demotions),
              static_cast<unsigned long long>(rstats.skipped));
  metrics::MetricsRegistry reg;
  serving.ExportMetrics(&reg);  // includes the nsketch_serve_delta_* series
  refresher.ExportMetrics(&reg);
  std::printf("-- final metrics --\n%s", reg.TextExposition().c_str());
  return 0;
}

/// Prints the slowest captured queries with their stage attribution —
/// where did each tail-latency microsecond go?
void PrintSlowQueries(const serve::ServeEngine& serving) {
  const auto slow = serving.SlowQueries();
  if (slow.empty()) return;
  std::printf("-- slowest queries --\n");
  for (const auto& q : slow) {
    std::printf("  %8.0f us total | queue %6.0f | assembly %5.0f | "
                "inference %6.0f | fulfill %5.0f | %s | %s | batch %zu\n",
                q.total_us, q.queue_us, q.assembly_us, q.inference_us,
                q.fulfill_us, q.store.c_str(), q.tier.c_str(), q.batch_size);
  }
}

int CmdCatalogPack(int argc, char** argv) {
  // argv: catalog pack <data.csv> <out.cat> "<sql>" <file> [...]
  if (argc < 7 || (argc - 5) % 2 != 0) {
    return Fail(Status::InvalidArgument(
        "catalog pack needs <data.csv> <out.cat> and (template, sketch) "
        "pairs"));
  }
  const std::string csv_path = argv[3], out_path = argv[4];
  auto table_r = Table::FromCsvFile(csv_path);
  if (!table_r.ok()) return Fail(table_r.status());

  std::vector<std::pair<QueryFunctionKey, std::shared_ptr<const NeuroSketch>>>
      sketches;
  for (int i = 5; i + 1 < argc; i += 2) {
    auto pq = ParametricQuery::Parse(argv[i], table_r.value().schema());
    if (!pq.ok()) return Fail(pq.status());
    auto sketch = NeuroSketch::Load(argv[i + 1]);
    if (!sketch.ok()) return Fail(sketch.status());
    sketches.emplace_back(
        QueryFunctionKey::From(pq.value().spec()),
        std::make_shared<const NeuroSketch>(std::move(sketch).value()));
  }
  Status st = WritePagedCatalog(out_path, sketches);
  if (!st.ok()) return Fail(st);
  size_t total = 0;
  for (const auto& [key, sk] : sketches) total += sk->SizeBytes();
  std::printf("packed %zu sketches (%.1f KB of images) into %s\n",
              sketches.size(), total / 1024.0, out_path.c_str());
  return 0;
}

int CmdCatalogServe(int argc, char** argv) {
  // argv: catalog serve <data.csv> <catalog.cat> "<sql>" [nq] [nc] [mb]
  if (argc < 6) {
    return Fail(Status::InvalidArgument(
        "catalog serve needs <data.csv> <catalog.cat> and a template"));
  }
  const std::string csv_path = argv[3], cat_path = argv[4], sql = argv[5];
  const size_t n_queries =
      argc > 6 ? std::strtoul(argv[6], nullptr, 10) : 20000;
  const size_t n_clients = argc > 7 ? std::strtoul(argv[7], nullptr, 10) : 4;
  const double budget_mb = argc > 8 ? std::strtod(argv[8], nullptr) : 0.0;
  if (n_queries == 0 || n_clients == 0) {
    return Fail(Status::InvalidArgument(
        "n_queries and n_clients must be positive integers"));
  }

  auto table_r = Table::FromCsvFile(csv_path);
  if (!table_r.ok()) return Fail(table_r.status());
  Normalizer norm = Normalizer::Fit(table_r.value());
  auto pq = ParametricQuery::Parse(sql, table_r.value().schema());
  if (!pq.ok()) return Fail(pq.status());
  Table table = PrepareQueryTable(table_r.value(), norm, pq.value());
  const QueryFunctionSpec& spec = pq.value().spec();

  ExactEngine engine(&table);
  serve::SketchStore store;
  Status st = store.RegisterDataset("cli", &engine);
  if (!st.ok()) return Fail(st);
  serve::PagedCatalogOptions opts;
  opts.max_resident_bytes = static_cast<size_t>(budget_mb * 1024.0 * 1024.0);
  auto attached = store.AttachPagedCatalog("cli", cat_path, opts);
  if (!attached.ok()) return Fail(attached.status());
  std::printf("attached %zu cold sketches from %s (budget: %s)\n",
              attached.value(), cat_path.c_str(),
              opts.max_resident_bytes == 0
                  ? "unbounded"
                  : (std::to_string(opts.max_resident_bytes / 1024) + " KB")
                        .c_str());

  Rng rng(2026);
  const auto pool = RandomWorkload(pq.value(), 4096, &rng);
  if (pool.empty()) return Fail(Status::InvalidArgument("empty workload"));

  serve::ServeEngine serving(&store);
  Timer t;
  std::vector<std::thread> clients;
  const size_t per_client = (n_queries + n_clients - 1) / n_clients;
  for (size_t c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      constexpr size_t kBurst = 128;
      size_t done = 0;
      while (done < per_client) {
        const size_t n = std::min(kBurst, per_client - done);
        std::vector<QueryInstance> burst;
        burst.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          burst.push_back(pool[(c * per_client + done + i) % pool.size()]);
        }
        serving.SubmitMany("cli", spec, std::move(burst)).get();
        done += n;
      }
    });
  }
  for (auto& c : clients) c.join();
  const double seconds = t.ElapsedSeconds();

  const auto stats = serving.Snapshot();
  const auto ps = store.PagedStats();
  std::printf("served %llu queries from %zu clients in %.2fs (%.0f qps)\n",
              static_cast<unsigned long long>(stats.queries), n_clients,
              seconds, static_cast<double>(stats.queries) / seconds);
  std::printf("  latency p50/p99: %.0f / %.0f us | fallback rate: %.2f%%\n",
              stats.p50_us, stats.p99_us, 100.0 * stats.fallback_rate);
  std::printf("  pool: %.1f KB resident (peak %.1f KB, budget %s) | "
              "%llu fault-ins | %llu hits | %llu evictions\n",
              ps.resident_bytes / 1024.0, ps.peak_resident_bytes / 1024.0,
              ps.max_bytes == 0
                  ? "unbounded"
                  : (std::to_string(ps.max_bytes / 1024) + " KB").c_str(),
              static_cast<unsigned long long>(ps.faultins),
              static_cast<unsigned long long>(ps.hits),
              static_cast<unsigned long long>(ps.evictions));
  return 0;
}

int CmdCatalog(int argc, char** argv) {
  const std::string sub = argc > 2 ? argv[2] : "";
  if (sub == "pack") return CmdCatalogPack(argc, argv);
  if (sub == "serve") return CmdCatalogServe(argc, argv);
  return Fail(Status::InvalidArgument("catalog needs pack or serve"));
}

int CmdMetrics(int argc, char** argv) {
  if (argc < 4) return Fail(Status::InvalidArgument("metrics needs 2+ args"));
  const std::string csv_path = argv[2], sql = argv[3];
  const size_t n_train = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 1500;
  const size_t n_queries =
      argc > 5 ? std::strtoul(argv[5], nullptr, 10) : 4000;

  auto table_r = Table::FromCsvFile(csv_path);
  if (!table_r.ok()) return Fail(table_r.status());
  Normalizer norm = Normalizer::Fit(table_r.value());
  auto pq = ParametricQuery::Parse(sql, table_r.value().schema());
  if (!pq.ok()) return Fail(pq.status());
  Table table = PrepareQueryTable(table_r.value(), norm, pq.value());
  const QueryFunctionSpec& spec = pq.value().spec();

  // Build a small sketch in-process so the document carries real
  // partition/train/calibrate timings, then push a workload through the
  // serve engine so every serve family is populated too.
  ExactEngine engine(&table);
  Rng rng(4242);
  auto train_q = RandomWorkload(pq.value(), n_train, &rng);
  auto train_a = engine.AnswerBatch(spec, train_q, 8);
  NeuroSketchConfig config;
  config.train.epochs = 60;
  auto sketch = NeuroSketch::Train(train_q, train_a, config);
  if (!sketch.ok()) return Fail(sketch.status());

  metrics::MetricsRegistry reg;
  sketch.value().ExportBuildMetrics(&reg);

  serve::SketchStore store;
  Status st = store.RegisterDataset("cli", &engine);
  if (!st.ok()) return Fail(st);
  auto ver = store.Register("cli", spec, std::move(sketch).value());
  if (!ver.ok()) return Fail(ver.status());

  serve::ServeEngine serving(&store);
  const auto pool = RandomWorkload(pq.value(), 1024, &rng);
  if (pool.empty()) return Fail(Status::InvalidArgument("empty workload"));
  constexpr size_t kBurst = 128;
  size_t done = 0;
  while (done < n_queries) {
    const size_t n = std::min(kBurst, n_queries - done);
    std::vector<QueryInstance> burst;
    burst.reserve(n);
    for (size_t i = 0; i < n; ++i) burst.push_back(pool[(done + i) % pool.size()]);
    serving.SubmitMany("cli", spec, std::move(burst)).get();
    done += n;
  }
  serving.ExportMetrics(&reg);
  std::printf("%s", reg.TextExposition().c_str());
  PrintSlowQueries(serving);
  return 0;
}

void SelfDemo() {
  // With no arguments, run a self-contained demo: synthesize a CSV,
  // train, query, eval, clean up.
  std::printf("no arguments: running self-demo\n");
  Rng rng(1);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 8000; ++i) {
    const double x = rng.Uniform(0.0, 100.0);
    const double y = rng.Uniform(0.0, 50.0);
    const double m = 10.0 + 0.5 * x - 0.2 * y + rng.Normal(0, 2.0);
    rows.push_back({x, y, m});
  }
  const std::string csv_path = "nsketch_demo.csv";
  Status st = csv::WriteNumeric(csv_path, {"x", "y", "m"}, rows);
  if (!st.ok()) return;
  const char* sql = "SELECT AVG(m) FROM t WHERE x BETWEEN ?a AND ?b";
  {
    const char* argv_train[] = {"nsketch_cli", "train", csv_path.c_str(), sql,
                                "demo.sketch", "2000"};
    CmdTrain(6, const_cast<char**>(argv_train));
  }
  {
    const char* argv_query[] = {"nsketch_cli", "query",     "demo.sketch",
                                sql,           csv_path.c_str(), "20",
                                "80"};
    CmdQuery(7, const_cast<char**>(argv_query));
  }
  {
    const char* argv_eval[] = {"nsketch_cli", "eval", csv_path.c_str(), sql,
                               "demo.sketch"};
    CmdEval(5, const_cast<char**>(argv_eval));
  }
  {
    const char* argv_serve[] = {"nsketch_cli",    "serve", csv_path.c_str(),
                                sql,              "demo.sketch", "20000",
                                "4"};
    CmdServe(7, const_cast<char**>(argv_serve));
  }
  {
    const char* argv_pack[] = {"nsketch_cli", "catalog",     "pack",
                               csv_path.c_str(), "demo.cat", sql,
                               "demo.sketch"};
    CmdCatalog(7, const_cast<char**>(argv_pack));
  }
  {
    const char* argv_cserve[] = {"nsketch_cli", "catalog",  "serve",
                                 csv_path.c_str(), "demo.cat", sql,
                                 "8000",        "2"};
    CmdCatalog(8, const_cast<char**>(argv_cserve));
  }
  std::remove(csv_path.c_str());
  std::remove("demo.sketch");
  std::remove("demo.sketch.norm");
  std::remove("demo.cat");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    SelfDemo();
    return 0;
  }
  const std::string cmd = argv[1];
  if (cmd == "train") return CmdTrain(argc, argv);
  if (cmd == "query") return CmdQuery(argc, argv);
  if (cmd == "eval") return CmdEval(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "stream") return CmdStream(argc, argv);
  if (cmd == "catalog") return CmdCatalog(argc, argv);
  if (cmd == "metrics") return CmdMetrics(argc, argv);
  std::fprintf(stderr,
               "usage: %s train|query|eval|serve|stream|catalog|metrics ... "
               "(run with no args for a demo)\n",
               argv[0]);
  return 1;
}
