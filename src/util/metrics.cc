#include "util/metrics.h"

#include <cstdio>

namespace neurosketch {
namespace metrics {

namespace {

/// Splits "name{label=\"v\"}" into the base name and the label body
/// ("label=\"v\"", empty when the name carries no labels).
void SplitLabels(const std::string& name, std::string* base,
                 std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  const size_t close = name.rfind('}');
  *labels = name.substr(brace + 1,
                        close == std::string::npos || close <= brace
                            ? std::string::npos
                            : close - brace - 1);
}

void AppendNumber(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  *out += buf;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kCounter;
    e.help = help;
    e.counter = std::make_unique<Counter>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  return it->second.kind == Kind::kCounter ? it->second.counter.get()
                                           : nullptr;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kGauge;
    e.help = help;
    e.gauge = std::make_unique<Gauge>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  return it->second.kind == Kind::kGauge ? it->second.gauge.get() : nullptr;
}

LogHistogram* MetricsRegistry::GetHistogram(const std::string& name,
                                            const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = Kind::kHistogram;
    e.help = help;
    e.histogram = std::make_unique<LogHistogram>();
    it = entries_.emplace(name, std::move(e)).first;
  }
  return it->second.kind == Kind::kHistogram ? it->second.histogram.get()
                                             : nullptr;
}

void MetricsRegistry::SetGauge(const std::string& name, double value,
                               const std::string& help) {
  Gauge* g = GetGauge(name, help);
  if (g != nullptr) g->Set(value);
}

void MetricsRegistry::SetCounter(const std::string& name, uint64_t value,
                                 const std::string& help) {
  Counter* c = GetCounter(name, help);
  if (c != nullptr) c->Set(value);
}

std::string MetricsRegistry::TextExposition() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::string prev_base;
  for (const auto& [name, e] : entries_) {
    std::string base, labels;
    SplitLabels(name, &base, &labels);
    if (base != prev_base) {
      // One HELP/TYPE header per metric family; label variants of the
      // same base name sort adjacently and share it.
      if (!e.help.empty()) out += "# HELP " + base + " " + e.help + "\n";
      out += "# TYPE " + base + " ";
      out += e.kind == Kind::kCounter
                 ? "counter"
                 : e.kind == Kind::kGauge ? "gauge" : "histogram";
      out += "\n";
      prev_base = base;
    }
    const std::string label_suffix = labels.empty() ? "" : "{" + labels + "}";
    switch (e.kind) {
      case Kind::kCounter:
        out += base + label_suffix + " " +
               std::to_string(e.counter->Value()) + "\n";
        break;
      case Kind::kGauge:
        out += base + label_suffix + " ";
        AppendNumber(&out, e.gauge->Value());
        out += "\n";
        break;
      case Kind::kHistogram: {
        const LogHistogram& h = *e.histogram;
        uint64_t cum = 0;
        for (size_t i = 0; i < LogHistogram::kNumBuckets; ++i) {
          const uint64_t c = h.BucketCount(i);
          if (c == 0) continue;  // elide empty buckets; cumulative stays right
          cum += c;
          out += base + "_bucket{";
          if (!labels.empty()) out += labels + ",";
          out += "le=\"";
          AppendNumber(&out, LogHistogram::BucketHiUs(i));
          out += "\"} " + std::to_string(cum) + "\n";
        }
        out += base + "_bucket{";
        if (!labels.empty()) out += labels + ",";
        out += "le=\"+Inf\"} " + std::to_string(cum) + "\n";
        out += base + "_sum" + label_suffix + " ";
        AppendNumber(&out, h.ApproxSumUs());
        out += "\n";
        out += base + "_count" + label_suffix + " " + std::to_string(cum) +
               "\n";
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : entries_) {
    (void)name;
    switch (e.kind) {
      case Kind::kCounter:
        e.counter->Reset();
        break;
      case Kind::kGauge:
        e.gauge->Reset();
        break;
      case Kind::kHistogram:
        e.histogram->Reset();
        break;
    }
  }
}

size_t MetricsRegistry::NumMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* g = new MetricsRegistry();  // never destroyed
  return *g;
}

}  // namespace metrics
}  // namespace neurosketch
