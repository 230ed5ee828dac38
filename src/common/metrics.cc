#include "src/common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace treewalk {

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

namespace {

/// Shortest round-trippable-enough rendering for exposition formats;
/// "+Inf" is handled by callers.
std::string RenderDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string EscapeLabelValue(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// {a="x",b="y"} with an optional extra label (the histogram `le`),
/// empty string when there are no labels at all.
std::string RenderLabels(const MetricLabels& labels,
                         std::string_view extra_key = {},
                         std::string_view extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += std::string(extra_key) + "=\"" + std::string(extra_value) + "\"";
  }
  out += "}";
  return out;
}

std::string JsonEscape(std::string_view v) {
  std::string out;
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based, rounded up).
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < bounds.size(); ++b) {
    if (seen + counts[b] >= rank) {
      double lo = b == 0 ? 0.0 : bounds[b - 1];
      double hi = bounds[b];
      double frac =
          counts[b] == 0
              ? 1.0
              : static_cast<double>(rank - seen) / counts[b];
      return lo + (hi - lo) * frac;
    }
    seen += counts[b];
  }
  // In the +Inf bucket: clamp to the largest finite bound (the standard
  // Prometheus convention for unbounded tails).
  return bounds.empty() ? 0 : bounds.back();
}

const MetricSample* MetricsSnapshot::Find(std::string_view name,
                                          std::string_view label_value) const {
  for (const MetricSample& s : samples) {
    if (s.name != name) continue;
    if (label_value.empty()) return &s;
    for (const auto& [k, v] : s.labels) {
      if (v == label_value) return &s;
    }
  }
  return nullptr;
}

std::int64_t MetricsSnapshot::Value(std::string_view name,
                                    std::string_view label_value) const {
  const MetricSample* s = Find(name, label_value);
  return s == nullptr ? 0 : s->value;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  std::string last_family;
  for (const MetricSample& s : samples) {
    // Samples are emitted in registration order, which keeps a family's
    // labeled instruments adjacent; HELP/TYPE go out once per family.
    if (s.name != last_family) {
      out += "# HELP " + s.name + " " + s.help + "\n";
      out += "# TYPE " + s.name + " " + MetricTypeName(s.type) + "\n";
      last_family = s.name;
    }
    if (s.type == MetricType::kHistogram) {
      const HistogramSnapshot& h = s.histogram;
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < h.bounds.size(); ++b) {
        cumulative += h.counts[b];
        out += s.name + "_bucket" +
               RenderLabels(s.labels, "le", RenderDouble(h.bounds[b])) + " " +
               std::to_string(cumulative) + "\n";
      }
      cumulative += h.overflow;
      out += s.name + "_bucket" + RenderLabels(s.labels, "le", "+Inf") + " " +
             std::to_string(cumulative) + "\n";
      out += s.name + "_sum" + RenderLabels(s.labels) + " " +
             RenderDouble(h.sum) + "\n";
      out += s.name + "_count" + RenderLabels(s.labels) + " " +
             std::to_string(h.count) + "\n";
    } else {
      out += s.name + RenderLabels(s.labels) + " " + std::to_string(s.value) +
             "\n";
    }
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"metrics\": [";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"name\": \"" + JsonEscape(s.name) + "\", \"type\": \"" +
           MetricTypeName(s.type) + "\"";
    if (!s.labels.empty()) {
      out += ", \"labels\": {";
      bool fl = true;
      for (const auto& [k, v] : s.labels) {
        if (!fl) out += ", ";
        fl = false;
        out += "\"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
      }
      out += "}";
    }
    if (s.type == MetricType::kHistogram) {
      const HistogramSnapshot& h = s.histogram;
      out += ", \"count\": " + std::to_string(h.count);
      out += ", \"sum\": " + RenderDouble(h.sum);
      out += ", \"p50\": " + RenderDouble(h.p50());
      out += ", \"p95\": " + RenderDouble(h.p95());
      out += ", \"p99\": " + RenderDouble(h.p99());
      out += ", \"buckets\": [";
      for (std::size_t b = 0; b < h.bounds.size(); ++b) {
        if (b > 0) out += ", ";
        out += "{\"le\": " + RenderDouble(h.bounds[b]) + ", \"count\": " +
               std::to_string(h.counts[b]) + "}";
      }
      if (!h.bounds.empty()) out += ", ";
      out += "{\"le\": \"+Inf\", \"count\": " + std::to_string(h.overflow) +
             "}]";
    } else {
      out += ", \"value\": " + std::to_string(s.value);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::vector<double> LatencyBucketsMs() {
  return {0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
          1024, 2048, 4096, 8192};
}

std::vector<double> LatencyBucketsUs() {
  return {1,    2,    4,     8,     16,    32,     64,     128,
          256,  512,  1024,  2048,  4096,  8192,   16384,  32768,
          65536, 131072, 262144, 524288, 1048576};
}

std::size_t Counter::ShardIndex() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index % kShards;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::Observe(double v) {
  std::size_t b = 0;
  while (b < bounds_.size() && v > bounds_[b]) ++b;
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size());
  for (std::size_t b = 0; b < bounds_.size(); ++b) {
    snap.counts[b] = counts_[b].load(std::memory_order_relaxed);
  }
  snap.overflow = counts_[bounds_.size()].load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindEntry(std::string_view name,
                                                   MetricType type,
                                                   const MetricLabels& labels) {
  for (const std::unique_ptr<Entry>& e : entries_) {
    if (e->name == name && e->type == type && e->labels == labels) {
      return e.get();
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::FindOrCreateCounter(std::string_view name,
                                              std::string_view help,
                                              MetricLabels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = FindEntry(name, MetricType::kCounter, labels)) {
    return e->counter.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = std::string(name);
  e->help = std::string(help);
  e->type = MetricType::kCounter;
  e->labels = std::move(labels);
  e->counter = std::make_unique<Counter>();
  Counter* out = e->counter.get();
  entries_.push_back(std::move(e));
  return out;
}

Gauge* MetricsRegistry::FindOrCreateGauge(std::string_view name,
                                          std::string_view help,
                                          MetricLabels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = FindEntry(name, MetricType::kGauge, labels)) {
    return e->gauge.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = std::string(name);
  e->help = std::string(help);
  e->type = MetricType::kGauge;
  e->labels = std::move(labels);
  e->gauge = std::make_unique<Gauge>();
  Gauge* out = e->gauge.get();
  entries_.push_back(std::move(e));
  return out;
}

Histogram* MetricsRegistry::FindOrCreateHistogram(std::string_view name,
                                                  std::string_view help,
                                                  std::vector<double> bounds,
                                                  MetricLabels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Entry* e = FindEntry(name, MetricType::kHistogram, labels)) {
    return e->histogram.get();
  }
  auto e = std::make_unique<Entry>();
  e->name = std::string(name);
  e->help = std::string(help);
  e->type = MetricType::kHistogram;
  e->labels = std::move(labels);
  e->histogram = std::make_unique<Histogram>(std::move(bounds));
  Histogram* out = e->histogram.get();
  entries_.push_back(std::move(e));
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.samples.reserve(entries_.size());
  for (const std::unique_ptr<Entry>& e : entries_) {
    MetricSample s;
    s.name = e->name;
    s.help = e->help;
    s.type = e->type;
    s.labels = e->labels;
    switch (e->type) {
      case MetricType::kCounter:
        s.value = e->counter->value();
        break;
      case MetricType::kGauge:
        s.value = e->gauge->value();
        break;
      case MetricType::kHistogram:
        s.histogram = e->histogram->Snapshot();
        break;
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::unique_ptr<Entry>& e : entries_) {
    switch (e->type) {
      case MetricType::kCounter:
        e->counter->Reset();
        break;
      case MetricType::kGauge:
        e->gauge->Reset();
        break;
      case MetricType::kHistogram:
        e->histogram->Reset();
        break;
    }
  }
}

}  // namespace treewalk
