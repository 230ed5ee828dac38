#ifndef TREEWALK_COMMON_METRICS_H_
#define TREEWALK_COMMON_METRICS_H_

/// Engine-wide metrics registry (docs/OBSERVABILITY.md).
///
/// Three instrument kinds, all safe to update from any thread:
///
///   Counter    monotonic; sharded atomics so concurrent increments from
///              the thread pool do not bounce one cache line around.
///   Gauge      last-write or max-tracked level (single atomic).
///   Histogram  fixed upper-bound buckets + sum/count; quantiles are
///              interpolated from the bucket counts at snapshot time.
///
/// Instruments are registered once (first use) in the process-global
/// MetricsRegistry and updated lock-free on the hot path; Snapshot()
/// takes the registry mutex only to walk the instrument list, reading
/// each atomic with relaxed loads.  Snapshots export as Prometheus text
/// exposition v0.0.4 or JSON.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace treewalk {

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

/// Label set attached to one instrument, e.g. {{"status", "accepted"}}.
/// Rendered as {status="accepted"} in Prometheus exposition.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Point-in-time view of one histogram: cumulative-free per-bucket
/// counts aligned with `bounds` (upper bounds; an implicit +Inf bucket
/// holds `overflow`), plus sum and count for averages.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< size == bounds.size()
  std::uint64_t overflow = 0;         ///< observations above the last bound
  std::uint64_t count = 0;
  double sum = 0;

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// bucket holding the q-th observation; the +Inf bucket clamps to the
  /// largest finite bound.  0 when empty.
  double Quantile(double q) const;
  double p50() const { return Quantile(0.50); }
  double p95() const { return Quantile(0.95); }
  double p99() const { return Quantile(0.99); }
};

/// One exported instrument in a snapshot.
struct MetricSample {
  std::string name;  ///< family name, e.g. "treewalk_engine_jobs_total"
  std::string help;
  MetricType type = MetricType::kCounter;
  MetricLabels labels;
  std::int64_t value = 0;       ///< counters and gauges
  HistogramSnapshot histogram;  ///< histograms
};

/// Registry-wide snapshot; the exchange format between the engine, the
/// CLI exporters, and the progress reporter.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// Prometheus text exposition v0.0.4: one HELP/TYPE pair per family,
  /// histograms as _bucket{le=...}/_sum/_count.
  std::string ToPrometheusText() const;
  /// JSON object {"metrics": [...]} with quantiles precomputed.
  std::string ToJson() const;

  /// First sample whose family name is `name` and (when `label_value`
  /// is non-empty) that carries some label with that value.
  const MetricSample* Find(std::string_view name,
                           std::string_view label_value = {}) const;
  /// Convenience: value of a counter/gauge sample, 0 when absent.
  std::int64_t Value(std::string_view name,
                     std::string_view label_value = {}) const;
};

/// Monotonic counter.  Increments land on one of kShards cache-line-
/// padded atomics picked by a per-thread index, so the thread pool's
/// hottest counters do not serialize on one line; value() folds the
/// shards.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void Increment(std::int64_t n = 1) {
    shards_[ShardIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    std::int64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Zeroes the shards in place (pointers held by call sites stay
  /// valid).  Test-only; racing updates may be lost.
  void Reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::int64_t> v{0};
  };
  static std::size_t ShardIndex();

  Shard shards_[kShards];
};

/// Level gauge: Set/Add for current values, UpdateMax for high-water
/// marks (compare-and-swap loop; monotone).
class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void UpdateMax(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram: Observe() is a linear scan over the (few)
/// bounds plus two relaxed atomic adds.  Bounds are set at registration
/// and never change.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0};
};

/// Process-global instrument registry.  FindOrCreate* registers on
/// first use (mutex-guarded) and returns a stable pointer that callers
/// cache for the process lifetime; instruments are never removed.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* FindOrCreateCounter(std::string_view name, std::string_view help,
                               MetricLabels labels = {});
  Gauge* FindOrCreateGauge(std::string_view name, std::string_view help,
                           MetricLabels labels = {});
  /// `bounds` must be strictly increasing upper bounds; the +Inf bucket
  /// is implicit.  Bounds of an already-registered histogram win.
  Histogram* FindOrCreateHistogram(std::string_view name,
                                   std::string_view help,
                                   std::vector<double> bounds,
                                   MetricLabels labels = {});

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered instrument (counters, gauges, histogram
  /// buckets).  Test-only: running batches must not race with it.
  void ResetForTest();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type;
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindEntry(std::string_view name, MetricType type,
                   const MetricLabels& labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Default latency bucket ladders (log-spaced).  Shared so related
/// histograms stay comparable across subsystems.
std::vector<double> LatencyBucketsMs();  ///< 0.25ms .. 8s
std::vector<double> LatencyBucketsUs();  ///< 1us .. 1s

/// RAII microsecond timer: observes its scope's wall time into a
/// histogram.
class ScopedLatencyUs {
 public:
  explicit ScopedLatencyUs(Histogram* histogram)
      : histogram_(histogram),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedLatencyUs() {
    histogram_->Observe(
        std::chrono::duration_cast<
            std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  ScopedLatencyUs(const ScopedLatencyUs&) = delete;
  ScopedLatencyUs& operator=(const ScopedLatencyUs&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace treewalk

#endif  // TREEWALK_COMMON_METRICS_H_
