// Tests for the metrics registry (src/common/metrics.h): counter
// exactness under thread hammering, histogram bucket boundaries and
// interpolated quantiles, registry identity/reset semantics, and the
// exact shape of the Prometheus text and JSON expositions.

#include "src/common/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace treewalk {
namespace {

TEST(Counter, IncrementsAndFoldsShards) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Counter, ExactTotalUnderThreadHammer) {
  // The acceptance bar for the sharded design: concurrent increments
  // from more threads than shards must still fold to the exact total —
  // sharding may only spread contention, never lose updates.
  Counter c;
  constexpr int kThreads = 24;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAddAndMonotoneMax) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  EXPECT_EQ(g.value(), 15);
  g.Add(-15);
  EXPECT_EQ(g.value(), 0);
  g.UpdateMax(7);
  g.UpdateMax(3);  // lower: ignored
  EXPECT_EQ(g.value(), 7);
  g.UpdateMax(9);
  EXPECT_EQ(g.value(), 9);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  // Exactly on a bound lands in that bucket (le semantics), just above
  // spills into the next one.
  h.Observe(0.0);
  h.Observe(1.0);
  h.Observe(1.0000001);
  h.Observe(2.0);
  h.Observe(4.0);
  h.Observe(4.0000001);  // above the last bound: overflow (+Inf) bucket
  HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.counts.size(), 3u);
  EXPECT_EQ(s.counts[0], 2u);  // 0.0, 1.0
  EXPECT_EQ(s.counts[1], 2u);  // 1.0000001, 2.0
  EXPECT_EQ(s.counts[2], 1u);  // 4.0
  EXPECT_EQ(s.overflow, 1u);
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0 + 1.0 + 1.0000001 + 2.0 + 4.0 + 4.0000001);
}

TEST(Histogram, QuantilesInterpolateWithinBuckets) {
  Histogram h({10.0, 20.0, 40.0});
  for (int i = 0; i < 50; ++i) h.Observe(5);    // bucket (0, 10]
  for (int i = 0; i < 30; ++i) h.Observe(15);   // bucket (10, 20]
  for (int i = 0; i < 20; ++i) h.Observe(30);   // bucket (20, 40]
  HistogramSnapshot s = h.Snapshot();
  // p50: rank 50 of 100 = last observation of the first bucket → its
  // upper bound by linear interpolation.
  EXPECT_DOUBLE_EQ(s.p50(), 10.0);
  // p95: rank 95 → 15 of 20 into (20, 40] → 20 + 20·(15/20) = 35.
  EXPECT_DOUBLE_EQ(s.p95(), 35.0);
  // p99: rank 99 → 19 of 20 into (20, 40] → 20 + 20·(19/20) = 39.
  EXPECT_DOUBLE_EQ(s.p99(), 39.0);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.Snapshot().p95(), 0.0);

  // All mass in the +Inf bucket clamps to the largest finite bound.
  Histogram overflow({1.0, 2.0});
  overflow.Observe(100);
  overflow.Observe(200);
  EXPECT_DOUBLE_EQ(overflow.Snapshot().p50(), 2.0);
  EXPECT_DOUBLE_EQ(overflow.Snapshot().p99(), 2.0);
}

TEST(MetricsRegistry, FindOrCreateReturnsStableIdentity) {
  MetricsRegistry r;
  Counter* a = r.FindOrCreateCounter("reg_test_total", "help");
  Counter* b = r.FindOrCreateCounter("reg_test_total", "other help");
  EXPECT_EQ(a, b);  // same family + labels: one instrument
  Counter* ok =
      r.FindOrCreateCounter("reg_test_total", "help", {{"status", "ok"}});
  Counter* err =
      r.FindOrCreateCounter("reg_test_total", "help", {{"status", "err"}});
  EXPECT_NE(ok, err);
  EXPECT_NE(a, ok);
}

TEST(MetricsRegistry, ResetZeroesInPlaceWithoutInvalidatingPointers) {
  MetricsRegistry r;
  Counter* c = r.FindOrCreateCounter("reset_total", "help");
  Gauge* g = r.FindOrCreateGauge("reset_gauge", "help");
  Histogram* h = r.FindOrCreateHistogram("reset_hist", "help", {1.0});
  c->Increment(5);
  g->Set(5);
  h->Observe(0.5);
  r.ResetForTest();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->Snapshot().count, 0u);
  // The same pointers keep working after the reset.
  c->Increment();
  EXPECT_EQ(c->value(), 1);
  EXPECT_EQ(r.Snapshot().Value("reset_total"), 1);
}

TEST(MetricsSnapshot, FindAndValueByNameAndLabel) {
  MetricsRegistry r;
  r.FindOrCreateCounter("f_total", "h", {{"status", "a"}})->Increment(1);
  r.FindOrCreateCounter("f_total", "h", {{"status", "b"}})->Increment(2);
  MetricsSnapshot snap = r.Snapshot();
  EXPECT_EQ(snap.Value("f_total", "a"), 1);
  EXPECT_EQ(snap.Value("f_total", "b"), 2);
  EXPECT_EQ(snap.Value("f_total"), 1);  // first registered
  EXPECT_EQ(snap.Value("absent_total"), 0);
  EXPECT_EQ(snap.Find("absent_total"), nullptr);
}

// Golden shape of the Prometheus text exposition (v0.0.4): HELP/TYPE
// once per family, labeled samples adjacent, histograms as cumulative
// le-buckets plus _sum/_count.  Byte-exact so a format regression can
// not slip past (external scrapers parse this).
TEST(MetricsSnapshot, PrometheusTextGolden) {
  MetricsRegistry r;
  r.FindOrCreateCounter("twq_jobs_total", "Jobs by status",
                        {{"status", "ok"}})
      ->Increment(3);
  r.FindOrCreateCounter("twq_jobs_total", "Jobs by status",
                        {{"status", "failed"}});
  r.FindOrCreateGauge("twq_running", "Running jobs")->Set(2);
  Histogram* h =
      r.FindOrCreateHistogram("twq_latency_ms", "Latency", {1.0, 5.0});
  h->Observe(0.5);
  h->Observe(3);
  h->Observe(100);

  const std::string expected =
      "# HELP twq_jobs_total Jobs by status\n"
      "# TYPE twq_jobs_total counter\n"
      "twq_jobs_total{status=\"ok\"} 3\n"
      "twq_jobs_total{status=\"failed\"} 0\n"
      "# HELP twq_running Running jobs\n"
      "# TYPE twq_running gauge\n"
      "twq_running 2\n"
      "# HELP twq_latency_ms Latency\n"
      "# TYPE twq_latency_ms histogram\n"
      "twq_latency_ms_bucket{le=\"1\"} 1\n"
      "twq_latency_ms_bucket{le=\"5\"} 2\n"
      "twq_latency_ms_bucket{le=\"+Inf\"} 3\n"
      "twq_latency_ms_sum 103.5\n"
      "twq_latency_ms_count 3\n";
  EXPECT_EQ(r.Snapshot().ToPrometheusText(), expected);
}

TEST(MetricsSnapshot, JsonGolden) {
  MetricsRegistry r;
  r.FindOrCreateCounter("j_total", "h", {{"status", "ok"}})->Increment(7);
  Histogram* h = r.FindOrCreateHistogram("j_ms", "h", {10.0});
  h->Observe(5);
  h->Observe(5);

  const std::string expected =
      "{\n"
      "  \"metrics\": [\n"
      "    {\"name\": \"j_total\", \"type\": \"counter\", "
      "\"labels\": {\"status\": \"ok\"}, \"value\": 7},\n"
      "    {\"name\": \"j_ms\", \"type\": \"histogram\", \"count\": 2, "
      "\"sum\": 10, \"p50\": 5, \"p95\": 10, \"p99\": 10, "
      "\"buckets\": [{\"le\": 10, \"count\": 2}, "
      "{\"le\": \"+Inf\", \"count\": 0}]}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(r.Snapshot().ToJson(), expected);
}

TEST(MetricsSnapshot, LabelValuesAreEscaped) {
  MetricsRegistry r;
  r.FindOrCreateCounter("esc_total", "h", {{"path", "a\"b\\c\nd"}})
      ->Increment();
  std::string text = r.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

TEST(ScopedLatencyUs, ObservesItsScope) {
  MetricsRegistry r;
  Histogram* h = r.FindOrCreateHistogram("scope_us", "h", LatencyBucketsUs());
  { ScopedLatencyUs timer(h); }
  HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.sum, 0.0);
}

TEST(LatencyBuckets, AreStrictlyIncreasing) {
  for (const std::vector<double>& bounds :
       {LatencyBucketsMs(), LatencyBucketsUs()}) {
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

}  // namespace
}  // namespace treewalk
