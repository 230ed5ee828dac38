// Tests for the span tracer (src/common/trace.h): parent links via
// span nesting, bounded per-thread ring buffers with drop counting,
// multi-thread collection, re-enabling (generation bump), and the
// Chrome trace-event JSON shape.

#include "src/common/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace treewalk {
namespace {

const TraceEvent* FindByName(const std::vector<TraceEvent>& events,
                             const std::string& name) {
  for (const TraceEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Disable();
  { ScopedSpan span("ignored"); }
  tracer.Enable();
  tracer.Disable();
  EXPECT_TRUE(tracer.Collect().empty());
}

TEST(Tracer, NestedSpansCarryParentLinks) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  {
    ScopedSpan outer("outer");
    {
      ScopedSpan middle("middle");
      { ScopedSpan inner("inner", "\"k\":1"); }
    }
    { ScopedSpan sibling("sibling"); }
  }
  tracer.Disable();
  std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 4u);
  const TraceEvent* outer = FindByName(events, "outer");
  const TraceEvent* middle = FindByName(events, "middle");
  const TraceEvent* inner = FindByName(events, "inner");
  const TraceEvent* sibling = FindByName(events, "sibling");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(middle, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(middle->parent_id, outer->id);
  EXPECT_EQ(inner->parent_id, middle->id);
  EXPECT_EQ(sibling->parent_id, outer->id);
  EXPECT_EQ(inner->args, "\"k\":1");
  // A child's window nests inside its parent's.
  EXPECT_GE(inner->ts_us, middle->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, middle->ts_us + middle->dur_us + 1);
}

TEST(Tracer, FullBufferCountsDropsInsteadOfGrowing) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(/*per_thread_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span("burst");
  }
  tracer.Disable();
  EXPECT_EQ(tracer.Collect().size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
}

TEST(Tracer, EnableResetsEventsAndDropCount) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable(2);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("old");
  }
  EXPECT_GT(tracer.dropped(), 0u);
  tracer.Enable(64);  // re-enable: new generation, old events gone
  { ScopedSpan span("new"); }
  tracer.Disable();
  std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "new");
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ThreadsGetDistinctTidsAndAllEventsCollect) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([]() {
      for (int i = 0; i < 10; ++i) {
        ScopedSpan span("worker");
      }
    });
  }
  for (std::thread& t : pool) t.join();
  tracer.Disable();
  std::vector<TraceEvent> events = tracer.Collect();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads) * 10);
  std::vector<bool> seen_tid;
  for (const TraceEvent& e : events) {
    if (e.tid >= seen_tid.size()) seen_tid.resize(e.tid + 1, false);
    seen_tid[e.tid] = true;
  }
  int distinct = 0;
  for (bool b : seen_tid) distinct += b ? 1 : 0;
  EXPECT_EQ(distinct, kThreads);
  // Collect() is sorted by start timestamp.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST(Tracer, RecordCompleteUsesCallerTimestamps) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.RecordComplete("premeasured", "\"job\":7", 100, 250);
  tracer.Disable();
  std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "premeasured");
  EXPECT_EQ(events[0].ts_us, 100u);
  EXPECT_EQ(events[0].dur_us, 250u);
  EXPECT_EQ(events[0].args, "\"job\":7");
}

// Golden shape of one rendered Chrome trace event.  Byte-exact modulo
// the measured numbers, which are pinned by RecordComplete.
TEST(Tracer, ChromeTraceJsonGolden) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.RecordComplete("step", "\"job\":3", 10, 20);
  tracer.Disable();
  std::vector<TraceEvent> events = tracer.Collect();
  ASSERT_EQ(events.size(), 1u);
  const std::string expected =
      "[\n{\"name\":\"step\",\"cat\":\"treewalk\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":" +
      std::to_string(events[0].tid) + ",\"ts\":10,\"dur\":20,\"args\":{"
      "\"span\":" +
      std::to_string(events[0].id) + ",\"parent\":0,\"job\":3}}\n]\n";
  EXPECT_EQ(tracer.ChromeTraceJson(), expected);
}

TEST(Tracer, ChromeTraceJsonEmptyIsAnEmptyArray) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  tracer.Disable();
  EXPECT_EQ(tracer.ChromeTraceJson(), "[\n]\n");
}

}  // namespace
}  // namespace treewalk
