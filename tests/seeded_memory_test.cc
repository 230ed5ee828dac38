// Seeded evaluation charges its memory budget *before* it allocates:
// this binary replaces the global operator new/delete with a counting
// pair, so a test can compare the heap a governed evaluation actually
// grew against the budget it was given.

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "src/common/governor.h"
#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/tree/axis_index.h"
#include "src/tree/tree.h"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* CountedAlloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const std::int64_t live =
      g_live.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p))) +
      static_cast<std::int64_t>(malloc_usable_size(p));
  std::int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace treewalk {
namespace {

constexpr const char* kDeepJoin =
    "exists z (desc(x, z) & (desc(y, z) | E(y, z)))";

/// A caterpillar with `spine` spine nodes, each (but the last) with a
/// leaf child before the next spine node: in pre-order no two ancestors
/// of a node are adjacent, so every ancestor row has one span per
/// ancestor.
Tree Caterpillar(int spine) {
  TreeBuilder b;
  TreeBuilder::Ref s = b.AddRoot("a");
  for (int i = 1; i < spine; ++i) {
    b.AddChild(s, "b");
    s = b.AddChild(s, "a");
  }
  return b.Build();
}

/// From the root of a deep caterpillar, the composition joins every
/// node z below the root and, its second operand being a disjunction
/// rather than an axis atom, gathers each z's row of it — z's ancestors:
/// ~spine^2 spans, tens of MB.  Under a 256 KiB budget the evaluation
/// trips, and the heap it grew stays within the budget plus the one
/// buffer a growing span list copies from — not the tens of MB it would
/// allocate if it charged after growing.
TEST(SeededSelectorMemory, DeepComposeTripsBeforeItAllocates) {
  constexpr std::int64_t kBudget = 256 << 10;
  const Tree t = Caterpillar(2000);
  ResourceGovernor governor;
  governor.set_memory_budget(kBudget);
  AxisIndex index(t, &governor);
  ASSERT_TRUE(index.status().ok()) << index.status();
  auto seeded =
      PrepareSelector(index, std::move(ParseFormula(kDeepJoin)).value());
  ASSERT_TRUE(seeded.ok()) << seeded.status();

  const std::int64_t before = g_live.load();
  g_peak.store(before);
  auto answer = seeded->SelectFrom(t.root());
  const std::int64_t grown = g_peak.load() - before;

  EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted)
      << answer.status();
  EXPECT_LE(governor.accountant()->peak(), kBudget);
  EXPECT_LE(grown, 2 * kBudget);
}

/// The same selector on a smaller caterpillar, ungoverned, answers
/// every node with a child (an ancestor of some node): the spine but
/// its last node.
TEST(SeededSelectorMemory, DeepComposeAnswersWithoutABudget) {
  const Tree t = Caterpillar(300);
  AxisIndex index(t);
  auto seeded =
      PrepareSelector(index, std::move(ParseFormula(kDeepJoin)).value());
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  auto answer = seeded->SelectFrom(t.root());
  ASSERT_TRUE(answer.ok()) << answer.status();
  std::vector<NodeId> expected;
  for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
    if (t.ChildCount(v) > 0) expected.push_back(v);
  }
  EXPECT_EQ(*answer, expected);
}

}  // namespace
}  // namespace treewalk
