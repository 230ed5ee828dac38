// Tests for the per-job resource governor (src/common/governor.h): the
// memory accountant's bookkeeping, deadline polling, the governed axis
// index, and end-to-end enforcement through the interpreter — a wall
// clock that stops a non-terminating run and a byte budget that stops a
// selector compilation from materializing large relation matrices.

#include "src/common/governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "src/automata/builder.h"
#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"

namespace treewalk {
namespace {

TEST(MemoryAccountant, ChargesAndReleasesByCategory) {
  MemoryAccountant accountant(1000);
  EXPECT_TRUE(accountant.Charge(MemoryCategory::kAxisIndex, 300).ok());
  EXPECT_TRUE(accountant.Charge(MemoryCategory::kStore, 200).ok());
  EXPECT_EQ(accountant.used(), 500);
  EXPECT_EQ(accountant.used(MemoryCategory::kAxisIndex), 300);
  EXPECT_EQ(accountant.used(MemoryCategory::kStore), 200);
  accountant.Release(MemoryCategory::kStore, 200);
  EXPECT_EQ(accountant.used(), 300);
  EXPECT_EQ(accountant.peak(), 500);
  EXPECT_FALSE(accountant.tripped());
}

TEST(MemoryAccountant, RejectsChargeOverBudgetAndLatches) {
  MemoryAccountant accountant(100);
  EXPECT_TRUE(accountant.Charge(MemoryCategory::kCycleMemo, 80).ok());
  Status status = accountant.Charge(MemoryCategory::kTrace, 21);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // Failed charges are not recorded.
  EXPECT_EQ(accountant.used(), 80);
  EXPECT_EQ(accountant.used(MemoryCategory::kTrace), 0);
  EXPECT_TRUE(accountant.tripped());
  // A fitting charge still succeeds after a trip; tripped() stays set.
  EXPECT_TRUE(accountant.Charge(MemoryCategory::kTrace, 10).ok());
  EXPECT_TRUE(accountant.tripped());
}

TEST(MemoryAccountant, BreakdownNamesChargedCategories) {
  MemoryAccountant accountant(1 << 20);
  ASSERT_TRUE(accountant.Charge(MemoryCategory::kSelectorCache, 4096).ok());
  ASSERT_TRUE(accountant.Charge(MemoryCategory::kCycleMemo, 100).ok());
  std::string breakdown = accountant.Breakdown();
  // Zero categories are omitted to keep the message readable.
  for (MemoryCategory c :
       {MemoryCategory::kSelectorCache, MemoryCategory::kCycleMemo}) {
    EXPECT_NE(breakdown.find(MemoryCategoryName(c)), std::string::npos)
        << breakdown;
  }
  EXPECT_EQ(breakdown.find(MemoryCategoryName(MemoryCategory::kTrace)),
            std::string::npos)
      << breakdown;
  // The rejection message carries the breakdown.
  Status status = accountant.Charge(MemoryCategory::kAxisIndex, 2 << 20);
  ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.message().find(
                MemoryCategoryName(MemoryCategory::kAxisIndex)),
            std::string::npos)
      << status;
}

TEST(MemoryAccountant, NonPositiveBudgetMeansUnlimited) {
  MemoryAccountant accountant(0);
  EXPECT_TRUE(
      accountant.Charge(MemoryCategory::kStore, std::int64_t{1} << 40).ok());
  EXPECT_EQ(accountant.used(), std::int64_t{1} << 40);
  EXPECT_FALSE(accountant.tripped());
}

TEST(MemoryAccountant, ReleaseClampsAtZero) {
  MemoryAccountant accountant(100);
  ASSERT_TRUE(accountant.Charge(MemoryCategory::kTrace, 10).ok());
  accountant.Release(MemoryCategory::kTrace, 50);
  EXPECT_EQ(accountant.used(), 0);
  EXPECT_EQ(accountant.used(MemoryCategory::kTrace), 0);
}

TEST(ResourceGovernor, DefaultIsUnlimited) {
  ResourceGovernor governor;
  EXPECT_FALSE(governor.has_deadline());
  EXPECT_EQ(governor.accountant(), nullptr);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(governor.CheckDeadline().ok());
  }
  EXPECT_TRUE(governor.CheckDeadlineNow().ok());
  EXPECT_TRUE(governor.Charge(MemoryCategory::kStore, 1 << 30).ok());
}

TEST(ResourceGovernor, ExpiredDeadlineFailsNowAndWithinOneStride) {
  ResourceGovernor governor;
  governor.set_deadline_after(std::chrono::milliseconds(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(governor.CheckDeadlineNow().code(),
            StatusCode::kDeadlineExceeded);
  // The strided poll reads the clock at least every 64 calls.
  Status last = Status::Ok();
  for (int i = 0; i < 64 && last.ok(); ++i) last = governor.CheckDeadline();
  EXPECT_EQ(last.code(), StatusCode::kDeadlineExceeded);
}

TEST(ResourceGovernor, NullSafeHelpersAreNoOps) {
  EXPECT_TRUE(GovernorCheckDeadline(nullptr).ok());
  EXPECT_TRUE(GovernorCheckDeadlineNow(nullptr).ok());
  EXPECT_TRUE(GovernorCharge(nullptr, MemoryCategory::kStore, 1).ok());
  GovernorRelease(nullptr, MemoryCategory::kStore, 1);
}

TEST(ScopedMemoryCharge, ReleasesOnScopeExit) {
  ResourceGovernor governor;
  governor.set_memory_budget(1000);
  {
    ScopedMemoryCharge scoped(&governor, MemoryCategory::kCycleMemo);
    ASSERT_TRUE(scoped.Add(400).ok());
    ASSERT_TRUE(scoped.Add(300).ok());
    EXPECT_EQ(governor.accountant()->used(), 700);
    // A rejected Add is not remembered and must not be released.
    EXPECT_FALSE(scoped.Add(400).ok());
  }
  EXPECT_EQ(governor.accountant()->used(), 0);
  EXPECT_EQ(governor.accountant()->peak(), 700);
}

TEST(AxisIndex, TinyBudgetFailsConstructionStickily) {
  Tree t = FullTree(2, 6);
  ResourceGovernor governor;
  governor.set_memory_budget(16);  // smaller than one label bitset
  AxisIndex index(t, &governor);
  EXPECT_EQ(index.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(index.TryEdgeIntervals().status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(index.TryDescendantIntervals().status().code(),
            StatusCode::kResourceExhausted);
}

TEST(AxisIndex, GovernedMatrixChargesAndTripsBudget) {
  Tree t = FullTree(2, 7);  // 255 nodes: one interval axis is ~8KiB
  ResourceGovernor governor;
  governor.set_memory_budget(64 << 10);
  AxisIndex index(t, &governor);
  ASSERT_TRUE(index.status().ok());
  std::int64_t base = governor.accountant()->used();
  auto edge = index.TryEdgeIntervals();
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_GT(governor.accountant()->used(MemoryCategory::kAxisIndex), 0);
  EXPECT_GT(governor.accountant()->used(), base);
  const std::int64_t edge_bytes = governor.accountant()->used() - base;
  // Memoized: a second request charges nothing further.
  std::int64_t after_first = governor.accountant()->used();
  ASSERT_TRUE(index.TryEdgeIntervals().ok());
  EXPECT_EQ(governor.accountant()->used(), after_first);

  // Exhaust the budget with the next relation: a Try accessor reports
  // kResourceExhausted while earlier ones stay valid.  desc has one
  // span per internal node, as many rows as edge, so it costs about
  // what edge did.
  ResourceGovernor small;
  small.set_memory_budget(after_first + edge_bytes / 2);
  AxisIndex tight(t, &small);
  ASSERT_TRUE(tight.status().ok());
  ASSERT_TRUE(tight.TryEdgeIntervals().ok());
  EXPECT_EQ(tight.TryDescendantIntervals().status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(small.accountant()->tripped());
  ASSERT_TRUE(tight.TryEdgeIntervals().ok());
}

/// Seeded evaluation charges each origin's row batches to compiled-ops
/// and releases them when the answer is returned; only the
/// origin-independent memo stays charged, and it goes with the selector.
/// No axis relation is built.
TEST(GovernedSeededSelector, PerOriginChargesAreReleased) {
  std::mt19937 rng(5);
  RandomTreeOptions options;
  options.num_nodes = 3000;
  options.labels = {"a", "b"};
  Tree t = RandomTree(rng, options);
  ResourceGovernor governor;
  governor.set_memory_budget(std::int64_t{1} << 30);
  const MemoryAccountant& books = *governor.accountant();
  AxisIndex index(t, &governor);
  ASSERT_TRUE(index.status().ok());
  const std::int64_t axis_bytes = books.used(MemoryCategory::kAxisIndex);
  {
    auto seeded = PrepareSelector(
        index, std::move(ParseFormula("exists z (desc(x, y) & lab(y, a) & "
                                      "E(y, z) & lab(z, b))"))
                   .value());
    ASSERT_TRUE(seeded.ok()) << seeded.status();
    ASSERT_TRUE(seeded->SelectFrom(t.root()).ok());
    const std::int64_t memo = books.used(MemoryCategory::kCompiledOps);
    EXPECT_GT(memo, 0);  // the whole set exists z (E(y, z) & lab(z, b))
    EXPECT_GT(books.peak(MemoryCategory::kCompiledOps), memo);
    for (NodeId origin : {NodeId{1}, NodeId{500}, NodeId{2999}}) {
      ASSERT_TRUE(seeded->SelectFrom(origin).ok());
      EXPECT_EQ(books.used(MemoryCategory::kCompiledOps), memo);
    }
  }
  EXPECT_EQ(books.used(MemoryCategory::kCompiledOps), 0);
  EXPECT_EQ(books.used(MemoryCategory::kAxisIndex), axis_bytes);
}

/// The acceptance-criteria scenario's first leg: an (effectively)
/// non-terminating run — the EXPTIME counter with cycle detection off —
/// is stopped by the wall-clock deadline, not by max_steps.
TEST(GovernedInterpreter, DeadlineStopsNonTerminatingRun) {
  Program p = std::move(ExponentialCounterProgram()).value();
  Tree t = FullTree(1, 29);
  AssignUniqueIds(t);
  ResourceGovernor governor;
  governor.set_deadline_after(std::chrono::milliseconds(150));
  RunOptions options;
  options.max_steps = std::int64_t{1} << 60;
  options.detect_cycles = false;
  options.governor = &governor;
  auto start = std::chrono::steady_clock::now();
  Interpreter interpreter(p, options);
  auto run = interpreter.Run(t);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status();
  // Generous bound: the poll is strided, but 64 transitions are far
  // below a second.
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

TEST(GovernedInterpreter, DeadlineLeavesFastRunsUntouched) {
  Program p = std::move(HasLabelProgram("a")).value();
  Tree t = FullTree(2, 3);
  RunResult plain = std::move(Interpreter(p).Run(t)).value();
  ResourceGovernor governor;
  governor.set_deadline_after(std::chrono::seconds(60));
  RunOptions options;
  options.governor = &governor;
  RunResult governed = std::move(Interpreter(p, options).Run(t)).value();
  EXPECT_EQ(governed.accepted, plain.accepted);
  EXPECT_EQ(governed.stats.steps, plain.stats.steps);
}

/// A quantifier-depth-2 selector over a wide tree: the compiled
/// evaluator wants axis relations whose footprint exceeds the budget,
/// so the run stops with kResourceExhausted (a compile-time budget trip
/// is a hard error — falling back to the reference evaluator would
/// evade the limit).
TEST(GovernedInterpreter, MemoryBudgetTripsOnWideTreeSelectors) {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  // FO(exists*) with quantifier depth 2; after the compiler's
  // miniscoping every subformula has width <= 2, so the compiled path
  // is taken.  Asked once, from #top, it is evaluated seeded: the whole
  // set exists z (E(z, y) & exists w E(w, z)) is reduced in 4096-row
  // batches, which outgrow the budget (charged as compiled-ops, with
  // the axis index's bitsets in the breakdown).
  const char* selector =
      "exists z exists w (desc(x, y) & E(z, y) & E(w, z))";
  b.OnLookAhead("#top", "q0", "true", "q1", "X1", selector, "p");
  b.OnMove("#top", "q1", "true", "qf", Move::kStay);
  b.OnMove("*", "p", "true", "qf", Move::kStay);
  Program p = std::move(b.Build()).value();

  std::mt19937 rng(5);
  RandomTreeOptions tree_options;
  tree_options.num_nodes = 2000;
  tree_options.labels = {"a", "b"};
  Tree t = RandomTree(rng, tree_options);

  // Ungoverned: the selector evaluates fine.
  RunResult plain = std::move(Interpreter(p).Run(t)).value();

  ResourceGovernor governor;
  governor.set_memory_budget(64 << 10);  // below one ~5k-row relation
  RunOptions options;
  options.governor = &governor;
  Interpreter interpreter(p, options);
  auto run = interpreter.Run(t);
  ASSERT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status();
  EXPECT_TRUE(governor.accountant()->tripped());
  EXPECT_NE(run.status().message().find("axis-index"), std::string::npos)
      << run.status();

  // A budget that fits changes nothing about the verdict.
  ResourceGovernor roomy;
  roomy.set_memory_budget(std::int64_t{1} << 30);
  options.governor = &roomy;
  RunResult governed = std::move(Interpreter(p, options).Run(t)).value();
  EXPECT_EQ(governed.accepted, plain.accepted);
  EXPECT_EQ(governed.stats.steps, plain.stats.steps);
  EXPECT_FALSE(roomy.accountant()->tripped());
  EXPECT_GT(roomy.accountant()->peak(), 0);
}

/// Cycle-memo charges are scoped to one computation: a program that
/// visits many configurations under cycle detection charges and then
/// releases, so used() returns to the baseline after the run.
TEST(GovernedInterpreter, CycleMemoChargesAreReleasedAfterTheRun) {
  Program p = std::move(ParityProgram("a")).value();
  Tree t = FullTree(2, 5);
  ResourceGovernor governor;
  governor.set_memory_budget(std::int64_t{1} << 30);
  RunOptions options;
  options.governor = &governor;
  RunResult run = std::move(Interpreter(p, options).Run(t)).value();
  EXPECT_TRUE(run.accepted || !run.accepted);  // ran to a verdict
  EXPECT_EQ(governor.accountant()->used(MemoryCategory::kCycleMemo), 0);
  EXPECT_GT(governor.accountant()->peak(), 0);
}

/// The cycle memo charges its hash table before each doubling: a long
/// walk under a budget smaller than the table it needs trips
/// RESOURCE_EXHAUSTED naming cycle-memo, and the books never pass the
/// budget — the table that would not fit is never allocated.
TEST(GovernedInterpreter, LongWalkTripsTheCycleMemoBeforeItsTableGrows) {
  // delim(FullTree(2, 15)) has 163,840 nodes; the full DFS visits
  // 229,376 configurations, 64 to a 16-byte slot where their node ids
  // run consecutively.  The table outgrows the budget at its 8,192-slot
  // doubling (a 128 KiB table).
  Program p = std::move(HasLabelProgram("missing")).value();
  Tree t = FullTree(2, 15);
  RunResult plain = std::move(Interpreter(p).Run(t)).value();
  EXPECT_FALSE(plain.accepted);

  constexpr std::int64_t kBudget = 64 << 10;
  ResourceGovernor governor;
  governor.set_memory_budget(kBudget);
  RunOptions options;
  options.governor = &governor;
  auto run = Interpreter(p, options).Run(t);
  ASSERT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status();
  EXPECT_NE(run.status().message().find("to cycle-memo"), std::string::npos)
      << run.status();
  EXPECT_TRUE(governor.accountant()->tripped());
  EXPECT_LE(governor.accountant()->peak(), kBudget);
  EXPECT_GT(governor.accountant()->peak(MemoryCategory::kCycleMemo), 0);
  // The trip unwinds the computation, which releases the memo.
  EXPECT_EQ(governor.accountant()->used(MemoryCategory::kCycleMemo), 0);

  // Cycle detection off: no memo, so the same budget runs to the verdict.
  ResourceGovernor unmemoized;
  unmemoized.set_memory_budget(kBudget);
  options.governor = &unmemoized;
  options.detect_cycles = false;
  RunResult walked = std::move(Interpreter(p, options).Run(t)).value();
  EXPECT_EQ(walked.accepted, plain.accepted);
  EXPECT_EQ(walked.stats, plain.stats);
  EXPECT_EQ(unmemoized.accountant()->peak(MemoryCategory::kCycleMemo), 0);
}

TEST(GovernedInterpreter, CycleMemoCostsUnderAByteAStepOnAWalk) {
  // A DFS meets runs of consecutive node ids in one state, and the memo
  // records 64 of them in one 16-byte slot, ~0.6 bytes a step.  A memo
  // that spends a slot or a hashed key per configuration cannot stay
  // under a byte a step.
  Program p = std::move(HasLabelProgram("missing")).value();
  Tree t = FullTree(2, 14);
  ResourceGovernor governor;
  governor.set_memory_budget(std::int64_t{1} << 30);
  RunOptions options;
  options.governor = &governor;
  RunResult run = std::move(Interpreter(p, options).Run(t)).value();
  EXPECT_FALSE(run.accepted);
  ASSERT_GT(run.stats.steps, 0);
  const std::int64_t peak =
      governor.accountant()->peak(MemoryCategory::kCycleMemo);
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, run.stats.steps)
      << peak << " memo bytes for " << run.stats.steps << " steps";
  EXPECT_EQ(governor.accountant()->used(MemoryCategory::kCycleMemo), 0);
}

}  // namespace
}  // namespace treewalk
