// Tests for the batch evaluation engine (src/engine): determinism
// across thread counts, shared read-only inputs, per-job error
// isolation, cooperative cancellation, and the interpreter's selector
// cache and instrumentation counters it surfaces.

#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "src/automata/builder.h"
#include "src/automata/library.h"
#include "src/tree/generate.h"

namespace treewalk {
namespace {

struct Workload {
  std::vector<Program> programs;
  std::vector<Tree> trees;
  std::vector<BatchJob> jobs;
};

/// A mixed 64-job workload over the library programs: shared programs,
/// shared trees, accepting and rejecting runs, all four device classes.
Workload MixedWorkload() {
  Workload w;
  w.programs.push_back(std::move(HasLabelProgram("a")).value());
  w.programs.push_back(std::move(HasLabelProgram("missing")).value());
  w.programs.push_back(std::move(ParityProgram("a")).value());
  w.programs.push_back(std::move(AllLeavesLabelProgram("a")).value());
  w.programs.push_back(std::move(RootValueAtSomeLeafProgram("a")).value());
  w.programs.push_back(std::move(Example32Program("a")).value());

  std::mt19937 rng(17);
  RandomTreeOptions options;
  options.labels = {"a", "b", "sigma", "delta"};
  options.value_range = 4;
  for (int n : {5, 9, 17, 33}) {
    options.num_nodes = n;
    w.trees.push_back(RandomTree(rng, options));
  }
  w.trees.push_back(Example32Tree(rng, 40, /*uniform=*/true));
  w.trees.push_back(Example32Tree(rng, 40, /*uniform=*/false));

  // 6 programs x 6 trees = 36, repeated to 64 jobs.
  for (int i = 0; i < 64; ++i) {
    BatchJob job;
    job.program = &w.programs[static_cast<std::size_t>(i) % w.programs.size()];
    job.tree = &w.trees[static_cast<std::size_t>(i / 2) % w.trees.size()];
    w.jobs.push_back(job);
  }
  return w;
}

void ExpectSameResults(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].status, b.results[i].status) << "job " << i;
    EXPECT_EQ(a.results[i].run.accepted, b.results[i].run.accepted)
        << "job " << i;
    EXPECT_EQ(a.results[i].run.reason, b.results[i].run.reason) << "job " << i;
    EXPECT_EQ(a.results[i].run.stats, b.results[i].run.stats) << "job " << i;
    EXPECT_EQ(a.results[i].run.trace, b.results[i].run.trace) << "job " << i;
  }
  EXPECT_EQ(a.stats, b.stats);
}

TEST(BatchEngine, SameBatchIsIdenticalAt1And2And8Threads) {
  Workload w = MixedWorkload();
  BatchResult serial =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(w.jobs)).value();
  // Sanity: the workload exercises both verdicts.
  EXPECT_GT(serial.stats.accepted, 0);
  EXPECT_GT(serial.stats.rejected, 0);
  EXPECT_EQ(serial.stats.failed, 0);
  for (int threads : {2, 8}) {
    BatchEngine engine({.num_threads = threads});
    auto parallel = engine.RunBatch(w.jobs);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameResults(serial, *parallel);
  }
}

TEST(BatchEngine, MatchesIndividualInterpreterRuns) {
  Workload w = MixedWorkload();
  BatchResult batch =
      std::move(BatchEngine({.num_threads = 4}).RunBatch(w.jobs)).value();
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    Interpreter interpreter(*w.jobs[i].program, w.jobs[i].options);
    auto direct = interpreter.Run(*w.jobs[i].tree);
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_TRUE(batch.results[i].status.ok()) << batch.results[i].status;
    EXPECT_EQ(batch.results[i].run.accepted, direct->accepted) << "job " << i;
    EXPECT_EQ(batch.results[i].run.stats, direct->stats) << "job " << i;
  }
}

TEST(BatchEngine, MalformedJobsFailIndividuallyNotBatchwide) {
  Program p = std::move(HasLabelProgram("a")).value();
  Tree t = FullTree(2, 2);
  Tree empty;
  std::vector<BatchJob> jobs(3);
  jobs[0] = {.program = &p, .tree = &t, .options = {}};
  jobs[1] = {.program = nullptr, .tree = &t, .options = {}};
  jobs[2] = {.program = &p, .tree = &empty, .options = {}};
  BatchResult batch =
      std::move(BatchEngine({.num_threads = 2}).RunBatch(jobs)).value();
  EXPECT_TRUE(batch.results[0].status.ok());
  EXPECT_TRUE(batch.results[0].run.accepted);
  EXPECT_EQ(batch.results[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.results[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.stats.jobs, 3);
  EXPECT_EQ(batch.stats.accepted, 1);
  EXPECT_EQ(batch.stats.failed, 2);
}

TEST(BatchEngine, RejectsInvalidThreadCount) {
  BatchEngine engine({.num_threads = 0});
  EXPECT_FALSE(engine.RunBatch({}).ok());
}

TEST(BatchEngine, EmptyBatchSucceeds) {
  BatchResult batch =
      std::move(BatchEngine({.num_threads = 4}).RunBatch({})).value();
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.stats.jobs, 0);
}

TEST(BatchEngine, CooperativeCancellationAbortsLongRuns) {
  // 2^30 - 1 increments: effectively unbounded without cancellation.
  Program p = std::move(ExponentialCounterProgram()).value();
  Tree t = FullTree(1, 29);
  AssignUniqueIds(t);
  std::vector<BatchJob> jobs(4);
  for (BatchJob& job : jobs) {
    job.program = &p;
    job.tree = &t;
    job.options.max_steps = std::int64_t{1} << 60;
    job.options.detect_cycles = false;
  }
  BatchEngine engine({.num_threads = 2});
  BatchResult batch;
  std::thread runner([&]() {
    batch = std::move(engine.RunBatch(jobs)).value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  engine.RequestCancel();
  runner.join();
  EXPECT_EQ(batch.stats.cancelled, 4);
  for (const JobResult& r : batch.results) {
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  }
}

/// Two atp() rules with the *same* selector firing at the same node
/// share one prepared selector, and each firing evaluates it: no run
/// remembers a selector's answer, so selector_cache_hits stays 0.
TEST(SelectorCache, RepeatedSelectorAtOneNodeIsEvaluatedEachTime) {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  b.DeclareRegister("X2", 1);
  b.InitRegister("X1", 7);
  const char* selector = "desc(x, y) & lab(y, #leaf)";
  b.OnLookAhead("#top", "q0", "true", "q1", "X1", selector, "p");
  b.OnLookAhead("#top", "q1", "true", "q2", "X2", selector, "p");
  b.OnMove("#top", "q2", "true", "qf", Move::kStay);
  b.OnMove("*", "p", "true", "qf", Move::kStay);
  Program p = std::move(b.Build()).value();

  RunResult r = std::move(Interpreter(p).Run(FullTree(2, 2))).value();
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.stats.atp_calls, 2);
  EXPECT_EQ(r.stats.selector_cache_hits, 0);
  EXPECT_EQ(r.stats.selector_cache_misses, 2);
  EXPECT_EQ(r.stats.compiled_selector_evals, 2);
  EXPECT_EQ(r.stats.planner_picks_interval, 1);
}

TEST(SelectorCache, CountersAreConsistentAcrossTheLibrary) {
  Workload w = MixedWorkload();
  BatchResult batch =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(w.jobs)).value();
  EXPECT_EQ(batch.stats.selector_evals, batch.stats.atp_calls);
  for (const JobResult& r : batch.results) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.run.stats.selector_cache_hits, 0);
    EXPECT_EQ(r.run.stats.selector_cache_misses, r.run.stats.atp_calls);
  }
}

}  // namespace
}  // namespace treewalk
