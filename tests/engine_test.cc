// Tests for the batch evaluation engine (src/engine): determinism
// across thread counts, shared read-only inputs, per-job error
// isolation, cooperative cancellation, and the interpreter's selector
// cache and instrumentation counters it surfaces.

#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/automata/builder.h"
#include "src/automata/library.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"

namespace treewalk {
namespace {

struct Workload {
  std::vector<Program> programs;
  std::vector<Tree> trees;      // t
  std::vector<Tree> delimited;  // delim(t), index-aligned with trees
  std::vector<BatchJob> jobs;

  /// The t job `i` walks delim(t) of.
  const Tree& SourceOf(std::size_t i) const {
    return trees[(i / 2) % trees.size()];
  }
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
  for (const Tree& t : w.trees) w.delimited.push_back(Delimit(t).tree);

  // 6 programs x 6 trees = 36, repeated to 64 jobs.
  for (int i = 0; i < 64; ++i) {
    BatchJob job;
    job.program = &w.programs[static_cast<std::size_t>(i) % w.programs.size()];
    job.delimited =
        &w.delimited[static_cast<std::size_t>(i / 2) % w.delimited.size()];
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
    auto direct = interpreter.Run(w.SourceOf(i));
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_TRUE(batch.results[i].status.ok()) << batch.results[i].status;
    EXPECT_EQ(batch.results[i].run.accepted, direct->accepted) << "job " << i;
    EXPECT_EQ(batch.results[i].run.stats, direct->stats) << "job " << i;
  }
}

/// The engine walks the delim(t) it is given, wherever it came from:
/// Delimit(t) or a snapshot image's mapped delim(t) sections.  Either
/// way every job equals Interpreter::Run(t), at 1 and at 8 threads.
TEST(BatchEngine, RunsDelimitedTreesFromEitherSourceLikeRunOnT) {
  Workload w = MixedWorkload();
  std::vector<Tree> mapped;
  for (const Tree& t : w.trees) {
    auto image = std::make_shared<const std::string>(EncodeTreeSnapshot(t));
    mapped.push_back(std::move(DelimitedTreeFromSnapshotImage(image)).value());
  }
  std::vector<BatchJob> from_snapshot = w.jobs;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    w.jobs[i].options.record_trace = true;
    from_snapshot[i] = w.jobs[i];
    from_snapshot[i].delimited = &mapped[(i / 2) % mapped.size()];
  }
  for (const std::vector<BatchJob>* jobs : {&w.jobs, &from_snapshot}) {
    for (int threads : {1, 8}) {
      auto batch = BatchEngine({.num_threads = threads}).RunBatch(*jobs);
      ASSERT_TRUE(batch.ok()) << batch.status();
      for (std::size_t i = 0; i < jobs->size(); ++i) {
        const JobResult& got = batch->results[i];
        auto want = Interpreter(*(*jobs)[i].program, (*jobs)[i].options)
                        .Run(w.SourceOf(i));
        ASSERT_TRUE(want.ok()) << want.status();
        ASSERT_TRUE(got.status.ok()) << "job " << i << ": " << got.status;
        EXPECT_EQ(got.run.accepted, want->accepted) << "job " << i;
        EXPECT_EQ(got.run.reason, want->reason) << "job " << i;
        EXPECT_EQ(got.run.stats, want->stats) << "job " << i;
        EXPECT_EQ(got.run.trace, want->trace) << "job " << i;
      }
    }
  }
}

/// delim(t) of a tree whose nodes carry the string values v0..v7 of
/// attribute `a`.
Tree StringValuedTree() {
  std::string term = "r(";
  for (int i = 0; i < 24; ++i) {
    term += (i > 0 ? ", " : "") + std::string("n[a=\"v") +
            std::to_string(i % 8) + "\"]";
  }
  return Delimit(std::move(ParseTerm(term + ")")).value()).tree;
}

/// Accepts iff some node's `a` is the string `value`: a look-ahead from
/// the root collects the values of the nodes the selector finds, and a
/// store guard tests for `value` — a string constant in a tree formula
/// and in a store formula.
Program HasStringValueProgram(const std::string& value) {
  const std::string quoted = "\"" + value + "\"";
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  b.OnLookAhead("#top", "q0", "true", "q1", "X1",
                "desc(x, y) & val(a, y) = " + quoted, "p");
  b.OnMove("#top", "q1", "X1(" + quoted + ")", "qf", Move::kStay);
  b.OnUpdate("*", "p", "true", "qf", "X1", "u = attr(a)", {"u"});
  return std::move(b.Build()).value();
}

/// Jobs sharing one tree whose programs carry distinct string constants,
/// half of them absent from the tree: the runs intern those constants
/// into the shared ValueInterner concurrently, in whatever order they
/// meet them, and the results are the same at 1 and 8 threads.
TEST(BatchEngine, ConcurrentlyInternedConstantsLeaveResultsUnchanged) {
  std::vector<Program> programs;
  for (int k = 0; k < 16; ++k) {
    programs.push_back(HasStringValueProgram("v" + std::to_string(k)));
  }
  auto run = [&](int threads) {
    // A fresh tree per batch: every constant the tree lacks is interned
    // by the runs of this batch.
    Tree delimited = StringValuedTree();
    std::vector<BatchJob> jobs(64);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].program = &programs[i % programs.size()];
      jobs[i].delimited = &delimited;
      jobs[i].options.record_trace = true;
    }
    return std::move(BatchEngine({.num_threads = threads}).RunBatch(jobs))
        .value();
  };
  const BatchResult serial = run(1);
  EXPECT_EQ(serial.stats.failed, 0);
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    // v0..v7 occur in the tree, v8..v15 do not.
    EXPECT_EQ(serial.results[i].run.accepted, i % 16 < 8) << "job " << i;
  }
  ExpectSameResults(serial, run(8));
}

TEST(BatchEngine, MalformedJobsFailIndividuallyNotBatchwide) {
  Program p = std::move(HasLabelProgram("a")).value();
  Tree t = Delimit(FullTree(2, 2)).tree;
  Tree empty;
  std::vector<BatchJob> jobs(3);
  jobs[0] = {.program = &p, .delimited = &t, .options = {}};
  jobs[1] = {.program = nullptr, .delimited = &t, .options = {}};
  jobs[2] = {.program = &p, .delimited = &empty, .options = {}};
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
  const Tree delimited = Delimit(t).tree;
  std::vector<BatchJob> jobs(4);
  for (BatchJob& job : jobs) {
    job.program = &p;
    job.delimited = &delimited;
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
