// Engine-level fault-injection and resource-governance tests: per-job
// deadlines and budgets, the retry/degradation ladder, mid-batch fault
// isolation, and determinism of whole random failpoint schedules.  The
// acceptance scenario of docs/ROBUSTNESS.md — one batch containing a
// non-terminating job, a memory hog, and a malformed job, whose healthy
// siblings succeed identically to a no-governor run — lives here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/automata/builder.h"
#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/automata/text_format.h"
#include "src/common/failpoint.h"
#include "src/common/governor.h"
#include "src/engine/engine.h"
#include "src/tree/generate.h"

namespace treewalk {
namespace {

class EngineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().DisableAll(); }
  void TearDown() override { FailpointRegistry::Global().DisableAll(); }
};

/// A program with one atp() look-ahead whose quantifier-free selector
/// the compiler accepts.
Program SelectorProgram() {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  b.OnLookAhead("#top", "q0", "true", "q1", "X1",
                "desc(x, y) & lab(y, #leaf)", "p");
  b.OnMove("#top", "q1", "true", "qf", Move::kStay);
  b.OnMove("*", "p", "true", "qf", Move::kStay);
  return std::move(b.Build()).value();
}

/// A quantifier-depth-2 look-ahead: the reference evaluator pays n^2
/// per origin for it; the compiler accepts it, so runs answer it
/// seeded.  On a 2000-node tree its compiled evaluation
/// outgrows a 64 KiB budget (GovernedInterpreter.
/// MemoryBudgetTripsOnWideTreeSelectors trips on the same selector).
Program QuantifiedSelectorProgram() {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  b.OnLookAhead("#top", "q0", "true", "q1", "X1",
                "exists z exists w (desc(x, y) & E(z, y) & E(w, z))", "p");
  b.OnMove("#top", "q1", "true", "qf", Move::kStay);
  b.OnMove("*", "p", "true", "qf", Move::kStay);
  return std::move(b.Build()).value();
}

TEST_F(EngineFaultTest, PerJobDeadlineFailsOnlyThatJob) {
  Program counter = std::move(ExponentialCounterProgram()).value();
  Program fast = std::move(HasLabelProgram("a")).value();
  Tree chain = FullTree(1, 29);
  AssignUniqueIds(chain);
  Tree small = FullTree(2, 3);

  std::vector<BatchJob> jobs(3);
  jobs[0].program = &fast;
  jobs[0].tree = &small;
  jobs[1].program = &counter;
  jobs[1].tree = &chain;
  jobs[1].options.max_steps = std::int64_t{1} << 60;
  jobs[1].options.detect_cycles = false;
  jobs[1].deadline_ms = 100;
  jobs[2].program = &fast;
  jobs[2].tree = &small;

  BatchResult batch =
      std::move(BatchEngine({.num_threads = 2}).RunBatch(jobs)).value();
  EXPECT_TRUE(batch.results[0].status.ok());
  EXPECT_EQ(batch.results[1].status.code(), StatusCode::kDeadlineExceeded)
      << batch.results[1].status;
  EXPECT_TRUE(batch.results[2].status.ok());
  EXPECT_EQ(batch.stats.failed, 1);
  EXPECT_EQ(batch.stats.deadline_hits, 1);
}

/// The ladder is constant: the retry after a failed first attempt runs
/// on rung 1, which turns cycle detection off and caps steps at
/// kDegradedMaxSteps whatever the job asked for.  A job submitted with
/// a far larger step budget, whose walk loops in place, fails its retry
/// on that cap instead of rejecting with kCycle.
TEST_F(EngineFaultTest, RetryRungCapsStepsAtTheLadderConstant) {
  auto loop = ParseProgramText(
      "class tw\nstates q0 qf\nrule #top q0 [true] move stay q0\n");
  ASSERT_TRUE(loop.ok()) << loop.status().ToString();
  Tree t = FullTree(2, 2);
  BatchJob job;
  job.program = &*loop;
  job.tree = &t;
  job.options.max_steps = std::int64_t{1} << 60;
  job.max_attempts = 2;

  FailpointRegistry::Config config;
  config.code = StatusCode::kInternal;  // fails the first attempt only
  FailpointRegistry::Global().Enable("engine/worker", config);
  BatchResult batch =
      std::move(BatchEngine({.num_threads = 1}).RunBatch({job})).value();
  const JobResult& r = batch.results[0];
  ASSERT_EQ(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].rung, 0);
  EXPECT_EQ(r.attempts[0].status.code(), StatusCode::kInternal);
  EXPECT_EQ(r.attempts[1].rung, 1);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status;
  EXPECT_NE(r.status.message().find("max_steps=" +
                                    std::to_string(kDegradedMaxSteps)),
            std::string::npos)
      << r.status;
  EXPECT_EQ(batch.stats.retries, 1);
  EXPECT_EQ(batch.stats.degraded_successes, 0);
}

/// No rung changes the selector evaluator, so a persistent axis-index
/// allocation fault — a budget-class failure, hard for the compiled
/// path — fails the job on every rung.  The look-ahead of
/// QuantifiedSelectorProgram narrowed to one node by its id: compiling
/// it loads that id's attribute-value set, an axis index allocation
/// behind the failpoint (seeded evaluation reads axis relations by tree
/// navigation and never allocates them).
Program IdGuardedSelectorProgram() {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X1", 1);
  b.OnLookAhead(
      "#top", "q0", "true", "q1", "X1",
      "exists z exists w (desc(x, y) & E(z, y) & E(w, z) & val(id, y) = 9)",
      "p");
  b.OnMove("#top", "q1", "true", "qf", Move::kStay);
  b.OnMove("*", "p", "true", "qf", Move::kStay);
  return std::move(b.Build()).value();
}

TEST_F(EngineFaultTest, DegradationLadderDoesNotEscapeAxisIndexFaults) {
  Program p = IdGuardedSelectorProgram();
  Tree t = FullTree(2, 4);
  AssignUniqueIds(t);

  FailpointRegistry::Config config;
  config.code = StatusCode::kResourceExhausted;
  config.max_fires = 0;  // keep firing on every attempt
  FailpointRegistry::Global().Enable("axis_index/alloc", config);

  BatchJob job;
  job.program = &p;
  job.tree = &t;
  job.max_attempts = 3;
  BatchResult batch =
      std::move(BatchEngine({.num_threads = 1}).RunBatch({job})).value();
  const JobResult& r = batch.results[0];
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted) << r.status;
  ASSERT_EQ(r.attempts.size(), 3u);
  // Rungs 0, 1, 1: every retry after the first stays on the last rung.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.attempts[static_cast<std::size_t>(i)].rung, std::min(i, 1));
    EXPECT_EQ(r.attempts[static_cast<std::size_t>(i)].status.code(),
              StatusCode::kResourceExhausted)
        << "attempt " << i;
  }
  EXPECT_EQ(batch.stats.retries, 2);
  EXPECT_EQ(batch.stats.degraded_successes, 0);
}

/// A program asking a selector at every node of a path used to keep one
/// answer per origin in a per-run cache, and on FullTree(1, 60) its
/// governor peak was 47,208 bytes with that cache and 1,960 without.
/// Under the budget halfway between them, which tripped the submitted
/// attempt and needed a retry with the cache off, the job now succeeds
/// on its first attempt with the clean run's verdict, reason and steps.
TEST_F(EngineFaultTest, EveryNodeSelectorJobFitsTheBudgetItUsedToTrip) {
  auto program = ParseProgramText(
      "class twrl\nstates fwd qf\nregister X1 1\n"
      "rule #top fwd [true] move down fwd\n"
      "rule #open fwd [true] move right fwd\n"
      "rule * fwd [true] atp X1 \"exists z (desc(x, z) & E(z, y))\" acc dn\n"
      "rule * acc [true] move stay qf\n"
      "rule * dn [true] move down fwd\n"
      "rule #leaf fwd [true] move up back\n"
      "rule #close fwd [true] move up back\n"
      "rule * back [true] move right fwd\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const Tree path = FullTree(1, 60);

  BatchJob clean;
  clean.program = &*program;
  clean.tree = &path;
  BatchResult reference =
      std::move(BatchEngine({.num_threads = 1}).RunBatch({clean})).value();
  ASSERT_TRUE(reference.results[0].status.ok());

  BatchJob job = clean;
  job.memory_budget_bytes = 24'584;
  job.max_attempts = 3;
  BatchResult batch =
      std::move(BatchEngine({.num_threads = 1}).RunBatch({job})).value();
  const JobResult& r = batch.results[0];
  ASSERT_TRUE(r.status.ok()) << r.status;
  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_EQ(r.attempts[0].rung, 0);
  EXPECT_FALSE(r.attempts[0].memory_tripped);
  const RunResult& clean_run = reference.results[0].run;
  EXPECT_EQ(r.run.accepted, clean_run.accepted);
  EXPECT_EQ(r.run.reason, clean_run.reason);
  EXPECT_EQ(r.run.stats.steps, clean_run.stats.steps);
  EXPECT_EQ(batch.stats.retries, 0);
  EXPECT_EQ(batch.stats.memory_trips, 0);
}

/// A mid-batch injected fault fails exactly the job that hits the site;
/// siblings in the same batch are untouched and match a clean run.
TEST_F(EngineFaultTest, MidBatchFaultIsIsolatedToTheFaultedJob) {
  Program walker = std::move(HasLabelProgram("a")).value();
  Program lookahead = SelectorProgram();
  Tree t = FullTree(2, 3);
  std::vector<BatchJob> jobs(3);
  jobs[0].program = &walker;
  jobs[0].tree = &t;
  jobs[1].program = &lookahead;  // the only job that evaluates atp()
  jobs[1].tree = &t;
  jobs[2].program = &walker;
  jobs[2].tree = &t;

  BatchResult clean =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(jobs)).value();
  ASSERT_TRUE(clean.results[1].status.ok());

  FailpointRegistry::Config config;
  config.code = StatusCode::kInternal;
  config.max_fires = 0;
  FailpointRegistry::Global().Enable("interpreter/select", config);
  BatchResult faulted =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(jobs)).value();
  FailpointRegistry::Global().DisableAll();

  EXPECT_EQ(faulted.results[1].status.code(), StatusCode::kInternal);
  for (std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(faulted.results[i].status.ok()) << "job " << i;
    EXPECT_EQ(faulted.results[i].run.accepted, clean.results[i].run.accepted);
    EXPECT_EQ(faulted.results[i].run.stats.steps,
              clean.results[i].run.stats.steps);
  }
  EXPECT_EQ(faulted.stats.failed, 1);
}

/// The acceptance scenario: one batch holding a non-terminating job
/// (cycle detection off, saved by its deadline), a job whose selector
/// compilation would materialize far more than its byte budget, and a
/// malformed job — while the healthy siblings succeed with results
/// identical to a run without any governor.
TEST_F(EngineFaultTest, AcceptanceScenarioFailsSickJobsAndSparesSiblings) {
  Program fast = std::move(HasLabelProgram("a")).value();
  Program parity = std::move(ParityProgram("a")).value();
  Program counter = std::move(ExponentialCounterProgram()).value();
  Program hog = QuantifiedSelectorProgram();
  Tree small = FullTree(2, 3);
  Tree chain = FullTree(1, 29);
  AssignUniqueIds(chain);
  std::mt19937 rng(5);
  RandomTreeOptions wide;
  wide.num_nodes = 2000;
  wide.labels = {"a", "b"};
  Tree big = RandomTree(rng, wide);

  std::vector<BatchJob> jobs(5);
  jobs[0].program = &fast;  // healthy
  jobs[0].tree = &small;
  jobs[1].program = &counter;  // non-terminating: deadline must fire
  jobs[1].tree = &chain;
  jobs[1].options.max_steps = std::int64_t{1} << 60;
  jobs[1].options.detect_cycles = false;
  jobs[1].deadline_ms = 150;
  jobs[2].program = &hog;  // compiled: outgrows a 64KiB budget
  jobs[2].tree = &big;
  jobs[2].memory_budget_bytes = 64 << 10;
  jobs[3].program = nullptr;  // malformed
  jobs[3].tree = &small;
  jobs[4].program = &parity;  // healthy
  jobs[4].tree = &small;

  BatchResult governed =
      std::move(BatchEngine({.num_threads = 2}).RunBatch(jobs)).value();

  EXPECT_TRUE(governed.results[0].status.ok());
  EXPECT_EQ(governed.results[1].status.code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(governed.results[2].status.code(),
            StatusCode::kResourceExhausted);
  ASSERT_EQ(governed.results[2].attempts.size(), 1u);
  EXPECT_TRUE(governed.results[2].attempts[0].memory_tripped);
  // The trip is the compiled path's (seeded evaluation's row batches,
  // charged as compiled-ops); the breakdown names the axis index's
  // share.
  const std::string& trip = governed.results[2].status.message();
  EXPECT_NE(trip.find("axis-index"), std::string::npos) << trip;
  EXPECT_EQ(governed.results[3].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(governed.results[4].status.ok());
  EXPECT_EQ(governed.stats.failed, 3);
  EXPECT_GE(governed.stats.deadline_hits, 1);
  EXPECT_GE(governed.stats.memory_trips, 1);

  // The healthy siblings are bit-identical to a no-governor batch.
  std::vector<BatchJob> plain_jobs = {jobs[0], jobs[4]};
  for (BatchJob& job : plain_jobs) {
    job.deadline_ms = 0;
    job.memory_budget_bytes = 0;
  }
  BatchResult plain =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(plain_jobs)).value();
  for (int k : {0, 1}) {
    const JobResult& g = governed.results[k == 0 ? 0 : 4];
    const JobResult& u = plain.results[static_cast<std::size_t>(k)];
    EXPECT_EQ(g.run.accepted, u.run.accepted);
    EXPECT_EQ(g.run.reason, u.run.reason);
    EXPECT_EQ(g.run.stats, u.run.stats);
  }
}

/// Whole-schedule determinism: for each seed, arming the same random
/// failpoint schedule twice and running the same serial batch gives
/// identical per-job outcomes, attempt ladders, and verdicts — and any
/// job that ultimately succeeds (possibly degraded) reports the same
/// verdict as a fault-free reference run.
TEST_F(EngineFaultTest, RandomFailpointSchedulesAreDeterministicPerSeed) {
  Program walker = std::move(HasLabelProgram("a")).value();
  Program parity = std::move(ParityProgram("a")).value();
  Program lookahead = SelectorProgram();
  Tree t = FullTree(2, 3);
  std::vector<BatchJob> jobs(4);
  jobs[0].program = &walker;
  jobs[1].program = &lookahead;
  jobs[2].program = &parity;
  jobs[3].program = &lookahead;
  for (BatchJob& job : jobs) {
    job.tree = &t;
    job.max_attempts = 4;
  }

  BatchResult reference =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(jobs)).value();
  for (const JobResult& r : reference.results) ASSERT_TRUE(r.status.ok());

  auto fingerprint = [&](const BatchResult& batch) {
    std::string out;
    for (const JobResult& r : batch.results) {
      out += std::string(StatusCodeName(r.status.code())) + "/";
      if (r.status.ok()) out += r.run.accepted ? "A" : "R";
      for (const JobResult::Attempt& a : r.attempts) {
        out += ";" + std::to_string(a.rung) + ":" +
               StatusCodeName(a.status.code());
      }
      out += "|";
    }
    return out;
  };

  int faulted_runs = 0;
  int degraded_successes = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    FailpointRegistry::Global().ArmRandomSchedule(seed);
    BatchResult first =
        std::move(BatchEngine({.num_threads = 1}).RunBatch(jobs)).value();
    FailpointRegistry::Global().ArmRandomSchedule(seed);
    BatchResult second =
        std::move(BatchEngine({.num_threads = 1}).RunBatch(jobs)).value();
    FailpointRegistry::Global().DisableAll();

    EXPECT_EQ(fingerprint(first), fingerprint(second)) << "seed " << seed;
    for (std::size_t i = 0; i < first.results.size(); ++i) {
      const JobResult& r = first.results[i];
      if (r.attempts.size() > 1) ++faulted_runs;
      if (r.status.ok()) {
        // Degraded or not, a success must report the true verdict.
        EXPECT_EQ(r.run.accepted, reference.results[i].run.accepted)
            << "seed " << seed << " job " << i;
        if (r.attempts.back().rung > 0) ++degraded_successes;
      }
    }
  }
  // The schedules actually exercised recovery paths.
  EXPECT_GT(faulted_runs, 0);
  EXPECT_GT(degraded_successes, 0);
}

/// EngineStats bookkeeping under concurrency: for 100 random failpoint
/// schedules run on 4 workers, every aggregate counter must equal the
/// value recomputed from the per-job attempt ladders — retries,
/// deadline hits, degraded successes, and the accepted/rejected/failed
/// partition all sum consistently no matter how attempts interleave.
TEST_F(EngineFaultTest, StatsSumConsistentlyUnderConcurrentFaults) {
  Program walker = std::move(HasLabelProgram("a")).value();
  Program parity = std::move(ParityProgram("a")).value();
  Program lookahead = SelectorProgram();
  Tree t = FullTree(2, 3);
  std::vector<BatchJob> jobs(6);
  jobs[0].program = &walker;
  jobs[1].program = &lookahead;
  jobs[2].program = &parity;
  jobs[3].program = &lookahead;
  jobs[4].program = &walker;
  jobs[5].program = &parity;
  for (BatchJob& job : jobs) {
    job.tree = &t;
    job.max_attempts = 4;
  }

  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    FailpointRegistry::Global().ArmRandomSchedule(seed);
    BatchResult batch =
        std::move(BatchEngine({.num_threads = 4}).RunBatch(jobs)).value();
    FailpointRegistry::Global().DisableAll();

    EngineStats expect;
    for (const JobResult& r : batch.results) {
      ++expect.jobs;
      ASSERT_GE(r.attempts.size(), 1u) << "seed " << seed;
      ASSERT_LE(r.attempts.size(), 4u) << "seed " << seed;
      EXPECT_EQ(r.attempts.back().status, r.status) << "seed " << seed;
      for (const JobResult::Attempt& a : r.attempts) {
        if (a.status.code() == StatusCode::kDeadlineExceeded) {
          ++expect.deadline_hits;
        }
        if (a.memory_tripped) ++expect.memory_trips;
      }
      expect.retries += static_cast<std::int64_t>(r.attempts.size()) - 1;
      if (r.status.ok()) {
        if (r.attempts.back().rung > 0) ++expect.degraded_successes;
        ++(r.run.accepted ? expect.accepted : expect.rejected);
      } else {
        ++expect.failed;
        if (r.status.code() == StatusCode::kCancelled) ++expect.cancelled;
      }
    }
    EXPECT_EQ(batch.stats.jobs, expect.jobs) << "seed " << seed;
    EXPECT_EQ(batch.stats.retries, expect.retries) << "seed " << seed;
    EXPECT_EQ(batch.stats.deadline_hits, expect.deadline_hits)
        << "seed " << seed;
    EXPECT_EQ(batch.stats.memory_trips, expect.memory_trips)
        << "seed " << seed;
    EXPECT_EQ(batch.stats.degraded_successes, expect.degraded_successes)
        << "seed " << seed;
    EXPECT_EQ(batch.stats.accepted, expect.accepted) << "seed " << seed;
    EXPECT_EQ(batch.stats.rejected, expect.rejected) << "seed " << seed;
    EXPECT_EQ(batch.stats.failed, expect.failed) << "seed " << seed;
    EXPECT_EQ(batch.stats.cancelled, expect.cancelled) << "seed " << seed;
    // The verdict partition covers every job exactly once.
    EXPECT_EQ(batch.stats.accepted + batch.stats.rejected +
                  batch.stats.failed,
              batch.stats.jobs)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace treewalk
