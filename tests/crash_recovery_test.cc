// Crash consistency end to end: a child process is SIGKILLed mid-batch
// and the journal it leaves behind — additionally truncated at every
// byte offset — always yields a resume that completes the remaining
// jobs exactly once.  Graceful shutdown is exercised the same way:
// SIGTERM drains and exits with GracefulShutdown::kExitInterrupted, a
// second signal aborts immediately with 128+signo, and a SIGTERM while
// the real `twq batch` loads its inputs exits 75 as well.
//
// Except for the `twq batch` leg, the children are fork()ed from the
// test binary itself (no exec), so the scenarios run against in-process
// BatchEngine + BatchJournal state exactly as tools/twq.cc wires them.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/automata/library.h"
#include "src/common/journal.h"
#include "src/engine/batch_journal.h"
#include "src/engine/engine.h"
#include "src/engine/shutdown.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"

namespace treewalk {
namespace {

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("treewalk_crash_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    fast_ = std::move(HasLabelProgram("a")).value();
    counter_ = std::move(ExponentialCounterProgram()).value();
    small_ = Delimit(FullTree(2, 3)).tree;
    Tree chain = FullTree(1, 29);
    AssignUniqueIds(chain);
    chain_ = Delimit(chain).tree;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A sub-millisecond job with stable id `id`.
  BatchJob FastJob(std::uint64_t id) const {
    BatchJob job;
    job.program = &fast_;
    job.delimited = &small_;
    job.job_id = id;
    return job;
  }

  /// A job that never finishes on its own (exponential counter, cycle
  /// detection off, effectively unbounded steps) — it pins a worker
  /// until the process is killed or the batch is cancelled.
  BatchJob InfiniteJob(std::uint64_t id) const {
    BatchJob job;
    job.program = &counter_;
    job.delimited = &chain_;
    job.options.max_steps = std::int64_t{1} << 60;
    job.options.detect_cycles = false;
    job.job_id = id;
    return job;
  }

  /// The same job made terminal for resume runs: a small step cap makes
  /// it fail kResourceExhausted deterministically in a few milliseconds
  /// (max_attempts stays 1, so the failure is a terminal finish).  Keep
  /// the cap low — the every-offset loop reruns this job hundreds of
  /// times, and the counter's cost grows super-linearly in the cap.
  BatchJob BoundedCounterJob(std::uint64_t id) const {
    BatchJob job = InfiniteJob(id);
    job.options.max_steps = 1 << 7;
    return job;
  }

  /// Polls `journal_path` until it holds at least `want` terminal
  /// kJobFinished records (torn tails tolerated).  Returns false on
  /// timeout.
  static bool WaitForFinishes(const std::string& journal_path, int want) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      Result<JournalContents> contents = ReadJournal(journal_path);
      if (contents.ok()) {
        int finishes = 0;
        for (const std::string& payload : contents->records) {
          Result<BatchRecord> record = DecodeBatchRecord(payload);
          if (record.ok() && record->type == BatchRecord::Type::kJobFinished &&
              record->code != StatusCode::kCancelled) {
            ++finishes;
          }
        }
        if (finishes >= want) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  static void Spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Runs the jobs in `by_id` that `plan` does not mark completed,
  /// journaling into `journal_path`, and returns the rerun ids.
  /// `flush` fsyncs at the end; the every-offset loop skips it (an
  /// fsync per truncation point dominates the test's wall clock, and
  /// the exactly-once assertions only read the page cache).
  std::vector<std::uint64_t> ResumeRun(
      const std::string& journal_path, const ResumePlan& plan,
      const std::map<std::uint64_t, BatchJob>& by_id, bool flush = true) {
    std::vector<std::uint64_t> rerun_ids;
    std::vector<BatchJob> remaining;
    for (const auto& [id, job] : by_id) {
      if (plan.completed.count(id) != 0) continue;
      rerun_ids.push_back(id);
      remaining.push_back(job);
    }
    if (!remaining.empty()) {
      Result<BatchJournal> journal = BatchJournal::Open(journal_path);
      EXPECT_TRUE(journal.ok()) << journal.status();
      BatchEngine engine({.num_threads = 2});
      Result<BatchResult> run = engine.RunBatch(remaining, &*journal);
      EXPECT_TRUE(run.ok()) << run.status();
      if (flush) {
        EXPECT_TRUE(journal->Flush().ok());
      }
      EXPECT_TRUE(journal->first_error().ok());
    }
    return rerun_ids;
  }

  /// The exactly-once postcondition: after a resume, every job id is
  /// completed, nothing is left in flight, and no id has two terminal
  /// finish records.
  void ExpectExactlyOnce(const std::string& journal_path,
                         const std::map<std::uint64_t, BatchJob>& by_id,
                         const std::string& context) {
    Result<ResumePlan> plan = LoadResumePlan(journal_path);
    ASSERT_TRUE(plan.ok()) << context << ": " << plan.status();
    EXPECT_TRUE(plan->duplicate_finishes.empty())
        << context << ": job " << (plan->duplicate_finishes.empty()
                                       ? 0
                                       : plan->duplicate_finishes[0])
        << " finished twice";
    EXPECT_EQ(plan->completed.size(), by_id.size()) << context;
    for (const auto& [id, job] : by_id) {
      EXPECT_EQ(plan->completed.count(id), 1u) << context << ": job " << id;
    }
    EXPECT_TRUE(plan->in_flight.empty()) << context;
  }

  std::filesystem::path dir_;
  Program fast_;
  Program counter_;
  Tree small_;
  Tree chain_;
};

/// SIGKILL mid-batch, then truncate the surviving journal at EVERY byte
/// offset; for each cut, repair + resume must complete all jobs with no
/// duplicate terminal finish.
TEST_F(CrashRecoveryTest, SigkillMidBatchThenResumeIsExactlyOnce) {
  const std::string journal_path = Path("journal");

  // Ids 1..5: four fast jobs and one that never finishes (it guarantees
  // the child is still mid-batch when the parent kills it).
  std::map<std::uint64_t, BatchJob> resume_jobs;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    resume_jobs.emplace(id, FastJob(id));
  }
  resume_jobs.emplace(5, BoundedCounterJob(5));

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: 2 workers — one drains the fast jobs (finish records hit
    // the journal), the other is pinned by the infinite job.
    std::vector<BatchJob> jobs = {InfiniteJob(5), FastJob(1), FastJob(2),
                                  FastJob(3), FastJob(4)};
    Result<BatchJournal> journal = BatchJournal::Open(journal_path);
    if (!journal.ok()) _exit(101);
    BatchEngine engine({.num_threads = 2});
    (void)engine.RunBatch(jobs, &*journal);
    _exit(102);  // unreachable while job 5 spins
  }

  ASSERT_TRUE(WaitForFinishes(journal_path, 4))
      << "child never journaled the fast finishes";
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The journal survives the SIGKILL (page cache, no fsync required)
  // with the four fast finishes intact.
  std::string full = Slurp(journal_path);
  ASSERT_GT(full.size(), kJournalHeaderBytes);
  Result<ResumePlan> killed_plan = LoadResumePlan(journal_path);
  ASSERT_TRUE(killed_plan.ok()) << killed_plan.status();
  EXPECT_EQ(killed_plan->completed.size(), 4u);
  EXPECT_EQ(killed_plan->in_flight.count(5), 1u);

  // Every truncation point: repair, resume, assert exactly-once.
  for (std::size_t cut = kJournalHeaderBytes; cut <= full.size(); ++cut) {
    const std::string trial = Path("trial");
    Spit(trial, full.substr(0, cut));
    // Reopening for append repairs the torn tail in place.
    {
      Result<JournalWriter> repair = JournalWriter::Open(trial);
      ASSERT_TRUE(repair.ok()) << "cut=" << cut << ": " << repair.status();
    }
    Result<ResumePlan> plan = LoadResumePlan(trial);
    ASSERT_TRUE(plan.ok()) << "cut=" << cut << ": " << plan.status();
    ASSERT_TRUE(plan->duplicate_finishes.empty()) << "cut=" << cut;
    std::vector<std::uint64_t> rerun =
        ResumeRun(trial, *plan, resume_jobs, /*flush=*/false);
    // Whatever the cut dropped must be rerun: completed ∪ rerun = all.
    EXPECT_EQ(plan->completed.size() + rerun.size(), resume_jobs.size())
        << "cut=" << cut;
    ExpectExactlyOnce(trial, resume_jobs, "cut=" + std::to_string(cut));
    std::filesystem::remove(trial);
  }
}

/// First SIGTERM: the drain protocol of tools/twq.cc — monitor thread
/// converts the latched signal into cooperative cancellation, the batch
/// returns, the journal is flushed, and the process exits with
/// kExitInterrupted.  The journal then resumes exactly-once.
TEST_F(CrashRecoveryTest, SigtermDrainsFlushesAndExitsInterrupted) {
  const std::string journal_path = Path("journal");

  std::map<std::uint64_t, BatchJob> resume_jobs;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    resume_jobs.emplace(id, FastJob(id));
  }
  resume_jobs.emplace(4, BoundedCounterJob(4));

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    GracefulShutdown::Install();
    std::vector<BatchJob> jobs = {InfiniteJob(4), FastJob(1), FastJob(2),
                                  FastJob(3)};
    Result<BatchJournal> journal = BatchJournal::Open(journal_path);
    if (!journal.ok()) _exit(101);
    BatchEngine engine({.num_threads = 2});
    std::atomic<bool> batch_done{false};
    std::thread monitor([&]() {
      while (!batch_done.load(std::memory_order_relaxed)) {
        if (GracefulShutdown::requested()) {
          engine.RequestCancel();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    Result<BatchResult> run = engine.RunBatch(jobs, &*journal);
    batch_done.store(true, std::memory_order_relaxed);
    monitor.join();
    if (!run.ok()) _exit(103);
    if (!journal->Flush().ok()) _exit(104);
    if (!journal->first_error().ok()) _exit(105);
    _exit(GracefulShutdown::requested() ? GracefulShutdown::kExitInterrupted
                                        : 0);
  }

  ASSERT_TRUE(WaitForFinishes(journal_path, 3))
      << "child never journaled the fast finishes";
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(wstatus), GracefulShutdown::kExitInterrupted);

  // The drained journal: fast jobs completed; the infinite job is
  // either in flight (cancelled finish / bare start) or unrecorded.
  Result<ResumePlan> drained = LoadResumePlan(journal_path);
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_FALSE(drained->torn) << "graceful exit must not tear the journal";
  EXPECT_TRUE(drained->duplicate_finishes.empty());
  EXPECT_EQ(drained->completed.size(), 3u);
  EXPECT_EQ(drained->completed.count(4), 0u);

  ResumeRun(journal_path, *drained, resume_jobs);
  ExpectExactlyOnce(journal_path, resume_jobs, "post-drain resume");
}

/// A second signal must not wait for the drain: the handler _exits with
/// 128+signo immediately, even when the process never polls the latch.
TEST_F(CrashRecoveryTest, SecondSigtermAbortsImmediately) {
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    GracefulShutdown::Install();
    // A wedged drain: the latch is never polled, so only the
    // second-signal escape hatch can end this process.
    while (true) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 128 + SIGTERM);
}

#if defined(TREEWALK_TWQ_PATH)
/// `twq batch` installs its handlers before it reads its manifest, so a
/// first SIGTERM while the inputs load drains: exit 75, never death by
/// the signal's default action.  The loading stops at the next manifest
/// line, so no job runs and the `--journal` file is never created.  The
/// manifest is a FIFO, so the test knows when twq has opened it; the
/// test then writes the manifest and signals at once, while three
/// 10^5-node `.term` trees (tens of milliseconds each to parse and
/// delimit) are still to load.  No sleep decides where the signal
/// lands, so a slow start (a sanitizer build) cannot move it ahead of
/// the handlers, and the first tree is still loading when it arrives.
TEST_F(CrashRecoveryTest, SigtermWhileBatchLoadsItsInputsExits75) {
  const std::string program = Path("accept.twp");
  std::ofstream(program) << "class tw\nstates q0 qf\n"
                            "rule #top q0 [true] move stay qf\n";
  std::string manifest;
  for (unsigned seed = 1; seed <= 3; ++seed) {
    std::mt19937 rng(seed);
    RandomTreeOptions options;
    options.num_nodes = 100000;
    const std::string tree = Path("t" + std::to_string(seed) + ".term");
    std::ofstream(tree) << PrintTerm(RandomTree(rng, options)) << "\n";
    manifest += program + " " + tree + "\n";
  }
  const std::string manifest_path = Path("batch.manifest");
  ASSERT_EQ(::mkfifo(manifest_path.c_str(), 0600), 0);
  const std::string out_path = Path("batch.out");
  const std::string journal_path = Path("batch.journal");

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (out < 0) _exit(126);
    ::dup2(out, STDOUT_FILENO);
    ::execl(TREEWALK_TWQ_PATH, TREEWALK_TWQ_PATH, "batch",
            manifest_path.c_str(), "--quiet", "--journal",
            journal_path.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  // A non-blocking open of the write end fails with ENXIO until twq has
  // opened the manifest to read it.
  int fifo = -1;
  bool exited = false;
  for (int tries = 0; fifo < 0 && !exited && tries < 60000; ++tries) {
    fifo = ::open(manifest_path.c_str(), O_WRONLY | O_NONBLOCK);
    if (fifo < 0) {
      exited = ::waitpid(child, nullptr, WNOHANG) != 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (fifo < 0 && !exited) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
  ASSERT_GE(fifo, 0) << "twq never opened its manifest";
  const ssize_t written = ::write(fifo, manifest.data(), manifest.size());
  ::close(fifo);
  ASSERT_EQ(written, static_cast<ssize_t>(manifest.size()));
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus))
      << "killed by signal " << (WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : 0);
  EXPECT_EQ(WEXITSTATUS(wstatus), GracefulShutdown::kExitInterrupted);
  std::ifstream in(out_path);
  const std::string output((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(output, "interrupted by signal 15 while loading inputs; no job "
                    "ran\n");
  EXPECT_FALSE(std::filesystem::exists(journal_path));
}
#endif

/// In-process drain/resume (no fork): cancellation mid-batch journals
/// cancelled finishes, and the follow-up run completes everything
/// exactly once — the same invariant the fork tests check from outside.
TEST_F(CrashRecoveryTest, InProcessCancelThenResumeIsExactlyOnce) {
  const std::string journal_path = Path("journal");
  std::map<std::uint64_t, BatchJob> resume_jobs;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    resume_jobs.emplace(id, FastJob(id));
  }
  resume_jobs.emplace(7, BoundedCounterJob(7));

  {
    std::vector<BatchJob> jobs = {InfiniteJob(7)};
    for (std::uint64_t id = 1; id <= 6; ++id) jobs.push_back(FastJob(id));
    Result<BatchJournal> journal = BatchJournal::Open(journal_path);
    ASSERT_TRUE(journal.ok());
    BatchEngine engine({.num_threads = 2});
    std::thread canceller([&]() {
      WaitForFinishes(journal_path, 2);
      engine.RequestCancel();
    });
    Result<BatchResult> run = engine.RunBatch(jobs, &*journal);
    canceller.join();
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(journal->Flush().ok());
    ASSERT_TRUE(journal->first_error().ok());
    // The infinite job was cancelled mid-run.
    EXPECT_EQ(run->results[0].status.code(), StatusCode::kCancelled);
  }

  Result<ResumePlan> plan = LoadResumePlan(journal_path);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->duplicate_finishes.empty());
  EXPECT_LT(plan->completed.size(), resume_jobs.size());

  ResumeRun(journal_path, *plan, resume_jobs);
  ExpectExactlyOnce(journal_path, resume_jobs, "in-process resume");
}

}  // namespace
}  // namespace treewalk
