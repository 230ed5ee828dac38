#ifndef TREEWALK_ENGINE_ENGINE_H_
#define TREEWALK_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/program.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/tree/tree.h"

namespace treewalk {

class BatchJournal;

/// The degradation ladder a retried job walks.  Attempt k runs on rung
/// min(k, kLastRung):
///
///   rung 0  as submitted
///   rung 1  detect_cycles off, max_steps capped at kDegradedMaxSteps
///
/// No rung changes the selector evaluator: the reference evaluator is
/// orders of magnitude slower than seeded evaluation on the selectors
/// the compiler accepts, so a rung that forced it would turn a memory
/// trip into a deadline trip.  A success on rung 1 is still an exact
/// result except for the cycle policy: a looping run reports
/// kResourceExhausted (step cap) instead of rejecting with kCycle.  The
/// rung of every attempt is recorded in JobResult::attempts.
inline constexpr int kLastRung = 1;
/// Step cap of rung 1, replacing cycle detection as the termination
/// guarantee.
inline constexpr std::int64_t kDegradedMaxSteps = std::int64_t{1} << 20;

/// One (program, document) evaluation request.  `program` and
/// `delimited` are borrowed: they must outlive the RunBatch() call and
/// are accessed read-only, and many jobs may share them (see
/// docs/ENGINE.md for the full thread-safety contract).
/// `options.cancel` and `options.governor` are overwritten by the engine
/// (the batch-wide flag and a per-attempt governor built from
/// `deadline_ms` / `memory_budget_bytes`).
struct BatchJob {
  const Program* program = nullptr;
  /// delim(t) (Section 3), the tree the job walks: Delimit(t).tree, or
  /// mapped from a snapshot by LoadDelimitedSnapshot.  The engine runs
  /// it as given and never delimits.
  const Tree* delimited = nullptr;
  RunOptions options;
  /// Per-attempt wall-clock deadline in milliseconds; 0 = none.  A trip
  /// fails the attempt with kDeadlineExceeded.
  std::int64_t deadline_ms = 0;
  /// Memory budget in bytes for the run's tracked structures; 0 =
  /// unlimited.  A trip fails the attempt with kResourceExhausted.
  std::int64_t memory_budget_bytes = 0;
  /// Total attempts (1 = no retries).  A failed attempt whose status is
  /// retryable (kDeadlineExceeded, kResourceExhausted, kInternal) is
  /// re-run at once, one rung further down the ladder above.  There is
  /// no sleep between attempts: the interpreter is deterministic and
  /// every attempt gets a fresh deadline and memory budget, so waiting
  /// would free nothing and only lengthen the recovery.
  int max_attempts = 1;
  /// Stable key for write-ahead journaling (src/engine/manifest.h
  /// derives it from the job's file contents).  0 = unjournaled: the
  /// job is run but never recorded, even when RunBatch has a journal.
  std::uint64_t job_id = 0;
};

/// Outcome of one job.  `status` is non-OK when the run aborted (budget
/// exhausted, cancelled, precondition violated); `run` is meaningful
/// only when `status.ok()`.
struct JobResult {
  /// One entry per attempt, in order; the last entry's status equals
  /// `status`.  `rung` is the degradation-ladder rung the attempt ran
  /// at; `memory_tripped` records whether its memory budget rejected a
  /// charge.
  struct Attempt {
    int rung = 0;
    Status status;
    bool memory_tripped = false;
  };

  Status status;
  RunResult run;
  std::vector<Attempt> attempts;
};

/// Aggregate instrumentation over a batch, summed over jobs in job
/// order (deterministic regardless of thread count).  Counter
/// definitions are in docs/ENGINE.md.
struct EngineStats {
  std::int64_t jobs = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  /// Jobs with a non-OK status (includes cancelled).
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t steps = 0;
  std::int64_t subcomputations = 0;
  std::int64_t atp_calls = 0;
  /// Selector evaluations (RunStats::selector_cache_misses).
  std::int64_t selector_evals = 0;
  std::int64_t compiled_selector_evals = 0;
  /// Selector picks (one per distinct selector per run): interval when
  /// the compiler accepted the selector, reference when it declined.
  std::int64_t planner_picks_reference = 0;
  std::int64_t planner_picks_interval = 0;
  std::int64_t store_updates = 0;
  /// Attempts that failed with kDeadlineExceeded.
  std::int64_t deadline_hits = 0;
  /// Attempts whose memory budget rejected a charge.
  std::int64_t memory_trips = 0;
  /// Re-run attempts beyond each job's first (sum over jobs).
  std::int64_t retries = 0;
  /// Jobs that ultimately succeeded on a degradation rung > 0.
  std::int64_t degraded_successes = 0;

  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

struct BatchResult {
  /// Index-aligned with the submitted jobs.
  std::vector<JobResult> results;
  EngineStats stats;
  /// Process-global registry snapshot taken as the batch returns
  /// (docs/OBSERVABILITY.md).  The engine-family counters are
  /// incremented by the exact rules that build `stats`, so on a
  /// fresh registry the two reconcile exactly; unlike `stats`, the
  /// snapshot also counts the work of *failed* attempts and carries
  /// latency histograms.
  MetricsSnapshot metrics;
};

struct EngineOptions {
  /// Worker threads; 1 runs the batch inline on the calling thread.
  /// Results are identical for every value (see docs/ENGINE.md).
  int num_threads = 1;
};

/// Runs one job on `delimited_tree` (delim(t); `job.delimited` is
/// ignored) on the calling thread, through the job runner RunBatch's
/// workers use: the same validation, retry ladder, per-attempt
/// governor, `job` span and engine metrics, so the two front ends
/// cannot drift.  Nothing is journaled.  This is the resident daemon's
/// execution path (src/server): the tree was loaded once at corpus
/// load, so per-request cost is the run itself, and many requests may
/// execute concurrently against one tree.  `cancel` (the server's drain
/// flag) is checked before every attempt and polled cooperatively
/// during it.
JobResult RunResidentJob(const BatchJob& job, const Tree& delimited_tree,
                         const std::atomic<bool>& cancel);

/// Fixed-size thread-pool batch evaluator: N workers drain a shared work
/// queue of jobs, each running the deterministic interpreter on its own
/// per-job state.  Guarantees:
///
///   - Deterministic results: results[i] depends only on jobs[i], so the
///     result vector (verdicts, reject reasons, step counts, traces) is
///     byte-identical to serial execution regardless of num_threads.
///   - Shared inputs stay read-only: one Program or delim(t) may back
///     many jobs.  Runs intern their formulas' string constants into the
///     tree's ValueInterner (internally synchronized) as they meet them;
///     data values are only compared for equality, so the handles that
///     interleaving assigns never reach a result (docs/ENGINE.md).
///   - Cooperative cancellation: RequestCancel() makes running jobs
///     abort with kCancelled at the next transition and unstarted jobs
///     fail immediately; RunBatch still returns a fully populated,
///     index-aligned result vector.
class BatchEngine {
 public:
  explicit BatchEngine(EngineOptions options = {});

  /// Runs all jobs and blocks until every one finished (or was
  /// cancelled).  Errors on malformed jobs (null program or tree, empty
  /// tree) are reported per-job in JobResult::status, not as a batch
  /// error; the batch itself only fails on invalid EngineOptions.
  /// Clears any cancellation left over from a previous batch.
  ///
  /// With a non-null `journal`, every job whose `job_id` is non-zero
  /// streams a kJobStarted record per attempt and exactly one terminal
  /// kJobFinished record into it (src/engine/batch_journal.h) — except
  /// jobs cancelled before their first attempt, which stay unrecorded
  /// so a resume reruns them.  Journal I/O failures never fail jobs;
  /// check journal->first_error() after the batch.
  Result<BatchResult> RunBatch(const std::vector<BatchJob>& jobs,
                               BatchJournal* journal = nullptr);

  /// Requests cooperative cancellation of the in-flight batch.  Safe to
  /// call from any thread, including concurrently with RunBatch.
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

 private:
  EngineOptions options_;
  std::atomic<bool> cancel_{false};
};

}  // namespace treewalk

#endif  // TREEWALK_ENGINE_ENGINE_H_
