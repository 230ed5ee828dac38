#include "src/engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <functional>
#include <map>
#include <thread>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/governor.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/engine/batch_journal.h"
#include "src/tree/delimited.h"

namespace treewalk {

namespace {

/// Engine instrument family (docs/OBSERVABILITY.md).  The job/attempt
/// counters are incremented in real time on the worker threads by the
/// same predicates that later build EngineStats in job order, so a
/// snapshot over a fresh registry reconciles exactly with the batch's
/// EngineStats (asserted in tests/observability_test.cc).
struct EngineMetrics {
  Counter* jobs_accepted;
  Counter* jobs_rejected;
  Counter* jobs_failed;
  Counter* jobs_cancelled;
  Counter* attempts;
  Counter* retries;
  Counter* deadline_hits;
  Counter* memory_trips;
  Counter* degraded_successes;
  Counter* governor_polls;
  Counter* governor_clock_reads;
  Gauge* jobs_running;
  Gauge* workers;
  Gauge* memory_peak[kNumMemoryCategories];
  Histogram* job_latency_ms;
  Histogram* queue_wait_ms;

  static EngineMetrics& Get() {
    static EngineMetrics* metrics = [] {
      auto* m = new EngineMetrics;
      MetricsRegistry& r = MetricsRegistry::Global();
      const char* jobs_help = "Batch jobs finished, by outcome (failed "
                              "includes cancelled, as in EngineStats)";
      m->jobs_accepted = r.FindOrCreateCounter(
          "treewalk_engine_jobs_total", jobs_help, {{"status", "accepted"}});
      m->jobs_rejected = r.FindOrCreateCounter(
          "treewalk_engine_jobs_total", jobs_help, {{"status", "rejected"}});
      m->jobs_failed = r.FindOrCreateCounter(
          "treewalk_engine_jobs_total", jobs_help, {{"status", "failed"}});
      m->jobs_cancelled = r.FindOrCreateCounter(
          "treewalk_engine_jobs_total", jobs_help, {{"status", "cancelled"}});
      m->attempts = r.FindOrCreateCounter("treewalk_engine_attempts_total",
                                          "Job attempts started");
      m->retries = r.FindOrCreateCounter(
          "treewalk_engine_retries_total",
          "Attempts beyond each job's first (max_attempts re-runs)");
      m->deadline_hits = r.FindOrCreateCounter(
          "treewalk_engine_deadline_hits_total",
          "Attempts that failed with kDeadlineExceeded");
      m->memory_trips = r.FindOrCreateCounter(
          "treewalk_engine_memory_trips_total",
          "Attempts whose memory budget rejected a charge");
      m->degraded_successes = r.FindOrCreateCounter(
          "treewalk_engine_degraded_successes_total",
          "Jobs that succeeded on a degradation rung > 0");
      m->governor_polls = r.FindOrCreateCounter(
          "treewalk_governor_deadline_polls_total",
          "Strided deadline polls at transition boundaries");
      m->governor_clock_reads = r.FindOrCreateCounter(
          "treewalk_governor_deadline_clock_reads_total",
          "Deadline polls that actually read the steady clock");
      m->jobs_running = r.FindOrCreateGauge(
          "treewalk_engine_jobs_running",
          "Jobs currently executing on a worker (worker utilization)");
      m->workers = r.FindOrCreateGauge(
          "treewalk_engine_workers",
          "Worker threads of the most recent/current batch");
      for (int c = 0; c < kNumMemoryCategories; ++c) {
        m->memory_peak[c] = r.FindOrCreateGauge(
            "treewalk_governor_memory_peak_bytes",
            "High-water governor-tracked bytes per category (max over "
            "attempts)",
            {{"category", MemoryCategoryName(static_cast<MemoryCategory>(c))}});
      }
      m->job_latency_ms = r.FindOrCreateHistogram(
          "treewalk_engine_job_latency_ms",
          "Per-job wall time on a worker, retries included",
          LatencyBucketsMs());
      m->queue_wait_ms = r.FindOrCreateHistogram(
          "treewalk_engine_queue_wait_ms",
          "Time from batch start to a job's first attempt",
          LatencyBucketsMs());
      return m;
    }();
    return *metrics;
  }
};

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Collects the string constants of a formula in syntax order.
void CollectStrings(const Formula& f, std::vector<std::string>& out) {
  if (!f.valid()) return;
  const FormulaNode& n = f.node();
  for (const Term& t : n.terms) {
    if (t.kind == Term::Kind::kStrConst) out.push_back(t.text);
  }
  for (const Formula& c : n.children) CollectStrings(c, out);
}

/// Interns every string constant of `program`'s formulas into `tree`'s
/// value interner.  Evaluation would intern them lazily; doing it here,
/// serially and in job order, pins the handle assignment before workers
/// race, which keeps results independent of scheduling.
void PreInternConstants(const Program& program, const Tree& tree) {
  std::vector<std::string> strings;
  for (const Rule& rule : program.rules()) {
    CollectStrings(rule.guard, strings);
    CollectStrings(rule.action.update, strings);
    CollectStrings(rule.action.selector, strings);
  }
  for (const std::string& s : strings) tree.values().ValueFor(s);
}

Status ValidateJob(const BatchJob& job) {
  if (job.program == nullptr) return InvalidArgument("job has null program");
  if (job.tree == nullptr) return InvalidArgument("job has null tree");
  if (job.tree->empty()) return InvalidArgument("job has empty tree");
  if (job.max_attempts < 1) {
    return InvalidArgument("max_attempts must be >= 1, got " +
                           std::to_string(job.max_attempts));
  }
  return Status::Ok();
}

bool IsRetryable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

/// Applies degradation rung `rung` (see kLastRung) to `options`.
void ApplyRung(int rung, RunOptions& options) {
  if (rung >= 1) {
    options.detect_cycles = false;
    options.max_steps = std::min(options.max_steps, kDegradedMaxSteps);
  }
}

/// One attempt of `job` on degradation rung `rung`, against an
/// already-delimited tree.  Shared verbatim by the batch workers and by
/// RunResidentJob, so the daemon's per-request execution (governor
/// setup, failpoint site, metric flushes) cannot drift from the batch
/// path.  `span_id` only labels trace spans.
void RunAttemptOnce(const BatchJob& job, const Tree& delimited_tree,
                    const std::atomic<bool>& cancel, int rung,
                    std::uint64_t span_id, EngineMetrics& metrics,
                    JobResult::Attempt& attempt, RunResult& run) {
  ScopedSpan attempt_span("attempt", "\"job\":" + std::to_string(span_id) +
                                         ",\"rung\":" + std::to_string(rung));
  metrics.attempts->Increment();
  RunOptions options = job.options;
  options.cancel = &cancel;
  ApplyRung(rung, options);
  // The governor is per-attempt: a retry gets a fresh deadline and an
  // empty accountant (it is also single-threaded state, so it cannot
  // be shared across the batch).
  ResourceGovernor governor;
  if (job.deadline_ms > 0) {
    governor.set_deadline_after(std::chrono::milliseconds(job.deadline_ms));
  }
  if (job.memory_budget_bytes > 0) {
    governor.set_memory_budget(job.memory_budget_bytes);
  }
  options.governor = &governor;

  Status status;
  if (FailpointRegistry::armed()) {
    status = FailpointRegistry::Global().Check("engine/worker");
  }
  if (status.ok()) {
    Interpreter interpreter(*job.program, options);
    Result<RunResult> r = interpreter.RunDelimited(delimited_tree);
    if (r.ok()) {
      run = std::move(r).value();
    } else {
      status = r.status();
    }
  }
  attempt.rung = rung;
  attempt.status = status;
  attempt.memory_tripped =
      governor.accountant() != nullptr && governor.accountant()->tripped();
  // Per-attempt governor flush: the governor itself stays counter-free
  // (it sits on the per-transition hot path), the engine folds its
  // totals into the registry once the attempt is over.
  metrics.governor_polls->Increment(governor.deadline_polls());
  metrics.governor_clock_reads->Increment(governor.deadline_clock_reads());
  if (const MemoryAccountant* accountant = governor.accountant()) {
    for (int c = 0; c < kNumMemoryCategories; ++c) {
      metrics.memory_peak[c]->UpdateMax(
          accountant->peak(static_cast<MemoryCategory>(c)));
    }
  }
}

/// The attempts of one job: degradation rungs and cooperative
/// cancellation, a retryable failure re-running at once.
/// `record_started`, when non-null, is invoked before each attempt (the
/// batch journal's write-ahead record).  On exit
/// `out.status`/`out.attempts` are final; `out.run` is set only on
/// success.
void RunRetryLadder(const BatchJob& job, const Tree& delimited_tree,
                    const std::atomic<bool>& cancel, std::uint64_t span_id,
                    EngineMetrics& metrics,
                    const std::function<void(int, int)>& record_started,
                    JobResult& out) {
  for (int attempt_no = 0; attempt_no < job.max_attempts; ++attempt_no) {
    if (cancel.load(std::memory_order_relaxed)) {
      out.status = Cancelled("job " + std::to_string(span_id) +
                             " cancelled before it started");
      return;
    }
    const int rung = std::min(attempt_no, kLastRung);
    if (record_started) record_started(attempt_no, rung);
    if (attempt_no > 0) metrics.retries->Increment();
    JobResult::Attempt attempt;
    RunResult run;
    RunAttemptOnce(job, delimited_tree, cancel, rung, span_id, metrics,
                   attempt, run);
    if (attempt.status.code() == StatusCode::kDeadlineExceeded) {
      metrics.deadline_hits->Increment();
    }
    if (attempt.memory_tripped) metrics.memory_trips->Increment();
    out.attempts.push_back(attempt);
    out.status = attempt.status;
    if (attempt.status.ok()) {
      out.run = std::move(run);
      return;
    }
    if (!IsRetryable(attempt.status)) return;
  }
}

/// Mirrors the EngineStats aggregation predicates into the registry's
/// outcome counters, so a snapshot over a fresh registry reconciles
/// exactly with the batch's EngineStats (BatchResult contract).
void RecordJobOutcome(const JobResult& out, EngineMetrics& metrics) {
  if (!out.status.ok()) {
    metrics.jobs_failed->Increment();
    if (out.status.code() == StatusCode::kCancelled) {
      metrics.jobs_cancelled->Increment();
    }
  } else if (out.run.accepted) {
    metrics.jobs_accepted->Increment();
  } else {
    metrics.jobs_rejected->Increment();
  }
  if (out.status.ok() && !out.attempts.empty() &&
      out.attempts.back().rung > 0) {
    metrics.degraded_successes->Increment();
  }
}

}  // namespace

JobResult RunResidentJob(const BatchJob& job, const Tree& delimited_tree,
                         const std::atomic<bool>& cancel) {
  EngineMetrics& metrics = EngineMetrics::Get();
  JobResult out;
  if (job.program == nullptr) {
    out.status = InvalidArgument("job has null program");
    return out;
  }
  if (delimited_tree.empty()) {
    out.status = InvalidArgument("job has empty tree");
    return out;
  }
  if (job.max_attempts < 1) {
    out.status = InvalidArgument("max_attempts must be >= 1, got " +
                                 std::to_string(job.max_attempts));
    return out;
  }
  // Interning is internally synchronized (src/common/interner.h), so
  // unlike the batch prologue this need not run serially — concurrent
  // requests against one resident tree are safe; only handle values
  // depend on arrival order, never results.
  PreInternConstants(*job.program, delimited_tree);
  metrics.jobs_running->Add(1);
  const auto job_start = std::chrono::steady_clock::now();
  {
    ScopedSpan job_span("job", "\"job\":" + std::to_string(job.job_id));
    RunRetryLadder(job, delimited_tree, cancel, job.job_id, metrics, nullptr,
                   out);
  }
  RecordJobOutcome(out, metrics);
  metrics.job_latency_ms->Observe(MillisSince(job_start));
  metrics.jobs_running->Add(-1);
  return out;
}

BatchEngine::BatchEngine(EngineOptions options) : options_(options) {}

Result<BatchResult> BatchEngine::RunBatch(const std::vector<BatchJob>& jobs,
                                          BatchJournal* journal) {
  if (options_.num_threads < 1) {
    return InvalidArgument("num_threads must be >= 1, got " +
                           std::to_string(options_.num_threads));
  }
  cancel_.store(false, std::memory_order_relaxed);

  EngineMetrics& metrics = EngineMetrics::Get();
  Tracer& tracer = Tracer::Global();
  ScopedSpan batch_span("batch", "\"jobs\":" + std::to_string(jobs.size()));
  const auto batch_start = std::chrono::steady_clock::now();
  const std::uint64_t batch_start_us = tracer.NowMicros();

  BatchResult batch;
  batch.results.resize(jobs.size());

  // Serial prologue, in job order (determinism): validate, pre-intern
  // string constants, and delimit each distinct input once.
  std::vector<Status> prechecks(jobs.size());
  std::map<const Tree*, DelimitedTree> delimited;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    prechecks[i] = ValidateJob(jobs[i]);
    if (!prechecks[i].ok()) continue;
    PreInternConstants(*jobs[i].program, *jobs[i].tree);
    if (delimited.find(jobs[i].tree) == delimited.end()) {
      delimited.emplace(jobs[i].tree, Delimit(*jobs[i].tree));
    }
  }

  std::atomic<std::size_t> next{0};
  auto run_job_impl = [&](std::size_t i) {
    JobResult& out = batch.results[i];
    // Journal sink for this job (write-ahead: started before each
    // attempt, one terminal finished after the last).  Jobs without a
    // stable id are run but never recorded.
    const bool journaled = journal != nullptr && jobs[i].job_id != 0;
    auto journal_finished = [&]() {
      if (!journaled) return;
      ScopedSpan span("journal-append", "\"job\":" + std::to_string(i));
      int final_rung = out.attempts.empty() ? 0 : out.attempts.back().rung;
      journal->RecordFinished(jobs[i].job_id, out.status.code(),
                              out.status.ok() && out.run.accepted,
                              static_cast<int>(out.attempts.size()),
                              final_rung,
                              out.status.ok() ? out.run.stats.steps : 0);
    };
    if (!prechecks[i].ok()) {
      // A precheck failure is deterministic: journal it as terminal so
      // a resume does not re-submit a job that can never run.
      out.status = prechecks[i];
      journal_finished();
      return;
    }
    std::function<void(int, int)> record_started;
    if (journaled) {
      record_started = [&](int attempt_no, int rung) {
        ScopedSpan span("journal-append", "\"job\":" + std::to_string(i));
        journal->RecordStarted(jobs[i].job_id, attempt_no, rung);
      };
    }
    RunRetryLadder(jobs[i], delimited.at(jobs[i].tree).tree, cancel_,
                   static_cast<std::uint64_t>(i), metrics, record_started,
                   out);
    // Cancelled before the first attempt: leave no journal trace, so a
    // resume treats the job as simply not run yet.  Every other exit —
    // including cancellation between attempts — records the terminal
    // state (the resume plan reruns cancelled jobs either way).
    if (!out.attempts.empty() ||
        out.status.code() != StatusCode::kCancelled) {
      journal_finished();
    }
  };
  auto run_job = [&](std::size_t i) {
    metrics.jobs_running->Add(1);
    const auto job_start = std::chrono::steady_clock::now();
    metrics.queue_wait_ms->Observe(
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            job_start - batch_start)
            .count());
    if (tracer.enabled()) {
      tracer.RecordComplete("queue-wait", "\"job\":" + std::to_string(i),
                            batch_start_us,
                            tracer.NowMicros() - batch_start_us);
    }
    {
      ScopedSpan job_span("job", "\"job\":" + std::to_string(i));
      run_job_impl(i);
    }
    RecordJobOutcome(batch.results[i], metrics);
    metrics.job_latency_ms->Observe(MillisSince(job_start));
    metrics.jobs_running->Add(-1);
  };
  auto worker = [&]() {
    while (true) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      run_job(i);
    }
  };

  int num_threads = options_.num_threads;
  if (static_cast<std::size_t>(num_threads) > jobs.size()) {
    num_threads = static_cast<int>(jobs.size());
  }
  metrics.workers->Set(num_threads);
  if (num_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Aggregate in job order so the totals are scheduling-independent.
  for (const JobResult& r : batch.results) {
    ++batch.stats.jobs;
    for (const JobResult::Attempt& a : r.attempts) {
      if (a.status.code() == StatusCode::kDeadlineExceeded) {
        ++batch.stats.deadline_hits;
      }
      if (a.memory_tripped) ++batch.stats.memory_trips;
    }
    if (r.attempts.size() > 1) {
      batch.stats.retries +=
          static_cast<std::int64_t>(r.attempts.size()) - 1;
    }
    if (r.status.ok() && !r.attempts.empty() && r.attempts.back().rung > 0) {
      ++batch.stats.degraded_successes;
    }
    if (!r.status.ok()) {
      ++batch.stats.failed;
      if (r.status.code() == StatusCode::kCancelled) ++batch.stats.cancelled;
      continue;
    }
    if (r.run.accepted) {
      ++batch.stats.accepted;
    } else {
      ++batch.stats.rejected;
    }
    batch.stats.steps += r.run.stats.steps;
    batch.stats.subcomputations += r.run.stats.subcomputations;
    batch.stats.atp_calls += r.run.stats.atp_calls;
    batch.stats.selector_evals += r.run.stats.selector_cache_misses;
    batch.stats.compiled_selector_evals += r.run.stats.compiled_selector_evals;
    batch.stats.planner_picks_reference += r.run.stats.planner_picks_reference;
    batch.stats.planner_picks_interval += r.run.stats.planner_picks_interval;
    batch.stats.store_updates += r.run.stats.store_updates;
  }
  batch.metrics = MetricsRegistry::Global().Snapshot();
  return batch;
}

}  // namespace treewalk
