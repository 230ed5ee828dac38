#include "src/engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <thread>
#include <utility>

#include "src/common/failpoint.h"
#include "src/common/governor.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/engine/batch_journal.h"

namespace treewalk {

namespace {

/// Engine instrument family (docs/OBSERVABILITY.md).  The job outcome
/// and governance counters grow by each finished job's tally, the one
/// RunBatch sums into EngineStats, so a snapshot over a fresh registry
/// reconciles exactly with the batch's EngineStats (asserted in
/// tests/observability_test.cc).
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

/// Checks `job` as run on `tree`, the delim(t) it walks.
Status ValidateJob(const BatchJob& job, const Tree* tree) {
  if (job.program == nullptr) return InvalidArgument("job has null program");
  if (tree == nullptr) return InvalidArgument("job has null tree");
  if (tree->empty()) return InvalidArgument("job has empty tree");
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

/// One attempt of `job` on degradation rung `rung`, against delim(t).
/// `span_id` only labels trace spans.
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
/// cancellation, a retryable failure re-running at once.  With a
/// non-null `journal` each attempt is preceded by its write-ahead
/// kJobStarted record.  On exit `out.status`/`out.attempts` are final;
/// `out.run` is set only on success.
void RunRetryLadder(const BatchJob& job, const Tree& delimited_tree,
                    const std::atomic<bool>& cancel, std::uint64_t span_id,
                    BatchJournal* journal, EngineMetrics& metrics,
                    JobResult& out) {
  for (int attempt_no = 0; attempt_no < job.max_attempts; ++attempt_no) {
    if (cancel.load(std::memory_order_relaxed)) {
      out.status = Cancelled("job " + std::to_string(span_id) +
                             " cancelled before it started");
      return;
    }
    const int rung = std::min(attempt_no, kLastRung);
    if (journal != nullptr) {
      ScopedSpan span("journal-append", "\"job\":" + std::to_string(span_id));
      journal->RecordStarted(job.job_id, attempt_no, rung);
    }
    JobResult::Attempt attempt;
    RunResult run;
    RunAttemptOnce(job, delimited_tree, cancel, rung, span_id, metrics,
                   attempt, run);
    out.attempts.push_back(attempt);
    out.status = attempt.status;
    if (attempt.status.ok()) {
      out.run = std::move(run);
      return;
    }
    if (!IsRetryable(attempt.status)) return;
  }
}

/// Adds finished job `r` to `stats`: the one set of predicates behind
/// both EngineStats and the engine's outcome and governance counters.
void TallyJob(const JobResult& r, EngineStats& stats) {
  ++stats.jobs;
  for (const JobResult::Attempt& a : r.attempts) {
    if (a.status.code() == StatusCode::kDeadlineExceeded) {
      ++stats.deadline_hits;
    }
    if (a.memory_tripped) ++stats.memory_trips;
  }
  if (r.attempts.size() > 1) {
    stats.retries += static_cast<std::int64_t>(r.attempts.size()) - 1;
  }
  if (!r.status.ok()) {
    ++stats.failed;
    if (r.status.code() == StatusCode::kCancelled) ++stats.cancelled;
    return;
  }
  if (!r.attempts.empty() && r.attempts.back().rung > 0) {
    ++stats.degraded_successes;
  }
  if (r.run.accepted) {
    ++stats.accepted;
  } else {
    ++stats.rejected;
  }
  stats.steps += r.run.stats.steps;
  stats.subcomputations += r.run.stats.subcomputations;
  stats.atp_calls += r.run.stats.atp_calls;
  stats.selector_evals += r.run.stats.selector_cache_misses;
  stats.compiled_selector_evals += r.run.stats.compiled_selector_evals;
  stats.planner_picks_reference += r.run.stats.planner_picks_reference;
  stats.planner_picks_interval += r.run.stats.planner_picks_interval;
  stats.store_updates += r.run.stats.store_updates;
}

/// The per-job work of both front ends, on the calling thread: validate
/// `job` against `tree`, the delim(t) it walks, run its attempts inside
/// a `job` span, journal the outcome when `journal` is non-null, and
/// fold the job's tally into the engine counters.
void RunJob(const BatchJob& job, const Tree* tree,
            const std::atomic<bool>& cancel, std::uint64_t span_id,
            BatchJournal* journal, EngineMetrics& metrics, JobResult& out) {
  metrics.jobs_running->Add(1);
  const auto job_start = std::chrono::steady_clock::now();
  {
    ScopedSpan job_span("job", "\"job\":" + std::to_string(span_id));
    out.status = ValidateJob(job, tree);
    if (out.status.ok()) {
      RunRetryLadder(job, *tree, cancel, span_id, journal, metrics, out);
    }
    // A job cancelled before its first attempt leaves no record, so a
    // resume treats it as not run yet.  Every other exit records the
    // terminal state — a validation failure too: it is deterministic,
    // and a resume must not re-submit a job that can never run.
    if (journal != nullptr &&
        (!out.attempts.empty() ||
         out.status.code() != StatusCode::kCancelled)) {
      ScopedSpan span("journal-append", "\"job\":" + std::to_string(span_id));
      journal->RecordFinished(
          job.job_id, out.status.code(), out.status.ok() && out.run.accepted,
          static_cast<int>(out.attempts.size()),
          out.attempts.empty() ? 0 : out.attempts.back().rung,
          out.status.ok() ? out.run.stats.steps : 0);
    }
  }
  EngineStats tally;
  TallyJob(out, tally);
  metrics.jobs_accepted->Increment(tally.accepted);
  metrics.jobs_rejected->Increment(tally.rejected);
  metrics.jobs_failed->Increment(tally.failed);
  metrics.jobs_cancelled->Increment(tally.cancelled);
  metrics.retries->Increment(tally.retries);
  metrics.deadline_hits->Increment(tally.deadline_hits);
  metrics.memory_trips->Increment(tally.memory_trips);
  metrics.degraded_successes->Increment(tally.degraded_successes);
  metrics.job_latency_ms->Observe(MillisSince(job_start));
  metrics.jobs_running->Add(-1);
}

}  // namespace

JobResult RunResidentJob(const BatchJob& job, const Tree& delimited_tree,
                         const std::atomic<bool>& cancel) {
  JobResult out;
  RunJob(job, &delimited_tree, cancel, job.job_id, /*journal=*/nullptr,
         EngineMetrics::Get(), out);
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

  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    while (true) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      metrics.queue_wait_ms->Observe(MillisSince(batch_start));
      if (tracer.enabled()) {
        tracer.RecordComplete("queue-wait", "\"job\":" + std::to_string(i),
                              batch_start_us,
                              tracer.NowMicros() - batch_start_us);
      }
      // Jobs without a stable id are run but never journaled.
      RunJob(jobs[i], jobs[i].delimited, cancel_,
             static_cast<std::uint64_t>(i),
             jobs[i].job_id != 0 ? journal : nullptr, metrics,
             batch.results[i]);
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

  // Sum in job order so the totals are scheduling-independent.
  for (const JobResult& r : batch.results) TallyJob(r, batch.stats);
  batch.metrics = MetricsRegistry::Global().Snapshot();
  return batch;
}

}  // namespace treewalk
