// E11 batch: throughput of the src/engine thread pool on a fixed 64-job
// mixed workload at 1/2/4/8 threads, with a determinism cross-check
// against the serial run, plus the write-ahead journal's overhead.
//
// Scaling is only visible when the host actually has multiple cores;
// the jobs/s counter at each thread count is the figure of merit.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "src/automata/library.h"
#include "src/engine/batch_journal.h"
#include "src/engine/engine.h"
#include "src/tree/generate.h"

namespace {

using namespace treewalk;

struct Workload {
  std::vector<Program> programs;
  std::vector<Tree> trees;
  std::vector<BatchJob> jobs;
};

/// The same 64-job shape as tests/engine_test.cc, on larger trees so a
/// job is a meaningful unit of work.
const Workload& SharedWorkload() {
  static const Workload* workload = [] {
    auto* w = new Workload;
    w->programs.push_back(std::move(HasLabelProgram("a")).value());
    w->programs.push_back(std::move(HasLabelProgram("missing")).value());
    w->programs.push_back(std::move(ParityProgram("a")).value());
    w->programs.push_back(std::move(AllLeavesLabelProgram("a")).value());
    w->programs.push_back(std::move(RootValueAtSomeLeafProgram("a")).value());
    w->programs.push_back(std::move(Example32Program("a")).value());

    std::mt19937 rng(29);
    RandomTreeOptions options;
    options.labels = {"a", "b", "sigma", "delta"};
    options.value_range = 8;
    for (int n : {100, 200, 400, 800}) {
      options.num_nodes = n;
      w->trees.push_back(RandomTree(rng, options));
    }
    w->trees.push_back(Example32Tree(rng, 300, /*uniform=*/true));
    w->trees.push_back(Example32Tree(rng, 300, /*uniform=*/false));

    for (int i = 0; i < 64; ++i) {
      BatchJob job;
      job.program =
          &w->programs[static_cast<std::size_t>(i) % w->programs.size()];
      job.tree = &w->trees[static_cast<std::size_t>(i / 2) % w->trees.size()];
      job.options.max_steps = 100'000'000;
      w->jobs.push_back(job);
    }
    return w;
  }();
  return *workload;
}

bool SameVerdicts(const BatchResult& a, const BatchResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].run.accepted != b.results[i].run.accepted) return false;
    if (!(a.results[i].run.stats == b.results[i].run.stats)) return false;
  }
  return a.stats == b.stats;
}

/// 64 jobs at state.range(0) threads; verifies every timed run is
/// bit-identical to the serial reference.
void BM_Batch64Jobs(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  BatchResult reference =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(w.jobs)).value();
  int threads = static_cast<int>(state.range(0));
  BatchEngine engine({.num_threads = threads});
  for (auto _ : state) {
    auto batch = engine.RunBatch(w.jobs);
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      break;
    }
    if (!SameVerdicts(reference, *batch)) {
      state.SkipWithError("parallel result differs from serial reference");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.jobs.size()));
  state.counters["steps_per_batch"] =
      static_cast<double>(reference.stats.steps);
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() *
                          static_cast<std::int64_t>(w.jobs.size())),
      benchmark::Counter::kIsRate);
}

/// E16 journal overhead: the same 64-job workload with every job
/// journaled (2 records per job: one started, one finished), at
/// state.range(0) threads and state.range(1) as the fsync cadence
/// (0 = page-cache only — the crash-consistency default — 1 = fsync
/// per finish, the power-loss-durability setting).  Compare against
/// BM_Batch64Jobs at the same thread count for the overhead ratio.
void BM_Batch64JobsJournaled(benchmark::State& state) {
  const Workload& w = SharedWorkload();
  std::vector<BatchJob> jobs = w.jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].job_id = static_cast<std::uint64_t>(i) + 1;
  }
  int threads = static_cast<int>(state.range(0));
  int sync_every = static_cast<int>(state.range(1));
  const std::string path =
      (std::filesystem::temp_directory_path() / "bench_batch_journal")
          .string();
  BatchEngine engine({.num_threads = threads});
  // The journal is opened once and appended to across iterations —
  // the steady-state shape of a long batch run.  Creation (one-time
  // tmp+rename+fsync) and the final Flush stay outside the timed
  // region, like they sit outside the per-job path in tools/twq.cc.
  std::filesystem::remove(path);
  auto journal = BatchJournal::Open(path, sync_every);
  if (!journal.ok()) {
    state.SkipWithError(journal.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto batch = engine.RunBatch(jobs, &*journal);
    if (!batch.ok()) {
      state.SkipWithError(batch.status().ToString().c_str());
      break;
    }
  }
  if (!journal->Flush().ok() || !journal->first_error().ok()) {
    state.SkipWithError("journal I/O failed");
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() *
                          static_cast<std::int64_t>(jobs.size())),
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_Batch64Jobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Batch64JobsJournaled)
    ->Args({1, 0})->Args({4, 0})->Args({1, 1})->Args({4, 1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
