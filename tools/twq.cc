// twq — command-line front end for the treewalk library.
//
//   twq run <program.twp> <tree.{term,xml}> [--trace] [--graph]
//       [--compile-cache <dir>]
//       Run a tree-walking program (textual .twp format) on a tree.
//       Unknown options are a usage error (exit 1).
//   twq xpath <query> <tree.{term,xml}>
//       Evaluate an XPath query from the root; also show the FO(exists*)
//       compilation.
//   twq check <program.twp>
//       Parse and validate a program; print its canonical form.
//   twq explain <tree> (--selector <phi> | --xpath <path> | --program <p.twp>)
//       [--origin N] [--evals]
//       Show how each selector is answered (docs/PLANNER.md): tree
//       statistics, formula features, the evaluator a run uses —
//       compiled-interval (seeded), or reference when the compiler
//       declines — and per-operator cardinality estimates.  An --xpath
//       path is explained as its FO(exists*) compilation.  --evals
//       answers from --origin (default: the root) as a run does and
//       prints measured vs estimated rows.  The output is byte-stable
//       for golden tests.
//   twq cat <expression> <tree.{term,xml}>
//       Evaluate a caterpillar expression from the root.
//   twq batch <manifest> [--jobs N] [--max-steps M] [--quiet]
//       [--deadline-ms D] [--memory-budget-mb B] [--retries R]
//       [--journal <path> [--resume] [--journal-sync N]]
//       Run a batch of (program, tree) jobs on a thread pool
//       (src/engine).  Each manifest line is `<program.twp> <tree>`;
//       blank lines and lines starting with '#' are skipped.  Files
//       named by several jobs are loaded once and shared read-only.
//       A file that fails to load fails only the jobs naming it.
//       --deadline-ms / --memory-budget-mb bound each job's wall clock
//       and memory (kDeadlineExceeded / kResourceExhausted on trip);
//       --retries re-runs retryable failures at once, down the
//       degradation ladder (docs/ROBUSTNESS.md).  Exits nonzero if any
//       job failed and prints a per-status-code failure summary.
//
//       --journal streams a crash-consistent write-ahead journal of
//       per-job progress; --resume diffs it against the manifest and
//       skips jobs already journaled complete.  SIGINT/SIGTERM drain
//       the batch cooperatively, flush the journal, and exit 75
//       (resumable); a second signal aborts immediately.  See
//       docs/ROBUSTNESS.md, "Durability & recovery".
//   twq journal <journal-file>
//       Dump a batch journal's records and summary; exits nonzero when
//       any job has more than one terminal JobFinished record (an
//       exactly-once violation).
//   twq serve <corpus-dir> [--port P] [--host H] [--workers N]
//       [--max-queue Q] [--max-connections C] [--memory-budget-mb B]
//       [--request-budget-mb RB] [--deadline-ms D] [--max-deadline-ms MD]
//       [--drain-ms MS] [--io-timeout-ms T] [--cache-budget-mb CB]
//       [--quiet]
//       Long-lived query daemon (docs/SERVER.md): preloads the trees
//       in <corpus-dir> (.term/.xml/.twsnap, keyed by file name) in name
//       order, skipping any that would pass --cache-budget-mb, then
//       serves concurrent queries over a length-prefixed binary TCP
//       protocol with admission control and load shedding.  Prints
//       `listening on <host>:<port>` once ready (--port 0 binds an
//       ephemeral port).  First SIGINT/SIGTERM drains gracefully —
//       stop accepting, finish in-flight within --drain-ms, exit 75; a
//       second signal aborts.  SIGHUP triggers a live corpus reload:
//       the daemon builds the next generation from the (possibly
//       changed) corpus directory and swaps it in
//       atomically; in-flight queries finish on the generation they
//       started on.  --max-consecutive-failures N quarantines a
//       formula x tree pair after N consecutive governor trips
//       (kQuarantined on the wire; docs/SERVER.md).
//   twq query <tree-name> <program.twp> --remote HOST:PORT [--retries R]
//       [--total-deadline-ms D] [--deadline-ms D] [--io-timeout-ms T]
//       [--breaker-threshold N] [--breaker-cooldown-ms MS] [--quiet]
//       Run one query against a resident daemon through the resilient
//       client library (src/client): jittered retries, end-to-end
//       deadline propagation, circuit breaker.  Unknown options are a
//       usage error (exit 1).
//   twq probe <health|ready|stats> --remote HOST:PORT [--hold-ms N]
//       [--timeout-ms T]
//       Probe a daemon.  `health` is liveness (exit 0 while the process
//       serves its protocol, even during drain); `ready` is readiness
//       (exit 0 accepting + corpus loaded, exit 2 alive-but-not-ready);
//       `stats` dumps the counter map.  --hold-ms connects immediately
//       and sleeps before probing, to test liveness during drain (new
//       connections are refused then, held ones still answer).
//   twq snapshot build <tree.{term,xml}> [-o <out.twsnap>]
//       Parse a tree once and write a mmap-able zero-parse snapshot
//       (docs/SNAPSHOT.md); any command accepting a tree also accepts
//       the .twsnap file.
//   twq snapshot inspect <file.twsnap>
//       Validate a snapshot (CRCs and all) and print its header and
//       section table.
//
// Zero-parse startup (docs/SNAPSHOT.md): pass a .twsnap from
// `twq snapshot build` wherever a tree is expected.  run and batch
// accept `--compile-cache <dir>` for compatibility and ignore it (<dir>
// is not created): compiled selectors are evaluated seeded from each
// origin and materialize no relation to persist.
//
// Global options (any subcommand, docs/OBSERVABILITY.md):
//   --metrics-out <file>   Write a metrics snapshot at exit: Prometheus
//                          text exposition v0.0.4, or JSON when <file>
//                          ends in .json.
//   --trace-out <file>     Record spans for the whole invocation and
//                          write Chrome trace-event JSON at exit (load
//                          in chrome://tracing or ui.perfetto.dev).
//
// `twq batch` additionally prints a progress line to stderr every 500ms
// (jobs done/failed/running, p95 job latency) unless --quiet is given.
//
// Trees are read as the compact term syntax (a[x=1](b, c)) unless the
// file ends in .xml (XML) or .twsnap (snapshot).

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/text_format.h"
#include "src/caterpillar/caterpillar.h"
#include "src/client/client.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/engine/batch_journal.h"
#include "src/engine/engine.h"
#include "src/engine/input_cache.h"
#include "src/engine/manifest.h"
#include "src/engine/shutdown.h"
#include "src/logic/parser.h"
#include "src/logic/planned_selector.h"
#include "src/logic/planner.h"
#include "src/server/server.h"
#include "src/tree/axis_index.h"
#include "src/tree/tree_stats.h"
#include "src/simulation/config_graph.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"
#include "src/tree/xml_io.h"
#include "src/xpath/xpath.h"

namespace tw = treewalk;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "twq: %s\n", message.c_str());
  return 1;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

tw::Result<tw::Tree> LoadTree(const std::string& path) {
  if (HasSuffix(path, ".twsnap")) return tw::LoadTreeSnapshot(path);
  std::string text;
  if (!ReadFile(path, text)) {
    return tw::NotFound("cannot read tree file '" + path + "'");
  }
  if (HasSuffix(path, ".xml")) return tw::ParseXml(text);
  return tw::ParseTerm(text);
}

int CmdRun(int argc, char** argv) {
  const std::string usage =
      "usage: twq run <program.twp> <tree> [--trace] [--graph] "
      "[--compile-cache <dir>]";
  if (argc < 2) return Fail(usage);
  std::string program_text;
  if (!ReadFile(argv[0], program_text)) {
    return Fail(std::string("cannot read program '") + argv[0] + "'");
  }
  auto program = tw::ParseProgramText(program_text);
  if (!program.ok()) return Fail("program: " + program.status().ToString());

  bool trace = false, graph = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--graph") == 0) {
      graph = true;
    } else if (std::strcmp(argv[i], "--compile-cache") == 0 && i + 1 < argc) {
      ++i;  // accepted and ignored
    } else {
      return Fail(std::string("unknown run option '") + argv[i] + "'\n" +
                  usage);
    }
  }
  auto tree = LoadTree(argv[1]);
  if (!tree.ok()) return Fail("tree: " + tree.status().ToString());

  if (graph) {
    auto r = tw::EvaluateViaConfigGraph(*program, *tree);
    if (!r.ok()) return Fail("run: " + r.status().ToString());
    std::printf("%s (%zu configurations, %zu memoized calls)\n",
                r->accepted ? "ACCEPT" : "REJECT", r->configs,
                r->memoized_calls);
    return r->accepted ? 0 : 2;
  }

  tw::RunOptions options;
  options.record_trace = trace;
  tw::Interpreter interpreter(*program, options);
  auto r = interpreter.Run(*tree);
  if (!r.ok()) return Fail("run: " + r.status().ToString());
  std::printf("%s (%lld steps, %lld subcomputations%s%s)\n",
              r->accepted ? "ACCEPT" : "REJECT",
              static_cast<long long>(r->stats.steps),
              static_cast<long long>(r->stats.subcomputations),
              r->accepted ? "" : ", reason: ",
              r->accepted ? "" : tw::RejectReasonName(r->reason));
  if (trace) {
    for (const std::string& line : r->trace) std::printf("  %s\n", line.c_str());
  }
  return r->accepted ? 0 : 2;
}

int CmdXPath(int argc, char** argv) {
  if (argc != 2) return Fail("usage: twq xpath <query> <tree>");
  auto xpath = tw::ParseXPath(argv[0]);
  if (!xpath.ok()) return Fail("query: " + xpath.status().ToString());
  auto tree = LoadTree(argv[1]);
  if (!tree.ok()) return Fail("tree: " + tree.status().ToString());
  auto hits = tw::EvalXPath(*tree, *xpath, tree->root());
  if (!hits.ok()) return Fail("eval: " + hits.status().ToString());
  auto formula = tw::CompileXPathToFo(*xpath);
  std::printf("%zu node(s):", hits->size());
  for (tw::NodeId u : *hits) {
    std::printf(" %lld:%s", static_cast<long long>(u),
                tree->LabelName(tree->label(u)).c_str());
  }
  std::printf("\nFO(exists*): %s\n",
              formula.ok() ? formula->ToString().c_str() : "<error>");
  return 0;
}

int CmdCheck(int argc, char** argv) {
  if (argc != 1) return Fail("usage: twq check <program.twp>");
  std::string text;
  if (!ReadFile(argv[0], text)) {
    return Fail(std::string("cannot read '") + argv[0] + "'");
  }
  auto program = tw::ParseProgramText(text);
  if (!program.ok()) return Fail(program.status().ToString());
  std::printf("valid %s program, %zu rules, %zu registers, size measure "
              "%zu\n--\n%s",
              tw::ProgramClassName(program->program_class()),
              program->rules().size(),
              program->initial_store().num_relations(),
              program->SizeMeasure(),
              tw::ProgramToText(*program).c_str());
  return 0;
}

/// `twq explain`: render how each selector is answered against a tree
/// (docs/PLANNER.md).  All output is a pure function of the inputs, so
/// a golden-file test can hold the format (tests/explain_test.cc).
int CmdExplain(int argc, char** argv) {
  const char* usage =
      "usage: twq explain <tree> (--selector <phi> | --xpath <path> | "
      "--program <p.twp>) [--origin N] [--evals]";
  if (argc < 1) return Fail(usage);
  std::string selector_text, xpath_text, program_path;
  long long origin_arg = -1;
  bool evals = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selector") == 0 && i + 1 < argc) {
      selector_text = argv[++i];
    } else if (std::strcmp(argv[i], "--xpath") == 0 && i + 1 < argc) {
      xpath_text = argv[++i];
    } else if (std::strcmp(argv[i], "--program") == 0 && i + 1 < argc) {
      program_path = argv[++i];
    } else if (std::strcmp(argv[i], "--origin") == 0 && i + 1 < argc) {
      // A node id in decimal digits; a sign or any other character is a
      // usage error.
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      origin_arg = std::strtoll(text, &end, 10);
      if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
          *end != '\0' || errno != 0) {
        return Fail(usage);
      }
    } else if (std::strcmp(argv[i], "--evals") == 0) {
      evals = true;
    } else {
      return Fail(std::string("unknown explain option '") + argv[i] + "'");
    }
  }
  const int sources = (selector_text.empty() ? 0 : 1) +
                      (xpath_text.empty() ? 0 : 1) +
                      (program_path.empty() ? 0 : 1);
  if (sources != 1) return Fail(usage);

  auto tree = LoadTree(argv[0]);
  if (!tree.ok()) return Fail("tree: " + tree.status().ToString());

  struct Item {
    std::string title;
    tw::Formula formula;
  };
  std::vector<Item> items;
  if (!selector_text.empty()) {
    auto parsed = tw::ParseFormula(selector_text);
    if (!parsed.ok()) return Fail("selector: " + parsed.status().ToString());
    tw::Status valid = tw::ValidateTreeFormula(*parsed);
    if (!valid.ok()) return Fail("selector: " + valid.ToString());
    items.push_back(Item{parsed->ToString(), *parsed});
  } else if (!xpath_text.empty()) {
    auto parsed = tw::ParseXPath(xpath_text);
    if (!parsed.ok()) return Fail("xpath: " + parsed.status().ToString());
    auto formula = tw::CompileXPathToFo(*parsed);
    if (!formula.ok()) {
      return Fail("xpath does not compile to FO(exists*): " +
                  formula.status().ToString());
    }
    items.push_back(Item{xpath_text, *formula});
  } else {
    std::string text;
    if (!ReadFile(program_path, text)) {
      return Fail("cannot read program '" + program_path + "'");
    }
    auto program = tw::ParseProgramText(text);
    if (!program.ok()) return Fail("program: " + program.status().ToString());
    std::map<std::string, bool> seen;  // canonical text -> reported
    for (const tw::Rule& rule : program->rules()) {
      if (rule.action.kind != tw::Action::Kind::kLookAhead) continue;
      const std::string key = rule.action.selector.ToString();
      if (!seen.emplace(key, true).second) continue;
      items.push_back(Item{key, rule.action.selector});
    }
    if (items.empty()) {
      std::printf("program has no atp() selectors; nothing to plan\n");
      return 0;
    }
  }

  tw::TreeStats scratch;
  const tw::TreeStats* stats = tw::GetOrComputeTreeStats(*tree, scratch);
  std::printf(
      "tree: %lld node(s), max depth %lld, %lld leaves, max fanout %lld "
      "(stats %s)\n",
      static_cast<long long>(stats->nodes),
      static_cast<long long>(stats->max_depth),
      static_cast<long long>(stats->leaves),
      static_cast<long long>(stats->max_fanout),
      tree->snapshot_stats() != nullptr ? "preloaded from snapshot"
                                        : "computed");

  tw::NodeId origin = origin_arg >= 0 ? static_cast<tw::NodeId>(origin_arg)
                                      : tree->root();
  if (evals && !tree->Valid(origin)) {
    return Fail("--origin " + std::to_string(origin_arg) +
                " is not a node of the tree");
  }

  std::optional<tw::AxisIndex> index;  // shared by the items, as in a run
  for (const Item& item : items) {
    std::printf("selector: %s\n", item.title.c_str());
    const tw::SelectorPlan plan = tw::PlanSelector(*stats, item.formula);
    const tw::FormulaFeatures& f = plan.features;
    std::printf(
        "  features: size=%d atoms=%d quantifiers=%d width=%d "
        "negation-depth=%d\n",
        f.size, f.atoms, f.quantifiers, f.width, f.negation_depth);
    auto planned =
        tw::PlannedSelector::Prepare(*tree, item.formula, index, nullptr);
    if (!planned.ok()) return Fail("prepare: " + planned.status().ToString());
    const std::string strategy =
        planned->compiled()
            ? "compiled-interval (seeded)"
            : "reference (compiler declined: " +
                  planned->decline().message() + ")";
    std::printf("  plan: %s\n", strategy.c_str());
    std::printf("  operators:\n");
    for (const tw::OperatorEstimate& op : plan.operators) {
      std::printf("    %*s%-*s rows=%-12.4g sel=%.4g%s\n", op.depth * 2, "",
                  std::max(1, 24 - op.depth * 2), op.op.c_str(), op.rows,
                  op.selectivity, op.exact ? " exact" : "");
    }
    if (evals) {
      auto result = planned->SelectFrom(origin);
      if (!result.ok()) return Fail("evals: " + result.status().ToString());
      std::printf(
          "  evals: strategy=%s origin=%lld result=%zu node(s) "
          "estimated-per-origin=%.4g\n",
          planned->compiled() ? "compiled-interval (seeded)" : "reference",
          static_cast<long long>(origin), result->size(),
          plan.estimated_rows / std::max<double>(1.0, stats->nodes));
    }
  }
  return 0;
}

int CmdBatch(int argc, char** argv) {
  const std::string usage =
      "usage: twq batch <manifest> [--jobs N] [--max-steps M] [--quiet] "
      "[--deadline-ms D] [--memory-budget-mb B] [--retries R] "
      "[--compile-cache <dir>] "
      "[--journal <path> [--resume] [--journal-sync N]]";
  if (argc < 1) return Fail(usage);
  int num_threads = 1;
  long long max_steps = 0;  // 0 = interpreter default
  bool quiet = false;
  long long deadline_ms = 0;        // 0 = no deadline
  long long memory_budget_mb = 0;   // 0 = unlimited
  int retries = 0;                  // extra attempts beyond the first
  std::string journal_path;         // empty = no journal
  bool resume = false;
  // fsync cadence: 0 (default) syncs only at exit — journal records
  // survive any crash of this process via the page cache, and a
  // per-finish fsync costs ~60% wall clock on short jobs (E16).  N > 0
  // adds a power-loss barrier after every Nth finished job.
  int journal_sync = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      num_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-steps") == 0 && i + 1 < argc) {
      max_steps = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--memory-budget-mb") == 0 &&
               i + 1 < argc) {
      memory_budget_mb = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      retries = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--journal-sync") == 0 && i + 1 < argc) {
      journal_sync = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--compile-cache") == 0 && i + 1 < argc) {
      ++i;  // accepted and ignored
    } else {
      return Fail(std::string("unknown batch option '") + argv[i] + "'\n" +
                  usage);
    }
  }
  if (resume && journal_path.empty()) {
    return Fail("--resume requires --journal <path>");
  }

  // The manifest loader derives a stable content-hash job id per line
  // (journal key) and rejects duplicate (program, tree) pairs.
  auto manifest = tw::LoadManifestFile(argv[0]);
  if (!manifest.ok()) return Fail(manifest.status().ToString());

  // Resume plan: jobs the journal already records as complete are
  // skipped before the engine ever sees them.  An existing journal
  // without --resume is refused rather than silently extended —
  // mixing two unrelated runs in one journal is almost always a
  // mistake.
  tw::ResumePlan plan;
  if (!journal_path.empty()) {
    auto existing = tw::LoadResumePlan(journal_path);
    if (existing.ok()) {
      if (!resume) {
        return Fail("journal '" + journal_path +
                    "' already exists; pass --resume to continue it (or "
                    "remove it to start over)");
      }
      plan = std::move(existing).value();
      if (!plan.duplicate_finishes.empty()) {
        return Fail("journal '" + journal_path +
                    "' records duplicate JobFinished entries; refusing to "
                    "resume from a corrupt journal");
      }
    } else if (existing.status().code() != tw::StatusCode::kNotFound) {
      return Fail("journal: " + existing.status().ToString());
    }
  }

  // Load each distinct program/tree file once; jobs share them
  // read-only (the engine's thread-safety contract allows this).  A file
  // that fails to load or parse fails the jobs naming it — not the whole
  // manifest — so one malformed input cannot sink its batch siblings.
  std::map<std::string, std::shared_ptr<const tw::Program>> programs;
  std::map<std::string, std::shared_ptr<const tw::Tree>> trees;
  std::map<std::string, tw::Status> load_errors;  // path -> first error
  std::vector<tw::BatchJob> jobs;                 // engine-submitted subset
  struct Entry {
    std::string program_path;
    std::string tree_path;
    tw::Status load_status;     // non-OK: never reached the engine
    std::size_t job_index = 0;  // valid when load_status.ok() && !skipped
    bool skipped = false;       // journaled complete in a previous run
  };
  std::vector<Entry> entries;

  auto load_program = [&](const std::string& path) -> tw::Status {
    if (programs.count(path) > 0) return tw::Status::Ok();
    auto it = load_errors.find(path);
    if (it != load_errors.end()) return it->second;
    std::string text;
    tw::Status status;
    if (!ReadFile(path, text)) {
      status = tw::NotFound("cannot read program '" + path + "'");
    } else {
      auto parsed = tw::ParseProgramText(text);
      if (parsed.ok()) {
        programs[path] =
            std::make_shared<const tw::Program>(std::move(parsed).value());
      } else {
        status = tw::Status(parsed.status().code(),
                            path + ": " + parsed.status().message());
      }
    }
    if (!status.ok()) load_errors[path] = status;
    return status;
  };
  auto load_tree = [&](const std::string& path) -> tw::Status {
    if (trees.count(path) > 0) return tw::Status::Ok();
    auto it = load_errors.find(path);
    if (it != load_errors.end()) return it->second;
    auto parsed = LoadTree(path);
    tw::Status status;
    if (parsed.ok()) {
      trees[path] =
          std::make_shared<const tw::Tree>(std::move(parsed).value());
    } else {
      status = tw::Status(parsed.status().code(),
                          path + ": " + parsed.status().message());
      load_errors[path] = status;
    }
    return status;
  };

  std::size_t skipped = 0;
  for (const tw::ManifestEntry& m : manifest->entries) {
    Entry entry;
    entry.program_path = m.program_path;
    entry.tree_path = m.tree_path;
    if (plan.completed.count(m.job_id) > 0) {
      entry.skipped = true;
      ++skipped;
      entries.push_back(std::move(entry));
      continue;
    }
    entry.load_status = load_program(m.program_path);
    if (entry.load_status.ok()) entry.load_status = load_tree(m.tree_path);
    if (entry.load_status.ok()) {
      tw::BatchJob job;
      job.program = programs[m.program_path].get();
      job.tree = trees[m.tree_path].get();
      if (max_steps > 0) job.options.max_steps = max_steps;
      job.deadline_ms = deadline_ms;
      job.memory_budget_bytes = memory_budget_mb * 1024 * 1024;
      job.max_attempts = 1 + std::max(0, retries);
      job.job_id = m.job_id;
      entry.job_index = jobs.size();
      jobs.push_back(job);
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) return Fail("manifest names no jobs");

  std::unique_ptr<tw::BatchJournal> journal;
  if (!journal_path.empty()) {
    auto opened = tw::BatchJournal::Open(journal_path, journal_sync);
    if (!opened.ok()) return Fail("journal: " + opened.status().ToString());
    journal = std::make_unique<tw::BatchJournal>(std::move(opened).value());
  }

  // Graceful shutdown: the handler only latches an atomic; this monitor
  // thread polls it and converts the first signal into cooperative
  // batch cancellation (running jobs stop at their next transition,
  // queued jobs fail fast with kCancelled).  A second signal _exits
  // immediately from the handler itself.
  tw::GracefulShutdown::Install();
  tw::BatchResult batch;
  if (!jobs.empty()) {
    tw::BatchEngine engine({.num_threads = num_threads});
    std::atomic<bool> batch_done{false};
    std::thread monitor([&]() {
      while (!batch_done.load(std::memory_order_relaxed)) {
        if (tw::GracefulShutdown::requested()) {
          engine.RequestCancel();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
    // Progress reporter: snapshots the metrics registry every 500ms and
    // prints one stderr line — immediately on start (so even an instant
    // batch reports once) and once more after the batch drains.
    std::thread progress;
    if (!quiet) {
      std::size_t total = jobs.size();
      progress = std::thread([&, total]() {
        while (true) {
          tw::MetricsSnapshot snap = tw::MetricsRegistry::Global().Snapshot();
          std::int64_t failed =
              snap.Value("treewalk_engine_jobs_total", "failed");
          std::int64_t done =
              snap.Value("treewalk_engine_jobs_total", "accepted") +
              snap.Value("treewalk_engine_jobs_total", "rejected") + failed;
          std::int64_t running = snap.Value("treewalk_engine_jobs_running");
          double p95 = 0;
          if (const tw::MetricSample* s =
                  snap.Find("treewalk_engine_job_latency_ms")) {
            p95 = s->histogram.p95();
          }
          std::fprintf(stderr,
                       "progress: %lld/%zu jobs done, %lld failed, "
                       "%lld running, p95=%.2fms\n",
                       static_cast<long long>(done), total,
                       static_cast<long long>(failed),
                       static_cast<long long>(running), p95);
          if (batch_done.load(std::memory_order_relaxed)) return;
          for (int t = 0; t < 10; ++t) {
            if (batch_done.load(std::memory_order_relaxed)) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }
      });
    }
    auto run = engine.RunBatch(jobs, journal.get());
    batch_done.store(true, std::memory_order_relaxed);
    monitor.join();
    if (progress.joinable()) progress.join();
    if (!run.ok()) return Fail("batch: " + run.status().ToString());
    batch = std::move(run).value();
  }

  // Flush before reporting: a journaled batch's completed work must be
  // on disk before the process can claim it happened.
  if (journal != nullptr) {
    tw::Status flushed = journal->Flush();
    if (!flushed.ok()) {
      return Fail("journal flush: " + flushed.ToString());
    }
  }

  int failures = 0;
  std::map<tw::StatusCode, int> failures_by_code;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (e.skipped) {
      if (!quiet) {
        std::printf("[%zu] SKIP %s %s (journaled complete)\n", i,
                    e.program_path.c_str(), e.tree_path.c_str());
      }
      continue;
    }
    const tw::Status& status = e.load_status.ok()
                                   ? batch.results[e.job_index].status
                                   : e.load_status;
    if (!status.ok()) {
      ++failures;
      ++failures_by_code[status.code()];
      if (!quiet) {
        std::printf("[%zu] ERROR %s %s: %s\n", i, e.program_path.c_str(),
                    e.tree_path.c_str(), status.ToString().c_str());
      }
      continue;
    }
    const tw::JobResult& r = batch.results[e.job_index];
    if (!quiet) {
      std::printf("[%zu] %s %s %s steps=%lld atp=%lld%s\n", i,
                  r.run.accepted ? "ACCEPT" : "REJECT",
                  e.program_path.c_str(), e.tree_path.c_str(),
                  static_cast<long long>(r.run.stats.steps),
                  static_cast<long long>(r.run.stats.atp_calls),
                  r.attempts.size() > 1 && r.attempts.back().rung > 0
                      ? " (degraded)"
                      : "");
    }
  }
  const tw::EngineStats& s = batch.stats;
  std::printf("%zu jobs on %d thread(s): %lld accepted, %lld rejected, "
              "%d failed%s\n",
              entries.size(), num_threads,
              static_cast<long long>(s.accepted),
              static_cast<long long>(s.rejected), failures,
              skipped > 0
                  ? (", " + std::to_string(skipped) + " skipped (journaled)")
                        .c_str()
                  : "");
  std::printf("steps=%lld atp_calls=%lld selector_evals=%lld "
              "compiled_evals=%lld store_updates=%lld\n",
              static_cast<long long>(s.steps),
              static_cast<long long>(s.atp_calls),
              static_cast<long long>(s.selector_evals),
              static_cast<long long>(s.compiled_selector_evals),
              static_cast<long long>(s.store_updates));
  if (s.planner_picks_reference + s.planner_picks_interval > 0) {
    // One pick per distinct selector per job: interval if the compiler
    // accepted it (answered seeded), reference if it declined.
    std::printf("planner_picks: reference=%lld interval=%lld\n",
                static_cast<long long>(s.planner_picks_reference),
                static_cast<long long>(s.planner_picks_interval));
  }
  if (s.deadline_hits + s.memory_trips + s.retries + s.degraded_successes >
      0) {
    std::printf("deadline_hits=%lld memory_trips=%lld retries=%lld "
                "degraded_successes=%lld\n",
                static_cast<long long>(s.deadline_hits),
                static_cast<long long>(s.memory_trips),
                static_cast<long long>(s.retries),
                static_cast<long long>(s.degraded_successes));
  }
  if (failures > 0) {
    std::printf("failures by status:");
    for (const auto& [code, count] : failures_by_code) {
      std::printf(" %s=%d", tw::StatusCodeName(code), count);
    }
    std::printf("\n");
  }
  if (journal != nullptr && !journal->first_error().ok()) {
    return Fail("journal: " + journal->first_error().ToString());
  }
  if (tw::GracefulShutdown::requested()) {
    std::printf("interrupted by signal %d; journal flushed — rerun with "
                "--resume to continue\n",
                tw::GracefulShutdown::signal_number());
    return tw::GracefulShutdown::kExitInterrupted;
  }
  return failures == 0 ? 0 : 1;
}

int CmdServe(int argc, char** argv) {
  if (argc < 1) {
    return Fail("usage: twq serve <corpus-dir> [--port P] [--host H] "
                "[--workers N] [--max-queue Q] [--max-connections C] "
                "[--memory-budget-mb B] [--request-budget-mb RB] "
                "[--deadline-ms D] [--max-deadline-ms MD] [--drain-ms MS] "
                "[--io-timeout-ms T] [--cache-budget-mb CB] [--quiet]");
  }
  const std::string corpus_dir = argv[0];
  tw::ServerOptions options;
  long long cache_budget_mb = 0;  // 0 = unlimited resident cache
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      options.port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      options.host = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      options.num_workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-queue") == 0 && i + 1 < argc) {
      options.max_queue = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-connections") == 0 &&
               i + 1 < argc) {
      options.max_connections = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--memory-budget-mb") == 0 &&
               i + 1 < argc) {
      options.memory_budget_bytes = std::atoll(argv[++i]) * 1024 * 1024;
    } else if (std::strcmp(argv[i], "--request-budget-mb") == 0 &&
               i + 1 < argc) {
      options.request_memory_budget_bytes =
          std::atoll(argv[++i]) * 1024 * 1024;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      options.default_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-deadline-ms") == 0 &&
               i + 1 < argc) {
      options.max_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--drain-ms") == 0 && i + 1 < argc) {
      options.drain_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--io-timeout-ms") == 0 && i + 1 < argc) {
      options.io_timeout_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-consecutive-failures") == 0 &&
               i + 1 < argc) {
      options.max_consecutive_failures = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--cache-budget-mb") == 0 &&
               i + 1 < argc) {
      cache_budget_mb = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      return Fail(std::string("unknown serve option '") + argv[i] + "'");
    }
  }

  // Preload the corpus: every tree file in the directory, keyed by its
  // file name.  Serial and before listening — the serving hot path
  // never touches the filesystem.  The same loader re-runs on SIGHUP to
  // build the next generation, so it reports its own errors and returns
  // null instead of sinking the daemon.
  auto load_corpus =
      [&](std::uint64_t generation) -> std::shared_ptr<tw::ResidentTreeCache> {
    auto corpus = std::make_shared<tw::ResidentTreeCache>(
        cache_budget_mb * 1024 * 1024, generation);
    DIR* dir = ::opendir(corpus_dir.c_str());
    if (dir == nullptr) {
      std::fprintf(stderr, "twq serve: cannot open corpus directory '%s'\n",
                   corpus_dir.c_str());
      return nullptr;
    }
    std::vector<std::string> names;
    while (struct dirent* entry = ::readdir(dir)) {
      std::string name = entry->d_name;
      if (HasSuffix(name, ".term") || HasSuffix(name, ".xml") ||
          HasSuffix(name, ".twsnap")) {
        names.push_back(std::move(name));
      }
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());
    if (names.empty()) {
      std::fprintf(stderr,
                   "twq serve: corpus directory '%s' has no "
                   ".term/.xml/.twsnap files\n",
                   corpus_dir.c_str());
      return nullptr;
    }
    std::size_t loaded = 0;
    for (const std::string& name : names) {
      const std::string path = corpus_dir + "/" + name;
      auto entry = corpus->GetOrLoad(name, [&]() { return LoadTree(path); });
      if (!entry.ok()) {
        // A file that cannot be loaded, or does not fit in what is left
        // of --cache-budget-mb, degrades the corpus; it does not sink
        // the daemon — queries naming it get kNotFound.
        std::fprintf(stderr, "twq serve: skipping %s: %s\n", name.c_str(),
                     entry.status().ToString().c_str());
        continue;
      }
      ++loaded;
      if (!quiet) {
        std::fprintf(stderr,
                     "twq serve: loaded %s (%zu nodes, ~%lld KiB) [gen %llu]\n",
                     name.c_str(), (*entry)->source_nodes,
                     static_cast<long long>((*entry)->approx_bytes / 1024),
                     static_cast<unsigned long long>(generation));
      }
    }
    if (loaded == 0) {
      std::fprintf(stderr, "twq serve: no corpus tree loaded successfully\n");
      return nullptr;
    }
    return corpus;
  };

  std::shared_ptr<tw::ResidentTreeCache> corpus = load_corpus(0);
  if (corpus == nullptr) return 1;

  tw::QueryServer server(options, corpus);
  corpus.reset();  // the server owns the generation from here on
  tw::Status started = server.Start();
  if (!started.ok()) return Fail("serve: " + started.ToString());
  // The smoke harness and loadgen parse this exact line; keep it first
  // on stdout and flushed.
  std::printf("listening on %s:%d\n", options.host.c_str(), server.port());
  std::fflush(stdout);

  // Signal loop: the handlers only latch atomics; this loop converts
  // the first SIGINT/SIGTERM into a drain and each SIGHUP into a live
  // corpus reload — build a fresh generation from the (possibly
  // changed) directory here on the driver thread, then swap it in
  // atomically while in-flight queries finish on the generation they
  // pinned.  A failed build keeps the old generation serving.
  tw::GracefulShutdown::Install();
  tw::Counter* reload_metric =
      tw::MetricsRegistry::Global().FindOrCreateCounter(
          "treewalk_server_reload_requests_total",
          "SIGHUPs observed by the serve driver; each one triggers a live "
          "corpus reload (build a fresh generation, swap atomically)");
  int reloads_seen = 0;
  std::uint64_t generation = 0;
  while (!tw::GracefulShutdown::requested()) {
    int reloads = tw::GracefulShutdown::reload_requests();
    if (reloads > reloads_seen) {
      // Coalesce a burst of SIGHUPs into one rebuild; every request is
      // still counted.
      reload_metric->Increment(reloads - reloads_seen);
      reloads_seen = reloads;
      const auto build_start = std::chrono::steady_clock::now();
      std::shared_ptr<tw::ResidentTreeCache> next =
          load_corpus(++generation);
      const double build_ms =
          std::chrono::duration_cast<
              std::chrono::duration<double, std::milli>>(
              std::chrono::steady_clock::now() - build_start)
              .count();
      if (next == nullptr) {
        --generation;
        std::fprintf(stderr,
                     "twq serve: reload failed; keeping generation %llu\n",
                     static_cast<unsigned long long>(generation));
      } else {
        const long long trees =
            static_cast<long long>(next->resident_trees());
        server.SwapCorpus(std::move(next), build_ms);
        if (!quiet) {
          std::fprintf(stderr,
                       "twq serve: reloaded generation %llu (%lld trees, "
                       "%.1f ms build)\n",
                       static_cast<unsigned long long>(generation), trees,
                       build_ms);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!quiet) {
    std::fprintf(stderr, "twq serve: signal %d, draining (%lld ms grace)\n",
                 tw::GracefulShutdown::signal_number(),
                 static_cast<long long>(options.drain_deadline_ms));
  }
  server.BeginDrain();
  server.AwaitTermination();
  tw::GracefulShutdown::Uninstall();

  const tw::ServerCounters& c = server.counters();
  std::printf("drained: admitted=%lld ok=%lld error=%lld drained=%lld "
              "shed_queue=%lld shed_memory=%lld shed_draining=%lld "
              "protocol_errors=%lld reaped=%lld quarantined=%lld "
              "reloads=%lld\n",
              static_cast<long long>(c.requests_admitted.load()),
              static_cast<long long>(c.served_ok.load()),
              static_cast<long long>(c.served_error.load()),
              static_cast<long long>(c.drained.load()),
              static_cast<long long>(c.shed_queue.load()),
              static_cast<long long>(c.shed_memory.load()),
              static_cast<long long>(c.shed_draining.load()),
              static_cast<long long>(c.protocol_errors.load()),
              static_cast<long long>(c.slow_clients_reaped.load()),
              static_cast<long long>(c.quarantined.load()),
              static_cast<long long>(c.reloads.load()));
  std::fflush(stdout);
  return tw::GracefulShutdown::kExitInterrupted;
}

bool ParseEndpoint(const std::string& spec, tw::Endpoint* out) {
  std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
  out->host = colon == 0 ? "127.0.0.1" : spec.substr(0, colon);
  out->port = std::atoi(spec.c_str() + colon + 1);
  return out->port > 0 && out->port < 65536;
}

int CmdQuery(int argc, char** argv) {
  const char* usage =
      "usage: twq query <tree-name> <program.twp> --remote HOST:PORT "
      "[--retries R] [--total-deadline-ms D] [--deadline-ms D] "
      "[--io-timeout-ms T] "
      "[--breaker-threshold N] [--breaker-cooldown-ms MS] [--quiet]";
  if (argc < 2) return Fail(usage);
  const std::string tree_name = argv[0];
  const std::string program_path = argv[1];
  tw::ClientOptions options;
  bool have_remote = false;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--remote") == 0 && i + 1 < argc) {
      if (!ParseEndpoint(argv[++i], &options.endpoint)) {
        return Fail(std::string("bad --remote '") + argv[i] + "'");
      }
      have_remote = true;
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      options.retry.max_attempts = std::atoi(argv[++i]) + 1;
    } else if (std::strcmp(argv[i], "--total-deadline-ms") == 0 &&
               i + 1 < argc) {
      options.total_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      options.request_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--io-timeout-ms") == 0 && i + 1 < argc) {
      options.io_timeout_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--breaker-threshold") == 0 &&
               i + 1 < argc) {
      options.breaker_threshold = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--breaker-cooldown-ms") == 0 &&
               i + 1 < argc) {
      options.breaker_cooldown_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else {
      return Fail(std::string("unknown query option '") + argv[i] + "'\n" +
                  usage);
    }
  }
  if (!have_remote) return Fail(usage);

  std::ifstream in(program_path);
  if (!in) return Fail("cannot read program '" + program_path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();

  tw::QueryClient client(std::move(options));
  tw::QueryOutcome outcome = client.Query(tree_name, buffer.str());
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "twq query: %s (after %d attempt%s)\n",
                 outcome.status.ToString().c_str(), outcome.attempts,
                 outcome.attempts == 1 ? "" : "s");
    return 1;
  }
  std::printf("%s in %lld step(s)\n",
              outcome.result.accepted ? "ACCEPT" : "REJECT",
              static_cast<long long>(outcome.result.steps));
  if (!quiet && outcome.attempts > 1) {
    std::fprintf(stderr, "twq query: %d attempt(s)\n", outcome.attempts);
  }
  return 0;
}

int CmdProbe(int argc, char** argv) {
  const char* usage =
      "usage: twq probe <health|ready|stats> --remote HOST:PORT "
      "[--hold-ms N] [--timeout-ms T]";
  if (argc < 1) return Fail(usage);
  const std::string verb = argv[0];
  tw::ClientOptions options;
  bool have_remote = false;
  long long hold_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--remote") == 0 && i + 1 < argc) {
      if (!ParseEndpoint(argv[++i], &options.endpoint)) {
        return Fail(std::string("bad --remote '") + argv[i] + "'");
      }
      have_remote = true;
    } else if (std::strcmp(argv[i], "--hold-ms") == 0 && i + 1 < argc) {
      hold_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
      options.io_timeout_ms = std::atoll(argv[++i]);
    } else {
      return Fail(std::string("unknown probe option '") + argv[i] + "'");
    }
  }
  if (!have_remote) return Fail(usage);
  if (verb != "health" && verb != "ready" && verb != "stats") {
    return Fail(usage);
  }

  tw::QueryClient client(std::move(options));
  // --hold-ms: connect *now*, probe *later*.  The daemon refuses new
  // connections once draining, but it keeps answering liveness probes
  // on connections it already holds — this is how the smoke test
  // demonstrates that liveness and readiness really are different
  // questions.
  tw::Status connected = client.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "twq probe: %s\n", connected.ToString().c_str());
    return 1;
  }
  if (hold_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
  }

  if (verb == "stats") {
    auto stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "twq probe: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    for (const auto& [key, value] : stats->entries) {
      std::printf("%s %lld\n", key.c_str(), static_cast<long long>(value));
    }
    return 0;
  }

  tw::Result<bool> up =
      verb == "health" ? client.Health() : client.Ready();
  if (!up.ok()) {
    std::fprintf(stderr, "twq probe: %s\n", up.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %s\n", verb.c_str(), *up ? "ok" : "not-ready");
  // Exit 2 = the daemon answered but said "not ready": alive, draining
  // or corpus-less.  Distinct from 1 (no daemon / transport failure) so
  // supervisors can tell "wait" from "restart".
  return *up ? 0 : 2;
}

int CmdJournal(int argc, char** argv) {
  if (argc != 1) return Fail("usage: twq journal <journal-file>");
  auto contents = tw::ReadJournal(argv[0]);
  if (!contents.ok()) return Fail(contents.status().ToString());
  auto plan = tw::BuildResumePlan(*contents);
  if (!plan.ok()) return Fail(plan.status().ToString());
  for (const std::string& payload : contents->records) {
    auto record = tw::DecodeBatchRecord(payload);
    if (!record.ok()) continue;  // BuildResumePlan already vetted these
    if (record->type == tw::BatchRecord::Type::kJobStarted) {
      std::printf("S %016llx attempt=%d rung=%d\n",
                  static_cast<unsigned long long>(record->job_id),
                  record->attempt, record->rung);
    } else {
      std::printf("F %016llx code=%s accepted=%d attempts=%d rung=%d "
                  "steps=%lld\n",
                  static_cast<unsigned long long>(record->job_id),
                  tw::StatusCodeName(record->code), record->accepted ? 1 : 0,
                  record->attempts, record->rung,
                  static_cast<long long>(record->steps));
    }
  }
  std::printf("%lld records: %zu completed, %zu in-flight%s\n",
              static_cast<long long>(plan->records), plan->completed.size(),
              plan->in_flight.size(),
              plan->torn ? " (torn tail truncated on next open)" : "");
  if (!plan->duplicate_finishes.empty()) {
    for (std::uint64_t id : plan->duplicate_finishes) {
      std::fprintf(stderr, "twq: duplicate JobFinished for job %016llx\n",
                   static_cast<unsigned long long>(id));
    }
    return 1;
  }
  return 0;
}

int CmdSnapshot(int argc, char** argv) {
  const char* usage =
      "usage: twq snapshot build <tree.{term,xml}> [-o <out.twsnap>] | "
      "twq snapshot inspect <file.twsnap>";
  if (argc < 2) return Fail(usage);
  const std::string verb = argv[0];
  if (verb == "build") {
    const std::string tree_path = argv[1];
    std::string out_path = tree_path + ".twsnap";
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
        out_path = argv[++i];
      } else {
        return Fail(usage);
      }
    }
    auto tree = LoadTree(tree_path);
    if (!tree.ok()) return Fail("tree: " + tree.status().ToString());
    auto info = tw::WriteTreeSnapshot(*tree, out_path);
    if (!info.ok()) return Fail("snapshot: " + info.status().ToString());
    std::printf("wrote %s: %llu nodes, %llu labels, %llu attrs, "
                "%llu values, %llu bytes, content=%016llx\n",
                out_path.c_str(),
                static_cast<unsigned long long>(info->nodes),
                static_cast<unsigned long long>(info->labels),
                static_cast<unsigned long long>(info->attrs),
                static_cast<unsigned long long>(info->values),
                static_cast<unsigned long long>(info->file_bytes),
                static_cast<unsigned long long>(info->content_hash));
    return 0;
  }
  if (verb == "inspect") {
    if (argc != 2) return Fail(usage);
    auto info = tw::InspectTreeSnapshot(argv[1]);
    if (!info.ok()) return Fail("inspect: " + info.status().ToString());
    std::printf("%s: version %u, %llu nodes, %llu labels, %llu attrs, "
                "%llu values, %llu bytes, content=%016llx\n",
                argv[1], info->version,
                static_cast<unsigned long long>(info->nodes),
                static_cast<unsigned long long>(info->labels),
                static_cast<unsigned long long>(info->attrs),
                static_cast<unsigned long long>(info->values),
                static_cast<unsigned long long>(info->file_bytes),
                static_cast<unsigned long long>(info->content_hash));
    for (const tw::SnapshotSectionInfo& s : info->sections) {
      std::printf("  section %-15s offset=%-8llu length=%-10llu "
                  "crc=%08x\n",
                  tw::SnapshotSectionName(s.kind),
                  static_cast<unsigned long long>(s.offset),
                  static_cast<unsigned long long>(s.length), s.crc);
    }
    return 0;
  }
  return Fail(usage);
}

int CmdCat(int argc, char** argv) {
  if (argc != 2) return Fail("usage: twq cat <expression> <tree>");
  auto expr = tw::ParseCaterpillar(argv[0]);
  if (!expr.ok()) return Fail("expression: " + expr.status().ToString());
  auto tree = LoadTree(argv[1]);
  if (!tree.ok()) return Fail("tree: " + tree.status().ToString());
  auto hits = tw::CaterpillarSelect(*tree, *expr, tree->root());
  if (!hits.ok()) return Fail("eval: " + hits.status().ToString());
  std::printf("%zu node(s):", hits->size());
  for (tw::NodeId u : *hits) {
    std::printf(" %lld:%s", static_cast<long long>(u),
                tree->LabelName(tree->label(u)).c_str());
  }
  std::printf("\n");
  return 0;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (out) {
    out << content;
    out.flush();
  }
  if (!out) {
    std::fprintf(stderr, "twq: cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global observability flags work with every subcommand; strip them
  // before dispatch.
  std::string metrics_out, trace_out;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.size() < 2) {
    return Fail("usage: twq <run|xpath|check|explain|cat|batch|serve|query|"
                "probe|journal|snapshot> [--metrics-out <file>] "
                "[--trace-out <file>] ...  (see file header)");
  }
  if (!trace_out.empty()) tw::Tracer::Global().Enable();

  std::string command = args[1];
  int sub_argc = static_cast<int>(args.size()) - 2;
  char** sub_argv = args.data() + 2;
  int code;
  if (command == "run") {
    code = CmdRun(sub_argc, sub_argv);
  } else if (command == "xpath") {
    code = CmdXPath(sub_argc, sub_argv);
  } else if (command == "check") {
    code = CmdCheck(sub_argc, sub_argv);
  } else if (command == "explain") {
    code = CmdExplain(sub_argc, sub_argv);
  } else if (command == "cat") {
    code = CmdCat(sub_argc, sub_argv);
  } else if (command == "batch") {
    code = CmdBatch(sub_argc, sub_argv);
  } else if (command == "serve") {
    code = CmdServe(sub_argc, sub_argv);
  } else if (command == "query") {
    code = CmdQuery(sub_argc, sub_argv);
  } else if (command == "probe") {
    code = CmdProbe(sub_argc, sub_argv);
  } else if (command == "journal") {
    code = CmdJournal(sub_argc, sub_argv);
  } else if (command == "snapshot") {
    code = CmdSnapshot(sub_argc, sub_argv);
  } else {
    code = Fail("unknown command '" + command + "'");
  }

  // Written even when the command failed: a failed run's metrics and
  // trace are exactly what you want to look at.
  if (!metrics_out.empty()) {
    tw::MetricsSnapshot snap = tw::MetricsRegistry::Global().Snapshot();
    std::string content = EndsWith(metrics_out, ".json")
                              ? snap.ToJson()
                              : snap.ToPrometheusText();
    if (!WriteTextFile(metrics_out, content) && code == 0) code = 1;
  }
  if (!trace_out.empty()) {
    tw::Tracer& tracer = tw::Tracer::Global();
    tracer.Disable();
    if (!WriteTextFile(trace_out, tracer.ChromeTraceJson()) && code == 0) {
      code = 1;
    }
    if (tracer.dropped() > 0) {
      std::fprintf(stderr,
                   "twq: trace buffer full, %llu span(s) dropped\n",
                   static_cast<unsigned long long>(tracer.dropped()));
    }
  }
  return code;
}
