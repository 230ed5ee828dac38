// Replays the fuzz seed corpus (tests/fuzz/corpus) through the same
// entry points the libFuzzer harnesses drive, so tier-1 GCC builds —
// which cannot compile the -fsanitize=fuzzer targets — still execute
// every seed on every run.  Each file must produce a Result without
// crashing, and each corpus keeps at least one well-formed seed so
// mutation starts from valid inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/automata/text_format.h"
#include "tests/fuzz/axis_interval_driver.h"
#include "tests/fuzz/program_driver.h"
#include "src/common/journal.h"
#include "src/engine/batch_journal.h"
#include "src/logic/parser.h"
#include "src/logic/selector_cache.h"
#include "src/server/frame.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"
#include "src/tree/xml_io.h"

#ifndef TREEWALK_SOURCE_DIR
#error "build must define TREEWALK_SOURCE_DIR"
#endif

namespace treewalk {
namespace {

std::vector<std::filesystem::path> CorpusFiles(const std::string& corpus) {
  std::filesystem::path dir =
      std::filesystem::path(TREEWALK_SOURCE_DIR) / "tests" / "fuzz" /
      "corpus" / corpus;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string Slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

template <typename Parse>
void ReplayCorpus(const std::string& corpus, Parse parse) {
  std::vector<std::filesystem::path> files = CorpusFiles(corpus);
  ASSERT_FALSE(files.empty()) << "empty corpus: " << corpus;
  int well_formed = 0;
  for (const std::filesystem::path& file : files) {
    std::string source = Slurp(file);
    if (parse(source)) ++well_formed;
    // Reaching here at all is the assertion: no crash, no overflow.
  }
  EXPECT_GT(well_formed, 0) << "no seed in corpus '" << corpus
                            << "' parses cleanly";
}

TEST(FuzzCorpus, FormulaSeedsReplayWithoutCrashing) {
  ReplayCorpus("formula",
               [](const std::string& s) { return ParseFormula(s).ok(); });
}

TEST(FuzzCorpus, TermSeedsReplayWithoutCrashing) {
  ReplayCorpus("term",
               [](const std::string& s) { return ParseTerm(s).ok(); });
}

TEST(FuzzCorpus, XmlSeedsReplayWithoutCrashing) {
  ReplayCorpus("xml",
               [](const std::string& s) { return ParseXml(s).ok(); });
}

TEST(FuzzCorpus, ProgramSeedsReplayWithoutCrashing) {
  // Mirrors fuzz_program.cc: parse each seed and, when it parses, hold
  // the interpreter's verdict on the driver's fixed tree against the
  // configuration-graph evaluator's.
  int compared = 0;
  ReplayCorpus("program", [&compared](const std::string& s) {
    const ProgramFuzzOutcome outcome = RunProgramFuzzInput(s);
    EXPECT_TRUE(outcome.agrees) << "verdicts differ on seed:\n" << s;
    compared += outcome.compared ? 1 : 0;
    return outcome.parsed;
  });
  EXPECT_GT(compared, 0) << "no program seed reached a verdict on both sides";
}

TEST(FuzzCorpus, JournalSeedsReplayWithoutCrashing) {
  // Mirrors fuzz_journal.cc: parse the image, feed whatever parses into
  // the resume planner, and also try the image as a bare batch record.
  ReplayCorpus("journal", [](const std::string& s) {
    Result<JournalContents> parsed = ParseJournal(s);
    bool clean = false;
    if (parsed.ok()) {
      EXPECT_LE(parsed->valid_bytes, s.size());
      Result<ResumePlan> plan = BuildResumePlan(*parsed);
      if (plan.ok()) {
        for (std::uint64_t id : plan->completed) {
          EXPECT_EQ(plan->in_flight.count(id), 0u);
        }
      }
      clean = !parsed->torn && plan.ok();
    }
    (void)DecodeBatchRecord(s);
    return clean;
  });
}

TEST(FuzzCorpus, SnapshotSeedsReplayWithoutCrashing) {
  // Mirrors fuzz_snapshot.cc: decode the image as a tree snapshot
  // (walking every node's O(1) accessors on success) and as a
  // selector-cache entry.  The corpus holds one intact snapshot plus
  // truncations and bit-flips of it; only the intact one may decode.
  ReplayCorpus("snapshot", [](const std::string& s) {
    auto image = std::make_shared<const std::string>(s);
    SnapshotInfo info;
    auto tree = TreeFromSnapshotImage(image, &info);
    if (tree.ok()) {
      EXPECT_EQ(tree->size(), info.nodes);
      const auto n = static_cast<NodeId>(tree->size());
      for (NodeId u = 0; u < n; ++u) {
        auto in_range = [n](NodeId v) {
          return v == kNoNode || (v >= 0 && v < n);
        };
        EXPECT_TRUE(in_range(tree->Parent(u)));
        EXPECT_TRUE(in_range(tree->FirstChild(u)));
        EXPECT_TRUE(in_range(tree->NextSibling(u)));
        EXPECT_LE(tree->SubtreeEnd(u), n);
        EXPECT_LE(tree->Depth(u), static_cast<int>(tree->size()));
      }
    }
    auto selector = DecodeSelectorCacheEntry(s, nullptr);
    if (selector.ok() && selector->tree_size() > 0) {
      (void)selector->SelectFrom(0);
    }
    return tree.ok() || selector.ok();
  });
}

TEST(FuzzCorpus, ServeFrameSeedsReplayWithoutCrashing) {
  // Mirrors fuzz_serve_frame.cc: the first byte selects a wire decoder
  // (src/server/frame.h), the rest is its body; whatever decodes must
  // re-encode to a decoding fixpoint.
  ReplayCorpus("serve_frame", [](const std::string& s) {
    if (s.empty()) return false;
    std::string_view body(s.data() + 1, s.size() - 1);
    auto fixpoint = [](auto decoded, auto encode, auto decode) {
      if (!decoded.ok()) return false;
      std::string wire = encode(*decoded);
      auto again = decode(wire);
      EXPECT_TRUE(again.ok());
      if (again.ok()) {
        EXPECT_EQ(encode(*again), wire);
      }
      return true;
    };
    switch (static_cast<std::uint8_t>(s[0]) % 7) {
      case 0: {
        if (body.size() >= 4) {
          auto len = DecodeFrameLength(
              reinterpret_cast<const unsigned char*>(body.data()));
          if (len.ok()) {
            EXPECT_GT(*len, 0u);
            EXPECT_LE(*len, kMaxFrameBytes);
          }
        }
        return DecodeFramePayload(body).ok();
      }
      case 1:
        return fixpoint(DecodeQueryRequest(body), EncodeQueryRequest,
                        DecodeQueryRequest);
      case 2:
        return fixpoint(DecodeQueryResult(body), EncodeQueryResult,
                        DecodeQueryResult);
      case 3:
        return fixpoint(DecodeError(body), EncodeError, DecodeError);
      case 4:
        return fixpoint(DecodeStats(body), EncodeStats, DecodeStats);
      case 5: {
        std::string wire = EncodeFrame(MessageType::kMetricsResult, body);
        auto frame = DecodeFramePayload(std::string_view(wire).substr(4));
        EXPECT_TRUE(frame.ok());
        return frame.ok() && frame->body == body;
      }
      default:
        return fixpoint(DecodeProbeResult(body), EncodeProbeResult,
                        DecodeProbeResult);
    }
  });
}

TEST(FuzzCorpus, AxisIntervalSeedsReplayWithoutCrashing) {
  // Mirrors fuzz_axis_interval.cc.  Unlike the parser corpora, every
  // byte string decodes to a valid tree, so "well-formed" here means
  // the interval/navigation differential check agreed — which must be
  // true of every seed, not just one.
  std::vector<std::filesystem::path> files = CorpusFiles("axis_interval");
  ASSERT_FALSE(files.empty());
  for (const std::filesystem::path& file : files) {
    std::string bytes = Slurp(file);
    EXPECT_TRUE(AxisIntervalAgrees(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size(),
        512))
        << file;
  }
}

}  // namespace
}  // namespace treewalk
