// Manifest loading: stable content-derived job ids, duplicate-pair
// rejection with both line numbers, and malformed-line diagnostics
// (src/engine/manifest.h).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "src/engine/manifest.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"

namespace treewalk {
namespace {

/// Reader over an in-memory path -> contents map.
ManifestFileReader MapReader(std::map<std::string, std::string> files) {
  return [files = std::move(files)](const std::string& path,
                                    std::string& out) {
    auto it = files.find(path);
    if (it == files.end()) return false;
    out = it->second;
    return true;
  };
}

TEST(ManifestTest, ParsesPairsSkippingBlanksAndComments) {
  Result<Manifest> manifest = ParseManifest(
      "# batch of two\n"
      "\n"
      "p1.twp t1.xml\n"
      "   \n"
      "p2.twp t2.xml\n",
      MapReader({{"p1.twp", "prog1"},
                 {"t1.xml", "tree1"},
                 {"p2.twp", "prog2"},
                 {"t2.xml", "tree2"}}));
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  ASSERT_EQ(manifest->entries.size(), 2u);
  EXPECT_EQ(manifest->entries[0].program_path, "p1.twp");
  EXPECT_EQ(manifest->entries[0].tree_path, "t1.xml");
  EXPECT_EQ(manifest->entries[0].line_number, 3);
  EXPECT_EQ(manifest->entries[1].line_number, 5);

  // The grammar is whitespace-split fields, so an inline comment after
  // a pair is a third field — rejected, not silently ignored.
  EXPECT_FALSE(
      ParseManifest("p1.twp t1.xml # inline comment\n",
                    MapReader({{"p1.twp", "x"}, {"t1.xml", "y"}}))
          .ok());
}

TEST(ManifestTest, AssignsStableNonZeroJobIds) {
  ManifestFileReader reader = MapReader({{"p.twp", "program bytes"},
                                         {"q.twp", "other program"},
                                         {"t.xml", "tree bytes"}});
  Result<Manifest> first = ParseManifest("p.twp t.xml\nq.twp t.xml\n", reader);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->entries.size(), 2u);
  EXPECT_NE(first->entries[0].job_id, 0u);
  EXPECT_NE(first->entries[1].job_id, 0u);
  EXPECT_NE(first->entries[0].job_id, first->entries[1].job_id);
  EXPECT_EQ(first->entries[0].line_number, 1);
  EXPECT_EQ(first->entries[1].line_number, 2);

  // Same inputs -> same ids, independent of manifest order.
  Result<Manifest> second =
      ParseManifest("q.twp t.xml\np.twp t.xml\n", reader);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->entries[1].job_id, first->entries[0].job_id);
  EXPECT_EQ(second->entries[0].job_id, first->entries[1].job_id);
}

TEST(ManifestTest, JobIdDependsOnFileContent) {
  std::uint64_t before =
      ParseManifest("p.twp t.xml\n",
                    MapReader({{"p.twp", "v1"}, {"t.xml", "tree"}}))
          ->entries[0]
          .job_id;
  std::uint64_t after =
      ParseManifest("p.twp t.xml\n",
                    MapReader({{"p.twp", "v2"}, {"t.xml", "tree"}}))
          ->entries[0]
          .job_id;
  EXPECT_NE(before, after);

  std::uint64_t tree_changed =
      ParseManifest("p.twp t.xml\n",
                    MapReader({{"p.twp", "v1"}, {"t.xml", "other tree"}}))
          ->entries[0]
          .job_id;
  EXPECT_NE(before, tree_changed);
}

TEST(ManifestTest, JobIdDependsOnPathsNotJustContent) {
  ManifestFileReader reader =
      MapReader({{"a.twp", "same"}, {"b.twp", "same"}, {"t.xml", "tree"}});
  Result<Manifest> manifest = ParseManifest("a.twp t.xml\nb.twp t.xml\n",
                                            reader);
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest->entries[0].job_id, manifest->entries[1].job_id);
}

TEST(ManifestTest, UnreadableFilesStillGetStableIds) {
  ManifestFileReader reader = MapReader({{"t.xml", "tree"}});
  Result<Manifest> first = ParseManifest("missing.twp t.xml\n", reader);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->entries.size(), 1u);
  EXPECT_NE(first->entries[0].job_id, 0u);
  Result<Manifest> second = ParseManifest("missing.twp t.xml\n", reader);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->entries[0].job_id, first->entries[0].job_id);
}

TEST(ManifestTest, RejectsDuplicatePairsNamingBothLines) {
  ManifestFileReader reader =
      MapReader({{"p.twp", "prog"}, {"t.xml", "tree"}, {"u.xml", "tree2"}});
  Result<Manifest> manifest = ParseManifest(
      "p.twp t.xml\n"
      "p.twp u.xml\n"
      "p.twp t.xml\n",
      reader);
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kInvalidArgument);
  // The diagnostic names both offending lines.
  EXPECT_NE(manifest.status().message().find("1"), std::string::npos)
      << manifest.status();
  EXPECT_NE(manifest.status().message().find("3"), std::string::npos)
      << manifest.status();
  EXPECT_NE(manifest.status().message().find("duplicate"), std::string::npos)
      << manifest.status();
}

TEST(ManifestTest, RejectsMalformedLinesWithLineNumber) {
  ManifestFileReader reader = MapReader({});
  Result<Manifest> one_field = ParseManifest("only-one-field\n", reader);
  ASSERT_FALSE(one_field.ok());
  EXPECT_EQ(one_field.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(one_field.status().message().find("line 1"), std::string::npos)
      << one_field.status();

  Result<Manifest> three_fields =
      ParseManifest("# fine\np.twp t.xml extra\n", reader);
  ASSERT_FALSE(three_fields.ok());
  EXPECT_NE(three_fields.status().message().find("line 2"),
            std::string::npos)
      << three_fields.status();
}

TEST(ManifestTest, LoadManifestFileMissingIsNotFound) {
  Result<Manifest> manifest =
      LoadManifestFile("/nonexistent/definitely/missing.manifest");
  ASSERT_FALSE(manifest.ok());
  EXPECT_EQ(manifest.status().code(), StatusCode::kNotFound);
}

/// LoadManifestFile keys a `.twsnap` job by the snapshot's framing: its
/// header (t's content hash) and section table (every section's CRC).
class SnapshotJobIdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("treewalk_manifest_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    snapshot_ = (dir_ / "t.twsnap").string();
    std::ofstream(dir_ / "p.twp") << "class tw\nstates q0 qf\n";
    std::ofstream(dir_ / "m.manifest")
        << (dir_ / "p.twp").string() << " " << snapshot_ << "\n";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteSnapshot(const std::string& term) {
    auto tree = ParseTerm(term);
    ASSERT_TRUE(tree.ok()) << tree.status();
    ASSERT_TRUE(WriteTreeSnapshot(*tree, snapshot_).ok());
  }

  std::uint64_t JobId() {
    Result<Manifest> manifest =
        LoadManifestFile((dir_ / "m.manifest").string());
    EXPECT_TRUE(manifest.ok()) << manifest.status();
    if (!manifest.ok() || manifest->entries.size() != 1) return 0;
    return manifest->entries[0].job_id;
  }

  std::filesystem::path dir_;
  std::string snapshot_;
};

TEST_F(SnapshotJobIdTest, RewritingTheSameTreeKeepsTheId) {
  WriteSnapshot("r(a[v=1], b[v=\"x\"])");
  const std::uint64_t first = JobId();
  EXPECT_NE(first, 0u);
  WriteSnapshot("r(a[v=1], b[v=\"x\"])");
  EXPECT_EQ(JobId(), first);
}

TEST_F(SnapshotJobIdTest, OneChangedAttributeValueChangesTheId) {
  WriteSnapshot("r(a[v=1], b[v=\"x\"])");
  const std::uint64_t before = JobId();
  WriteSnapshot("r(a[v=2], b[v=\"x\"])");
  EXPECT_NE(JobId(), before);
  WriteSnapshot("r(a[v=1], b[v=\"y\"])");
  EXPECT_NE(JobId(), before);
}

/// A snapshot cut short has no valid framing (its section table points
/// past the end), so it is hashed whole: its id is stable, and differs
/// from the intact file's, wherever the cut falls.
TEST_F(SnapshotJobIdTest, TruncatedSnapshotStillGetsAStableId) {
  WriteSnapshot("r(a[v=1], b[v=\"x\"])");
  const std::uint64_t intact = JobId();
  const auto size = std::filesystem::file_size(snapshot_);
  for (std::uintmax_t keep : {size - 1, size / 2, std::uintmax_t{100}}) {
    std::filesystem::resize_file(snapshot_, keep);
    const std::uint64_t id = JobId();
    EXPECT_NE(id, 0u) << keep;
    EXPECT_NE(id, intact) << keep;
    EXPECT_EQ(JobId(), id) << keep;
  }
}

TEST(ManifestTest, ManifestJobIdZeroIsRemapped) {
  // Whatever the inputs, the id is never the 0 sentinel (0 means
  // "unjournaled" to the engine).  Spot-check the exposed helper.
  std::string program = "p";
  std::string tree = "t";
  EXPECT_NE(ManifestJobId("a", "b", &program, &tree), 0u);
  EXPECT_NE(ManifestJobId("a", "b", nullptr, nullptr), 0u);
}

}  // namespace
}  // namespace treewalk
