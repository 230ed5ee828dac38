// Round-trip, corruption, resource-governance, and fault-injection
// coverage for the mmap-able tree snapshot format (src/tree/snapshot.h).
// The contract under test: a loaded tree is indistinguishable from the
// tree that was written — same navigation, labels, attributes, values,
// and postorder — and so is a loaded delim(t) from Delimit(t); every way
// a file can be wrong (truncated, bit-flipped, version-skewed, injected
// fault) surfaces as a clean Status, never a crash and never a silently
// different tree.  Each load checks the sections its tree views; a
// damaged delim(t) section fails the delim(t) load and inspect, not t's.

#include "src/tree/snapshot.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/atomic_file.h"
#include "src/common/crc32c.h"
#include "src/common/failpoint.h"
#include "src/common/governor.h"
#include "src/common/metrics.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"
#include "src/tree/traversal.h"
#include "src/tree/tree.h"

namespace treewalk {
namespace {

std::string TempPath(const char* tag) {
  return testing::TempDir() + "/snapshot_test_" + tag + "_" +
         std::to_string(::getpid()) + ".twsnap";
}

Tree SampleTree() {
  TreeBuilder b;
  auto r = b.AddRoot("doc");
  auto s1 = b.AddChild(r, "section");
  auto s2 = b.AddChild(r, "section");
  auto p1 = b.AddChild(s1, "para");
  auto p2 = b.AddChild(s1, "para");
  auto p3 = b.AddChild(s2, "para");
  b.SetAttr(p1, "id", 7);
  b.SetAttr(p2, "id", 9);
  b.SetAttrString(p3, "title", "héllo — κόσμε");
  b.SetAttrString(r, "title", "");
  return b.Build();
}

Tree RandomInput(int n, unsigned seed = 1234) {
  std::mt19937 rng(seed);
  RandomTreeOptions options;
  options.num_nodes = n;
  options.labels = {"a", "b", "c"};
  options.attributes = {"x", "y"};
  return RandomTree(rng, options);
}

/// Full structural equality: every navigation pointer, label name,
/// attribute value (resolved through the value interner so string
/// values compare by content), for every node.
void ExpectTreesEqual(const Tree& a, const Tree& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (NodeId u = 0; u < static_cast<NodeId>(a.size()); ++u) {
    EXPECT_EQ(a.LabelName(a.label(u)), b.LabelName(b.label(u))) << u;
    EXPECT_EQ(a.Parent(u), b.Parent(u)) << u;
    EXPECT_EQ(a.FirstChild(u), b.FirstChild(u)) << u;
    EXPECT_EQ(a.LastChild(u), b.LastChild(u)) << u;
    EXPECT_EQ(a.NextSibling(u), b.NextSibling(u)) << u;
    EXPECT_EQ(a.PrevSibling(u), b.PrevSibling(u)) << u;
    EXPECT_EQ(a.SubtreeEnd(u), b.SubtreeEnd(u)) << u;
    EXPECT_EQ(a.ChildIndex(u), b.ChildIndex(u)) << u;
    EXPECT_EQ(a.ChildCount(u), b.ChildCount(u)) << u;
    for (AttrId at = 0; at < static_cast<AttrId>(a.num_attributes()); ++at) {
      EXPECT_EQ(a.attributes().NameOf(at), b.attributes().NameOf(at));
      const DataValue va = a.attr(at, u);
      const DataValue vb = b.attr(at, u);
      EXPECT_EQ(va, vb) << "attr " << at << " node " << u;
      // Resolve through the interner too: equal handles must also mean
      // equal text after a load.
      EXPECT_EQ(a.values().Render(va), b.values().Render(vb)) << u;
    }
  }
}

std::int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().FindOrCreateCounter(name, "")->value();
}

TEST(SnapshotRoundTrip, HandBuiltTree) {
  const Tree original = SampleTree();
  const std::string path = TempPath("hand");
  SnapshotInfo written;
  auto w = WriteTreeSnapshot(original, path);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  written = *w;
  EXPECT_EQ(written.nodes, original.size());
  EXPECT_EQ(written.version, kSnapshotVersion);
  EXPECT_EQ(written.sections.size(), 11u);

  SnapshotInfo read;
  auto loaded = LoadTreeSnapshot(path, nullptr, &read);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(read.content_hash, written.content_hash);
  ExpectTreesEqual(original, *loaded);

  // The same file maps delim(t); the header it reports is t's.
  SnapshotInfo read_delimited;
  auto delimited = LoadDelimitedSnapshot(path, nullptr, &read_delimited);
  ASSERT_TRUE(delimited.ok()) << delimited.status().ToString();
  EXPECT_EQ(read_delimited.nodes, original.size());
  EXPECT_EQ(read_delimited.content_hash, written.content_hash);
  ExpectTreesEqual(Delimit(original).tree, *delimited);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, RandomTreeAndEncodedImageIsDeterministic) {
  const Tree original = RandomInput(500);
  const std::string image1 = EncodeTreeSnapshot(original);
  const std::string image2 = EncodeTreeSnapshot(original);
  EXPECT_EQ(image1, image2);

  auto loaded = TreeFromSnapshotImage(
      std::make_shared<const std::string>(image1));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTreesEqual(original, *loaded);

  // Re-encoding the loaded tree reproduces the image byte-for-byte:
  // nothing (ids, interner handles, postorder) shifts across a load.
  EXPECT_EQ(EncodeTreeSnapshot(*loaded), image1);
}

TEST(SnapshotRoundTrip, ContentHashMatchesParsedTree) {
  const Tree original = RandomInput(200, 77);
  auto image = std::make_shared<const std::string>(
      EncodeTreeSnapshot(original));
  auto loaded = TreeFromSnapshotImage(image);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(TreeContentHash(original), TreeContentHash(*loaded));

  // And through a text round trip: the hash keys the selector cache,
  // so parse(print(t)) must land on the same key as mmap(write(t)).
  auto reparsed = ParseTerm(PrintTerm(original));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(TreeContentHash(original), TreeContentHash(*reparsed));
}

TEST(SnapshotRoundTrip, EmptyTree) {
  const Tree empty;
  auto image = std::make_shared<const std::string>(
      EncodeTreeSnapshot(empty));
  auto loaded = TreeFromSnapshotImage(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->empty());
  EXPECT_EQ(loaded->root(), kNoNode);
  // An empty tree has no delim(t); its sections decode to an empty tree.
  auto delimited = DelimitedTreeFromSnapshotImage(image);
  ASSERT_TRUE(delimited.ok()) << delimited.status().ToString();
  EXPECT_TRUE(delimited->empty());
}

TEST(SnapshotRoundTrip, PostorderIsAdoptedNotRecomputed) {
  const Tree original = RandomInput(300, 9);
  auto image = std::make_shared<const std::string>(
      EncodeTreeSnapshot(original));
  auto loaded = TreeFromSnapshotImage(image);
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->snapshot_postorder(), nullptr);

  // The adopted ranks must equal a fresh postorder numbering.
  std::vector<NodeId> order = PostOrder(original);
  std::vector<NodeId> rank(original.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank[static_cast<std::size_t>(order[i])] = static_cast<NodeId>(i);
  }
  const NodeId* adopted = loaded->snapshot_postorder();
  for (std::size_t u = 0; u < original.size(); ++u) {
    EXPECT_EQ(adopted[u], rank[u]) << "node " << u;
  }

  // A parsed tree has no snapshot section to adopt.
  EXPECT_EQ(original.snapshot_postorder(), nullptr);
}

TEST(SnapshotInterners, IdsStableAcrossWriteLoad) {
  // Duplicate-heavy, empty-string, and non-ASCII entries: the loaded
  // interner must resolve every original handle to the same text and
  // assign the same handle for new lookups.
  TreeBuilder b;
  auto r = b.AddRoot("λ");
  for (int i = 0; i < 40; ++i) {
    auto c = b.AddChild(r, i % 2 == 0 ? "λ" : "μ");
    b.SetAttrString(c, "k", i % 3 == 0 ? "" : "значение");
  }
  const Tree original = b.Build();
  auto loaded = TreeFromSnapshotImage(
      std::make_shared<const std::string>(EncodeTreeSnapshot(original)));
  ASSERT_TRUE(loaded.ok());

  ASSERT_EQ(original.labels().size(), loaded->labels().size());
  for (Symbol s = 0; s < static_cast<Symbol>(original.labels().size());
       ++s) {
    EXPECT_EQ(original.labels().NameOf(s), loaded->labels().NameOf(s));
  }
  EXPECT_EQ(loaded->FindLabel("λ"), original.FindLabel("λ"));
  EXPECT_EQ(loaded->FindLabel("μ"), original.FindLabel("μ"));
  EXPECT_EQ(loaded->FindAttribute("k"), original.FindAttribute("k"));
  EXPECT_EQ(loaded->values().size(), original.values().size());
}

TEST(SnapshotCopyOnWrite, MutatingLoadedTreeDetachesFromImage) {
  const Tree original = SampleTree();
  auto image = std::make_shared<const std::string>(
      EncodeTreeSnapshot(original));
  auto loaded = TreeFromSnapshotImage(image);
  ASSERT_TRUE(loaded.ok());

  const AttrId id = loaded->FindAttribute("id");
  ASSERT_GE(id, 0);
  loaded->set_attr(id, 0, 42);
  EXPECT_EQ(loaded->attr(id, 0), 42);
  // The shared image is untouched: a second load still sees the
  // original value.
  auto loaded2 = TreeFromSnapshotImage(image);
  ASSERT_TRUE(loaded2.ok());
  EXPECT_EQ(loaded2->attr(id, 0), original.attr(id, 0));
}

TEST(SnapshotCopies, CopyAndMoveOfMappedTreeStayValid) {
  const Tree original = RandomInput(64, 5);
  auto loaded = TreeFromSnapshotImage(
      std::make_shared<const std::string>(EncodeTreeSnapshot(original)));
  ASSERT_TRUE(loaded.ok());

  Tree copy = *loaded;       // deep copy of a view-backed tree
  Tree moved = std::move(*loaded);
  ExpectTreesEqual(original, copy);
  ExpectTreesEqual(original, moved);
  Tree reassigned;
  reassigned = std::move(moved);
  ExpectTreesEqual(original, reassigned);
}

TEST(SnapshotValidation, EveryTruncationFailsCleanly) {
  const Tree original = SampleTree();
  const std::string image = EncodeTreeSnapshot(original);
  for (std::size_t len = 0; len < image.size(); ++len) {
    auto cut = std::make_shared<const std::string>(image.substr(0, len));
    auto loaded = TreeFromSnapshotImage(cut);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << len << " accepted";
  }
}

TEST(SnapshotValidation, EveryByteCorruptionFailsCleanly) {
  // Flip one bit in every byte.  Each load must reject the corruption OR
  // decode a tree identical to the original; it must reject every flip
  // in the header, the section table, and the sections its tree views.
  // A flip elsewhere (a section only the other tree views, or padding)
  // is invisible to it by design.
  const Tree original = SampleTree();
  const Tree delimited = Delimit(original).tree;
  const std::string image = EncodeTreeSnapshot(original);
  SnapshotInfo info;
  ASSERT_TRUE(
      TreeFromSnapshotImage(std::make_shared<const std::string>(image), &info)
          .ok());
  ASSERT_EQ(info.sections.size(), 11u);
  const std::size_t framing = kSnapshotHeaderBytes + 11 * 24 + 4;
  // True if byte `i` is framing or lies in a section of `kinds`.
  auto viewed = [&](std::size_t i, std::vector<std::uint32_t> kinds) {
    if (i < framing) return true;
    for (const SnapshotSectionInfo& sec : info.sections) {
      if (i >= sec.offset && i < sec.offset + sec.length &&
          std::find(kinds.begin(), kinds.end(), sec.kind) != kinds.end()) {
        return true;
      }
    }
    return false;
  };
  int rejected = 0;
  for (std::size_t i = 0; i < image.size(); ++i) {
    SCOPED_TRACE("byte " + std::to_string(i));
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    auto bytes = std::make_shared<const std::string>(corrupt);
    auto loaded = TreeFromSnapshotImage(bytes);
    auto loaded_delimited = DelimitedTreeFromSnapshotImage(bytes);
    if (loaded.ok()) {
      EXPECT_FALSE(viewed(i, {1, 2, 3, 4, 5, 6, 7}));
      ExpectTreesEqual(original, *loaded);
    }
    if (loaded_delimited.ok()) {
      EXPECT_FALSE(viewed(i, {3, 4, 8, 9, 10, 11}));
      ExpectTreesEqual(delimited, *loaded_delimited);
    }
    if (!loaded.ok() || !loaded_delimited.ok()) ++rejected;
  }
  // Between them the two loads view every section, so only
  // inter-section padding can flip without detection by either.
  EXPECT_GT(rejected, static_cast<int>(image.size()) * 9 / 10);
}

TEST(SnapshotValidation, DamagedDelimitedSectionFailsOnlyTheDelimitedLoad) {
  const Tree original = RandomInput(200, 11);
  const std::string path = TempPath("delim_damage");
  auto written = WriteTreeSnapshot(original, path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  auto image = ReadFileBytes(path);
  ASSERT_TRUE(image.ok());
  // One byte in the middle of delim(t)'s node records.
  const SnapshotSectionInfo& sec = written->sections[7];
  ASSERT_STREQ(SnapshotSectionName(sec.kind), "delim-nodes");
  std::string damaged = *image;
  damaged[static_cast<std::size_t>(sec.offset + sec.length / 2)] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(path, damaged).ok());

  auto delimited = LoadDelimitedSnapshot(path);
  ASSERT_FALSE(delimited.ok());
  EXPECT_EQ(delimited.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(delimited.status().message().find("delim-nodes"),
            std::string::npos)
      << delimited.status();
  auto loaded = LoadTreeSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTreesEqual(original, *loaded);
  auto inspected = InspectTreeSnapshot(path);
  ASSERT_FALSE(inspected.ok());
  EXPECT_NE(inspected.status().message().find("delim-nodes"),
            std::string::npos);
#if defined(TREEWALK_TWQ_PATH)
  // `twq snapshot inspect` reports the damage and exits 1.
  const std::string command = std::string(TREEWALK_TWQ_PATH) +
                              " snapshot inspect " + path + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1) << status;
  EXPECT_NE(output.find("delim-nodes CRC mismatch"), std::string::npos)
      << output;
#endif

  // And the other way round: damaged node records of t fail t's load,
  // not delim(t)'s.
  damaged = *image;
  damaged[static_cast<std::size_t>(written->sections[0].offset + 3)] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(path, damaged).ok());
  EXPECT_FALSE(LoadTreeSnapshot(path).ok());
  auto still_delimited = LoadDelimitedSnapshot(path);
  ASSERT_TRUE(still_delimited.ok()) << still_delimited.status().ToString();
  ExpectTreesEqual(Delimit(original).tree, *still_delimited);
  EXPECT_FALSE(InspectTreeSnapshot(path).ok());
  std::remove(path.c_str());
}

// A node record as the snapshot stores it (Tree::Node's layout: an
// 8-byte label, then nine 32-bit fields), read out of an image.
struct RawRecord {
  std::int64_t label;
  std::int32_t parent, first_child, last_child, next_sibling, prev_sibling,
      subtree_end, child_index, num_children;
};
static_assert(sizeof(RawRecord) == 40);

// The rules a load enforces on record `u` of `limit` once the CRCs
// match, one record at a time: the reference the loader's four-records-
// at-a-time pass must agree with.
bool ReferenceRecordOk(const RawRecord& nd, std::int32_t u,
                       std::int32_t limit, std::int64_t num_labels) {
  const bool bad_label = nd.label < 0 || nd.label >= num_labels;
  const bool bad_parent =
      u == 0 ? nd.parent != kNoNode : (nd.parent < 0 || nd.parent >= u);
  auto bad_after = [&](std::int32_t x) {  // kNoNode or strictly below u
    return x != kNoNode && (x <= u || x >= limit);
  };
  const bool bad_children = bad_after(nd.first_child) ||
                            bad_after(nd.last_child) ||
                            nd.num_children < 0 || nd.child_index < 0;
  const bool bad_siblings =
      bad_after(nd.next_sibling) ||
      (nd.prev_sibling != kNoNode &&
       (nd.prev_sibling < 0 || nd.prev_sibling >= u));
  const bool bad_subtree = nd.subtree_end <= u || nd.subtree_end > limit;
  return !(bad_label || bad_parent || bad_children || bad_siblings ||
           bad_subtree);
}

void SetU32Le(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    bytes[at + k] = static_cast<char>(v >> (8 * k));
  }
}

// Re-stamps section `kind`'s CRC in the section table, then the table's
// own CRC, so only the checks behind the CRCs can refuse the image.
void RestampSection(std::string& image, std::uint32_t kind) {
  constexpr std::size_t kEntries = 11;
  constexpr std::size_t kEntryBytes = 24;
  for (std::size_t i = 0; i < kEntries; ++i) {
    const std::size_t at = kSnapshotHeaderBytes + i * kEntryBytes;
    if (GetU32Le(image, at) != kind) continue;
    const std::uint64_t offset = GetU64Le(image, at + 8);
    const std::uint64_t length = GetU64Le(image, at + 16);
    SetU32Le(image, at + 4, Crc32c(std::string_view(image).substr(
                                offset, static_cast<std::size_t>(length))));
  }
  SetU32Le(image, kSnapshotHeaderBytes + kEntries * kEntryBytes,
           Crc32c(std::string_view(image).substr(kSnapshotHeaderBytes,
                                                 kEntries * kEntryBytes)));
}

using ImageLoader = Result<Tree> (*)(std::shared_ptr<const std::string>,
                                     SnapshotInfo*);

// The images the crafted-record tests mutate: delim(t) of t with n nodes
// and l leaves has 3 + 3n - l nodes, so these delim(t)s have 5, 8, 10,
// 11 and a few hundred nodes, every residue modulo the four records the
// loader checks per step; the t arenas have 1, 2, 3, 3 and 100.
std::vector<Tree> CraftedInputs() {
  std::vector<Tree> trees;
  for (const char* term : {"a", "a(b)", "a(b, c)", "a(b(c))"}) {
    auto parsed = ParseTerm(term);
    EXPECT_TRUE(parsed.ok()) << term;
    if (parsed.ok()) trees.push_back(std::move(parsed).value());
  }
  trees.push_back(RandomInput(100, 5));
  return trees;
}

TEST(SnapshotValidation, CraftedNodeRecordsFailWhereTheScalarRulesDo) {
  struct Arena {
    const char* name;
    std::uint32_t node_kind;
    ImageLoader load;
  };
  const Arena arenas[] = {{"delim(t)", 8, &DelimitedTreeFromSnapshotImage},
                          {"t", 1, &TreeFromSnapshotImage}};
  int refused = 0, accepted = 0;
  for (const Tree& input : CraftedInputs()) {
    const std::string image = EncodeTreeSnapshot(input);
    for (const Arena& arena : arenas) {
      SnapshotInfo info;
      auto clean = arena.load(std::make_shared<const std::string>(image),
                              &info);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      const auto n = static_cast<std::int32_t>(clean->size());
      const auto num_labels = static_cast<std::int64_t>(clean->labels().size());
      const SnapshotSectionInfo& sec = info.sections[arena.node_kind - 1];
      ASSERT_EQ(sec.length, static_cast<std::uint64_t>(n) * 40);
      std::vector<std::int32_t> records;
      for (std::int32_t u = 0; u < n; ++u) {
        if (n <= 12 || u < 6 || u >= n - 5) records.push_back(u);
      }
      for (std::int32_t u : records) {
        const std::int32_t values[] = {
            kNoNode, -2,    0,     1,
            u - 1,   u,     u + 1, n - 1,
            n,       n + 1, std::numeric_limits<std::int32_t>::min(),
            std::numeric_limits<std::int32_t>::max()};
        for (std::size_t word = 0; word < 10; ++word) {
          for (std::int32_t value : values) {
            std::string mutated = image;
            const std::size_t at =
                static_cast<std::size_t>(sec.offset) + 40 * u + 4 * word;
            SetU32Le(mutated, at, static_cast<std::uint32_t>(value));
            RestampSection(mutated, arena.node_kind);
            std::int32_t first_bad = n;
            for (std::int32_t v = 0; v < n && first_bad == n; ++v) {
              RawRecord nd;
              std::memcpy(&nd, mutated.data() + sec.offset + 40 * v, 40);
              if (!ReferenceRecordOk(nd, v, n, num_labels)) first_bad = v;
            }
            auto loaded = arena.load(
                std::make_shared<const std::string>(mutated), nullptr);
            SCOPED_TRACE(std::string(arena.name) + " n=" + std::to_string(n) +
                         " record " + std::to_string(u) + " word " +
                         std::to_string(word) + " = " + std::to_string(value));
            if (first_bad == n) {
              EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
              ++accepted;
            } else {
              ASSERT_FALSE(loaded.ok());
              EXPECT_EQ(loaded.status().message(),
                        "snapshot node record " + std::to_string(first_bad) +
                            " fails validation");
              ++refused;
            }
          }
        }
      }
    }
  }
  // Both outcomes are exercised in volume.
  EXPECT_GT(refused, 1000);
  EXPECT_GT(accepted, 1000);
}

TEST(SnapshotValidation, OutOfRangePostorderRankIsRefused) {
  for (const Tree& input : CraftedInputs()) {
    const std::string image = EncodeTreeSnapshot(input);
    SnapshotInfo info;
    auto clean = DelimitedTreeFromSnapshotImage(
        std::make_shared<const std::string>(image), &info);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    const auto n = static_cast<std::int32_t>(clean->size());
    const SnapshotSectionInfo& sec = info.sections[11 - 1];
    ASSERT_STREQ(SnapshotSectionName(sec.kind), "delim-postorder-ranks");
    for (std::int32_t u : {0, n / 2, n - 1}) {
      for (std::int32_t rank : {kNoNode, n, n + 1,
                                std::numeric_limits<std::int32_t>::min(),
                                std::numeric_limits<std::int32_t>::max(), 0,
                                n - 1}) {
        std::string mutated = image;
        SetU32Le(mutated, static_cast<std::size_t>(sec.offset) + 4 * u,
                 static_cast<std::uint32_t>(rank));
        RestampSection(mutated, sec.kind);
        auto loaded = DelimitedTreeFromSnapshotImage(
            std::make_shared<const std::string>(mutated));
        SCOPED_TRACE("n=" + std::to_string(n) + " rank of " +
                     std::to_string(u) + " = " + std::to_string(rank));
        if (rank >= 0 && rank < n) {
          EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
        } else {
          ASSERT_FALSE(loaded.ok());
          EXPECT_EQ(loaded.status().message(),
                    "snapshot post-order rank out of range");
        }
      }
    }
  }
}

TEST(SnapshotValidation, VersionSkewIsRejected) {
  const Tree original = SampleTree();
  std::string image = EncodeTreeSnapshot(original);
  // Bump the version field (offset 8) and re-stamp the header CRC so
  // only the version check can reject it.
  image[8] = static_cast<char>(image[8] + 1);
  const std::uint32_t crc = Crc32c(std::string_view(image.data(), 60));
  image[60] = static_cast<char>(crc);
  image[61] = static_cast<char>(crc >> 8);
  image[62] = static_cast<char>(crc >> 16);
  image[63] = static_cast<char>(crc >> 24);
  auto loaded = TreeFromSnapshotImage(
      std::make_shared<const std::string>(image));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos);
}

TEST(SnapshotValidation, MissingFileIsNotFound) {
  auto loaded = LoadTreeSnapshot(TempPath("missing"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotValidation, FailuresAreCounted) {
  const std::int64_t before =
      CounterValue("treewalk_snapshot_load_failures_total");
  (void)TreeFromSnapshotImage(
      std::make_shared<const std::string>("definitely not a snapshot"));
  EXPECT_EQ(CounterValue("treewalk_snapshot_load_failures_total"),
            before + 1);
}

TEST(SnapshotGovernor, ChargesAndReleasesMappedBytes) {
  const Tree original = RandomInput(128, 3);
  const std::string path = TempPath("gov");
  auto written = WriteTreeSnapshot(original, path);
  ASSERT_TRUE(written.ok());

  ResourceGovernor governor;
  governor.set_memory_budget(std::int64_t{1} << 30);
  {
    auto loaded = LoadTreeSnapshot(path, &governor);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(governor.accountant()->used(MemoryCategory::kMappedSnapshot),
              static_cast<std::int64_t>(written->file_bytes));
    Tree copy = *loaded;  // shares the mapping; no double release later
    ExpectTreesEqual(original, copy);
  }
  EXPECT_EQ(governor.accountant()->used(MemoryCategory::kMappedSnapshot), 0);
  EXPECT_EQ(governor.accountant()->peak(MemoryCategory::kMappedSnapshot),
            static_cast<std::int64_t>(written->file_bytes));
  std::remove(path.c_str());
}

TEST(SnapshotGovernor, DelimitedLoadChargesTheWholeMappingToo) {
  const Tree original = RandomInput(128, 3);
  const std::string path = TempPath("gov_delim");
  auto written = WriteTreeSnapshot(original, path);
  ASSERT_TRUE(written.ok());

  ResourceGovernor governor;
  governor.set_memory_budget(std::int64_t{1} << 30);
  {
    auto loaded = LoadDelimitedSnapshot(path, &governor);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(governor.accountant()->used(MemoryCategory::kMappedSnapshot),
              static_cast<std::int64_t>(written->file_bytes));
  }
  EXPECT_EQ(governor.accountant()->used(MemoryCategory::kMappedSnapshot), 0);

  governor.set_memory_budget(16);
  auto refused = LoadDelimitedSnapshot(path, &governor);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  std::remove(path.c_str());
}

TEST(SnapshotGovernor, BudgetTripRejectsLoad) {
  const Tree original = RandomInput(128, 3);
  const std::string path = TempPath("budget");
  ASSERT_TRUE(WriteTreeSnapshot(original, path).ok());

  ResourceGovernor governor;
  governor.set_memory_budget(16);  // far below the file size
  auto loaded = LoadTreeSnapshot(path, &governor);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(governor.accountant()->used(MemoryCategory::kMappedSnapshot), 0);
  std::remove(path.c_str());
}

TEST(SnapshotFailpoints, InjectedLoadFaultFallsThroughAsStatus) {
  const Tree original = SampleTree();
  const std::string path = TempPath("fp");
  ASSERT_TRUE(WriteTreeSnapshot(original, path).ok());

  FailpointRegistry::Config config;
  config.code = StatusCode::kInternal;
  config.message = "injected";
  FailpointRegistry::Global().Enable("snapshot/load", config);
  const std::int64_t before =
      CounterValue("treewalk_snapshot_load_failures_total");
  auto first = LoadTreeSnapshot(path);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInternal);
  EXPECT_EQ(CounterValue("treewalk_snapshot_load_failures_total"),
            before + 1);
  // The site fires once; the retry succeeds with an identical tree.
  auto second = LoadTreeSnapshot(path);
  ASSERT_TRUE(second.ok());
  ExpectTreesEqual(original, *second);
  // The delim(t) load passes the same site.
  FailpointRegistry::Global().Enable("snapshot/load", config);
  auto delimited = LoadDelimitedSnapshot(path);
  EXPECT_FALSE(delimited.ok());
  EXPECT_EQ(delimited.status().code(), StatusCode::kInternal);
  FailpointRegistry::Global().DisableAll();
  std::remove(path.c_str());
}

TEST(SnapshotInspect, ReportsSectionsAndRejectsGarbage) {
  const Tree original = SampleTree();
  const std::string path = TempPath("inspect");
  ASSERT_TRUE(WriteTreeSnapshot(original, path).ok());
  auto info = InspectTreeSnapshot(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->nodes, original.size());
  ASSERT_EQ(info->sections.size(), 11u);
  for (const auto& sec : info->sections) {
    EXPECT_NE(std::string(SnapshotSectionName(sec.kind)), "?");
  }
  ASSERT_TRUE(WriteFileAtomic(path, "garbage").ok());
  EXPECT_FALSE(InspectTreeSnapshot(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace treewalk
