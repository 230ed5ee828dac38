// ResidentTreeCache (src/engine/input_cache.h): one byte-capped,
// immutable corpus generation — what makes `twq serve` safe to point at
// a corpus larger than RAM.  Covered here: admission in load order up to
// the cap, accountant-charged occupancy and its gauges, refusal of
// entries larger than the whole cap, load-failure propagation, the
// never-loading Lookup() hot path, and entries mapped from a snapshot's
// delim(t) sections.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/engine/input_cache.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"
#include "src/tree/tree.h"

namespace treewalk {
namespace {

using Loaded = ResidentTreeCache::Loaded;

Result<Loaded> SmallTree() {
  return ResidentTreeCache::DelimitSource(ParseTerm("a(b(c), d[x=1])"));
}

// A cache sized to hold `n` copies of SmallTree() (delimited), with a
// little slack but not enough for n + 1.
std::int64_t CapacityFor(int n) {
  std::int64_t per =
      ResidentTreeCache::ApproxTreeBytes(SmallTree().value().delimited);
  return per * n + per / 2;
}

TEST(ResidentTreeCache, GetOrLoadCachesAndLookupNeverLoads) {
  ResidentTreeCache cache(0);  // unlimited
  int loads = 0;
  auto load = [&loads]() {
    ++loads;
    return SmallTree();
  };
  auto first = cache.GetOrLoad("t", load);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(loads, 1);
  EXPECT_EQ((*first)->name, "t");
  EXPECT_GT((*first)->source_nodes, 0u);
  EXPECT_GT((*first)->delimited.size(), (*first)->source_nodes);  // delimiters

  // A hit neither loads nor copies: same underlying entry.
  auto second = cache.GetOrLoad("t", load);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(first->get(), second->get());

  // Lookup serves the resident entry and refuses to load a missing one.
  EXPECT_EQ(cache.Lookup("t").get(), first->get());
  EXPECT_EQ(cache.Lookup("missing"), nullptr);
  EXPECT_EQ(loads, 1);

  EXPECT_EQ(cache.resident_trees(), 1);
  EXPECT_GT(cache.resident_bytes(), 0);
}

TEST(ResidentTreeCache, LoadFailuresPropagateAndCacheNothing) {
  ResidentTreeCache cache(0);
  auto failed = cache.GetOrLoad(
      "bad", []() -> Result<Loaded> { return InvalidArgument("no such tree"); });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.resident_trees(), 0);
  EXPECT_EQ(cache.resident_bytes(), 0);
  EXPECT_EQ(cache.Lookup("bad"), nullptr);
}

TEST(ResidentTreeCache, KeepsWhatFitsAndRefusesTheRest) {
  MetricsRegistry::Global().ResetForTest();
  ResidentTreeCache cache(CapacityFor(2));
  ASSERT_TRUE(cache.GetOrLoad("a", SmallTree).ok());
  ASSERT_TRUE(cache.GetOrLoad("b", SmallTree).ok());
  auto refused = cache.GetOrLoad("c", SmallTree);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("resident-tree"),
            std::string::npos)
      << refused.status();

  // Every admitted tree stays answerable; the refused one never was.
  EXPECT_EQ(cache.resident_trees(), 2);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.Lookup("c"), nullptr);
  EXPECT_LE(cache.resident_bytes(), cache.capacity_bytes());

  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.Value("treewalk_input_cache_resident_trees"), 2);
  EXPECT_EQ(snap.Value("treewalk_input_cache_resident_bytes"),
            cache.resident_bytes());
}

TEST(ResidentTreeCache, RefusesASingleTreeLargerThanTheWholeCap) {
  ResidentTreeCache cache(1024);  // far below any real tree's charge
  auto result = cache.GetOrLoad("huge", [] {
    return ResidentTreeCache::DelimitSource(FullTree(2, 10));
  });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // Nothing was admitted.
  EXPECT_EQ(cache.resident_trees(), 0);
  EXPECT_EQ(cache.resident_bytes(), 0);
}

TEST(ResidentTreeCache, ApproxBytesGrowsWithTreeSize) {
  Tree small = std::move(Delimit(FullTree(2, 3)).tree);
  Tree large = std::move(Delimit(FullTree(2, 8)).tree);
  EXPECT_GT(ResidentTreeCache::ApproxTreeBytes(large),
            ResidentTreeCache::ApproxTreeBytes(small));
  EXPECT_GT(ResidentTreeCache::ApproxTreeBytes(small), 0);
}

TEST(ResidentTreeCache, EmptyTreeIsRejected) {
  ResidentTreeCache cache(0);
  auto result = cache.GetOrLoad(
      "empty", [] { return ResidentTreeCache::DelimitSource(Tree()); });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(cache.resident_trees(), 0);
}

// A loader may hand over a snapshot's mapped delim(t) with |t| from the
// header: the entry is charged and answers exactly like the parsed and
// delimited one.
TEST(ResidentTreeCache, MappedSnapshotEntryMatchesTheDelimitedOne) {
  const Tree t = FullTree(3, 5);
  ResidentTreeCache cache(0);
  auto parsed = cache.GetOrLoad(
      "parsed", [&] { return ResidentTreeCache::DelimitSource(t); });
  auto mapped = cache.GetOrLoad("mapped", [&]() -> Result<Loaded> {
    SnapshotInfo info;
    TREEWALK_ASSIGN_OR_RETURN(
        Tree delimited,
        DelimitedTreeFromSnapshotImage(
            std::make_shared<const std::string>(EncodeTreeSnapshot(t)),
            &info));
    return Loaded{std::move(delimited), static_cast<std::size_t>(info.nodes)};
  });
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ((*mapped)->source_nodes, t.size());
  EXPECT_EQ((*mapped)->delimited.size(), (*parsed)->delimited.size());
  EXPECT_EQ((*mapped)->approx_bytes, (*parsed)->approx_bytes);
  EXPECT_EQ(PrintTerm((*mapped)->delimited), PrintTerm((*parsed)->delimited));
  EXPECT_NE((*mapped)->delimited.snapshot_postorder(), nullptr);
}

}  // namespace
}  // namespace treewalk
