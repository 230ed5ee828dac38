// libFuzzer harness for the tree-snapshot reader (src/tree/snapshot.h)
// and the selector-cache entry decoder (src/logic/selector_cache.h):
// an arbitrary byte image must decode to a valid tree / selector or a
// clean Status — never a crash, never an out-of-bounds read, never a
// tree whose navigation can walk outside [0, n) or fail to terminate.
// Every image is decoded both as t and as delim(t), and whatever
// decodes is walked.
//
// The decoded-tree walk below exercises exactly the O(1) accessors plus
// Depth() (the parent-chain loop whose termination the validator's
// parent < u invariant guarantees); anything heavier belongs in the
// deterministic tests, not the fuzz loop.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/logic/selector_cache.h"
#include "src/tree/snapshot.h"
#include "src/tree/tree.h"

namespace {

void CheckNode(const treewalk::Tree& t, treewalk::NodeId u) {
  const auto n = static_cast<treewalk::NodeId>(t.size());
  auto in_range = [n](treewalk::NodeId v) {
    return v == treewalk::kNoNode || (v >= 0 && v < n);
  };
  if (!in_range(t.Parent(u)) || !in_range(t.FirstChild(u)) ||
      !in_range(t.LastChild(u)) || !in_range(t.NextSibling(u)) ||
      !in_range(t.PrevSibling(u))) {
    __builtin_trap();
  }
  if (t.SubtreeEnd(u) < u + 1 || t.SubtreeEnd(u) > n) __builtin_trap();
  if (t.Depth(u) > static_cast<int>(t.size())) __builtin_trap();
  (void)t.LabelName(t.label(u));
  for (treewalk::AttrId a = 0;
       a < static_cast<treewalk::AttrId>(t.num_attributes()); ++a) {
    (void)t.attr(a, u);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  auto image = std::make_shared<const std::string>(
      reinterpret_cast<const char*>(data), size);

  treewalk::SnapshotInfo info;
  auto tree = treewalk::TreeFromSnapshotImage(image, &info);
  if (tree.ok() && tree->size() != info.nodes) __builtin_trap();
  treewalk::SnapshotInfo delimited_info;
  auto delimited =
      treewalk::DelimitedTreeFromSnapshotImage(image, &delimited_info);
  if (delimited.ok() && delimited->empty() != (delimited_info.nodes == 0)) {
    __builtin_trap();
  }
  for (const auto* decoded : {&tree, &delimited}) {
    if (!decoded->ok()) continue;
    const treewalk::Tree& t = decoded->value();
    for (treewalk::NodeId u = 0; u < static_cast<treewalk::NodeId>(t.size());
         ++u) {
      CheckNode(t, u);
    }
    if (!t.empty() && t.snapshot_postorder() == nullptr) __builtin_trap();
  }

  // The same bytes double as a selector-cache entry input.
  auto selector = treewalk::DecodeSelectorCacheEntry(*image, nullptr);
  if (selector.ok() && selector->tree_size() > 0) {
    (void)selector->SelectFrom(0);
    (void)selector->RetainedBytes();
  }
  return 0;
}
