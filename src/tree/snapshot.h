#ifndef TREEWALK_TREE_SNAPSHOT_H_
#define TREEWALK_TREE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/tree/tree.h"

namespace treewalk {

/// Versioned, CRC-checked, mmap-able on-disk tree snapshots
/// ("TWSNAP01"; format layout and invalidation rules in
/// docs/SNAPSHOT.md).  A snapshot persists the arena exactly as the
/// evaluator consumes it — raw node records, interned label/attr/value
/// pools, attribute columns, and the post-order ranks AxisIndex would
/// otherwise recompute — so loading is zero-parse: the node records and
/// attribute columns are *viewed in place* in the mapped file (the Tree
/// holds the mapping alive), only the tiny string pools are rebuilt.
///
/// Robustness contract: a truncated, bit-flipped, or foreign file loads
/// as a clean non-OK Status, never a crash and never a silently wrong
/// tree — every section is CRC32C-checked and every node record is
/// bounds-validated before a view is handed out (the snapshot fuzz
/// harness and tests/snapshot_test.cc hold this line).  A caller that
/// still has the source can re-parse it on any load error.

inline constexpr char kSnapshotMagic[8] = {'T', 'W', 'S', 'N', 'A', 'P',
                                           '0', '1'};
/// v2 added the tree-stats section (planner statistics preloaded at
/// load time); v1 files are rejected and callers fall back to parsing.
inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::size_t kSnapshotHeaderBytes = 64;

/// One section-table entry, surfaced by inspect.
struct SnapshotSectionInfo {
  std::uint32_t kind = 0;
  std::uint32_t crc = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// "nodes", "label-pool", ... ("?" for an unknown kind).
const char* SnapshotSectionName(std::uint32_t kind);

struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint64_t nodes = 0;
  std::uint64_t labels = 0;
  std::uint64_t attrs = 0;
  std::uint64_t values = 0;
  /// FNV-1a 64 over the shape/label/attribute payload; the tree half of
  /// a selector-cache key (src/logic/selector_cache.h).
  std::uint64_t content_hash = 0;
  std::uint64_t file_bytes = 0;
  std::vector<SnapshotSectionInfo> sections;
};

/// Content hash of a live tree: equals the content_hash recorded in a
/// snapshot of it (and survives a snapshot round trip).  O(n).
std::uint64_t TreeContentHash(const Tree& tree);

/// Serializes `tree` to an in-memory snapshot image (tests, fuzzing).
std::string EncodeTreeSnapshot(const Tree& tree);

/// Writes a snapshot of `tree` at `path` via the atomic tmp+rename
/// discipline: a crash or injected fault leaves the old file or the
/// complete new one, never a torn snapshot.
Result<SnapshotInfo> WriteTreeSnapshot(const Tree& tree,
                                       const std::string& path);

/// Validates `image` and returns a Tree whose node records and
/// attribute columns alias the image's bytes (`image` is retained by
/// the Tree; no copies).  The zero-copy core of LoadTreeSnapshot, split
/// out so tests and the fuzz harness can drive it on arbitrary bytes.
Result<Tree> TreeFromSnapshotImage(std::shared_ptr<const std::string> image,
                                   SnapshotInfo* info = nullptr);

/// mmaps the snapshot at `path`, validates it, and returns the
/// zero-copy Tree.  The mapped region is charged to `governor` (when
/// given) under MemoryCategory::kMappedSnapshot and released when the
/// last Tree sharing the mapping dies — the governor must outlive those
/// trees.  Failpoint: snapshot/load.
Result<Tree> LoadTreeSnapshot(const std::string& path,
                              ResourceGovernor* governor = nullptr,
                              SnapshotInfo* info = nullptr);

/// Reads and validates `path`, returning header/section metadata
/// without keeping the tree (`twq snapshot inspect`).
Result<SnapshotInfo> InspectTreeSnapshot(const std::string& path);

}  // namespace treewalk

#endif  // TREEWALK_TREE_SNAPSHOT_H_
