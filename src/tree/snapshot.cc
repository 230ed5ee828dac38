#include "src/tree/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/crc32c.h"
#include "src/common/failpoint.h"
#include "src/common/metrics.h"
#include "src/tree/delimited.h"
#include "src/tree/traversal.h"
#include "src/tree/tree_stats.h"

namespace treewalk {
namespace {

// Section kinds.  docs/SNAPSHOT.md is the normative description; keep
// the two in sync.  Kinds 1-7 describe t, kinds 8-11 describe delim(t)
// (Section 3), which shares t's attribute-name and value pools.
constexpr std::uint32_t kSecNodes = 1;      // raw Tree::Node records
constexpr std::uint32_t kSecLabels = 2;     // label interner pool
constexpr std::uint32_t kSecAttrs = 3;      // attribute-name interner pool
constexpr std::uint32_t kSecValues = 4;     // value interner pool
constexpr std::uint32_t kSecColumns = 5;    // attr columns, [attr][node]
constexpr std::uint32_t kSecPostorder = 6;  // post-order rank per node
constexpr std::uint32_t kSecStats = 7;      // whole-tree planner statistics
constexpr std::uint32_t kSecDelimNodes = 8;       // delim(t)'s records
constexpr std::uint32_t kSecDelimLabels = 9;      // delim(t)'s label pool
constexpr std::uint32_t kSecDelimColumns = 10;    // delim(t)'s columns
constexpr std::uint32_t kSecDelimPostorder = 11;  // delim(t)'s ranks
constexpr std::uint32_t kNumSections = 11;

// File order: the shared pools and delim(t)'s sections right after the
// framing, then t's.  A load touches only the sections it views, but
// the kernel maps the cached neighbours of each page it faults in, so
// keeping each tree's sections together keeps the other tree's pages
// out of the loading process's RSS.
constexpr std::array<std::uint32_t, kNumSections> kFileOrder = {
    kSecAttrs,        kSecValues,       kSecDelimLabels, kSecDelimNodes,
    kSecDelimColumns, kSecDelimPostorder, kSecLabels,    kSecNodes,
    kSecColumns,      kSecPostorder,    kSecStats};

constexpr std::size_t kSectionEntryBytes = 24;
constexpr std::size_t kTableBytes = kNumSections * kSectionEntryBytes;
// Header, section table, and the table's own CRC32C.
constexpr std::size_t kFramingBytes = kSnapshotHeaderBytes + kTableBytes + 4;
constexpr std::uint32_t kFlagLittleEndian = 1;

// Caps on header counts, checked before any multiplication so section
// size arithmetic cannot overflow (2^31 nodes * 2^20 attrs * 8 bytes
// still fits u64 with room to spare).
constexpr std::uint64_t kMaxNodes =
    static_cast<std::uint64_t>(std::numeric_limits<NodeId>::max());
constexpr std::uint64_t kMaxPoolEntries = std::uint64_t{1} << 20;

// Four 32-bit lanes, through the GCC/Clang vector extensions: SSE2 on
// x86-64 and NEON on aarch64, with no target attribute and no runtime
// dispatch.  A comparison yields -1 (all ones) in each lane where it
// holds and 0 elsewhere.
typedef std::uint32_t U32x4 __attribute__((vector_size(16)));
typedef std::int32_t I32x4 __attribute__((vector_size(16)));
typedef std::uint64_t U64x2 __attribute__((vector_size(16)));

U32x4 LoadU32x4(const char* p) {
  U32x4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Whether any lane of `v` is non-zero.
bool AnyLane(U32x4 v) {
  const auto halves = reinterpret_cast<U64x2>(v);
  return (halves[0] | halves[1]) != 0;
}

/// The sections one tree view of an image reads: t's or delim(t)'s.
struct Arena {
  std::uint32_t nodes;
  std::uint32_t labels;
  std::uint32_t columns;
  std::uint32_t postorder;
};
constexpr Arena kSourceArena = {kSecNodes, kSecLabels, kSecColumns,
                                kSecPostorder};
constexpr Arena kDelimitedArena = {kSecDelimNodes, kSecDelimLabels,
                                   kSecDelimColumns, kSecDelimPostorder};

std::size_t AlignUp8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

std::string_view RawView(const void* base, std::size_t bytes) {
  return {static_cast<const char*>(base), bytes};
}

// Pool encoding: u64 count | u32 length per entry | entry bytes.
std::string EncodePoolStrings(std::size_t count,
                              const std::function<std::string(std::int64_t)>&
                                  name_at) {
  std::string out;
  PutU64Le(count, out);
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    names.push_back(name_at(static_cast<std::int64_t>(i)));
    PutU32Le(static_cast<std::uint32_t>(names.back().size()), out);
  }
  for (const std::string& name : names) out += name;
  return out;
}

Result<std::vector<std::string>> DecodePool(std::string_view sec,
                                            const char* what) {
  const std::string err = std::string("snapshot ") + what + " pool corrupt";
  if (sec.size() < 8) return InvalidArgument(err);
  const std::uint64_t count = GetU64Le(sec, 0);
  if (count > kMaxPoolEntries || (sec.size() - 8) / 4 < count) {
    return InvalidArgument(err);
  }
  std::size_t at = 8 + static_cast<std::size_t>(count) * 4;
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t len = GetU32Le(sec, 8 + static_cast<std::size_t>(i) * 4);
    if (len > sec.size() - at) return InvalidArgument(err);
    out.emplace_back(sec.substr(at, len));
    at += len;
  }
  if (at != sec.size()) return InvalidArgument(err);
  return out;
}

struct SnapshotMetrics {
  Counter* loads;
  Counter* load_failures;
  Counter* writes;

  static SnapshotMetrics& Get() {
    static SnapshotMetrics m{
        MetricsRegistry::Global().FindOrCreateCounter(
            "treewalk_snapshot_loads_total",
            "Tree snapshots loaded (mmap or image) successfully"),
        MetricsRegistry::Global().FindOrCreateCounter(
            "treewalk_snapshot_load_failures_total",
            "Snapshot loads rejected (missing, truncated, corrupt, or "
            "injected fault); callers fall back to parsing"),
        MetricsRegistry::Global().FindOrCreateCounter(
            "treewalk_snapshot_writes_total",
            "Tree snapshots written via the atomic tmp+rename path"),
    };
    return m;
  }
};

}  // namespace

const char* SnapshotSectionName(std::uint32_t kind) {
  switch (kind) {
    case kSecNodes:
      return "nodes";
    case kSecLabels:
      return "label-pool";
    case kSecAttrs:
      return "attr-pool";
    case kSecValues:
      return "value-pool";
    case kSecColumns:
      return "attr-columns";
    case kSecPostorder:
      return "postorder-ranks";
    case kSecStats:
      return "tree-stats";
    case kSecDelimNodes:
      return "delim-nodes";
    case kSecDelimLabels:
      return "delim-label-pool";
    case kSecDelimColumns:
      return "delim-attr-columns";
    case kSecDelimPostorder:
      return "delim-postorder-ranks";
    default:
      return "?";
  }
}

/// Friend of Tree (tree.h): the only code that sees Node's raw layout on
/// both sides of the disk boundary.
class SnapshotCodec {
 public:
  static std::uint64_t ContentHash(const Tree& tree) {
    // Node records are persisted as raw bytes, so the record layout is
    // part of the format; any change here must bump kSnapshotVersion.
    static_assert(std::is_trivially_copyable_v<Tree::Node>);
    static_assert(sizeof(Tree::Node) == 40,
                  "Tree::Node layout changed: bump kSnapshotVersion");
    static_assert(offsetof(Tree::Node, label) == 0);
    static_assert(offsetof(Tree::Node, parent) == 8);
    static_assert(offsetof(Tree::Node, subtree_end) == 28);
    static_assert(offsetof(Tree::Node, num_children) == 36);
    static_assert(sizeof(DataValue) == 8);

    const std::size_t n = tree.node_count_;
    // FNV is byte-serial, so chaining over the section payloads equals
    // hashing their concatenation; no buffers are materialized for the
    // two big sections.
    std::uint64_t h = Fnv1a64(std::string_view(kSnapshotMagic, 8));
    h = Fnv1a64(NodesView(tree), h);
    h = Fnv1a64(EncodeLabelPool(tree), h);
    h = Fnv1a64(EncodeAttrPool(tree), h);
    h = Fnv1a64(EncodeValuePool(tree), h);
    if (n > 0) {
      for (const DataValue* column : tree.attr_views_) {
        h = Fnv1a64(RawView(column, n * sizeof(DataValue)), h);
      }
    }
    return h;
  }

  /// The snapshot image of t and delim(t) as byte ranges in file order
  /// — framing, then each section and its zero padding — and the
  /// storage the ranges point into.  Sections are written straight from
  /// the trees, never staged in an image buffer.  Not copyable:
  /// `pieces` points into its members.
  struct Image {
    Image() = default;
    Image(const Image&) = delete;
    Image& operator=(const Image&) = delete;

    DelimitedTree delimited;
    std::vector<NodeId> postorder;
    std::vector<NodeId> delim_postorder;
    std::string labels, attrs, values, stats, delim_labels, framing;
    std::vector<std::string_view> pieces;
    SnapshotInfo info;
  };

  static void Encode(const Tree& tree, Image& image) {
    const std::size_t n = tree.node_count_;
    // delim(t) is computed once, here, so a load never re-delimits.  Its
    // post-order ranks come from the order Delimit() closes the nodes,
    // and it carries no content hash or stats of its own.  An empty tree
    // has no delim(t): its four sections stay empty.
    if (n > 0) image.delimited = Delimit(tree, &image.delim_postorder);
    const Tree& d = image.delimited.tree;

    image.labels = EncodeLabelPool(tree);
    image.attrs = EncodeAttrPool(tree);
    image.values = EncodeValuePool(tree);
    image.stats = EncodeStats(tree);
    image.delim_labels = EncodeLabelPool(d);
    std::array<std::vector<std::string_view>, kNumSections> sections;
    sections[kSecNodes - 1] = {NodesView(tree)};
    sections[kSecLabels - 1] = {image.labels};
    sections[kSecAttrs - 1] = {image.attrs};
    sections[kSecValues - 1] = {image.values};
    sections[kSecColumns - 1] = ColumnViews(tree);
    sections[kSecPostorder - 1] = {PostorderView(tree, image.postorder)};
    sections[kSecStats - 1] = {image.stats};
    sections[kSecDelimNodes - 1] = {NodesView(d)};
    sections[kSecDelimLabels - 1] = {image.delim_labels};
    sections[kSecDelimColumns - 1] = ColumnViews(d);
    sections[kSecDelimPostorder - 1] = {
        RawView(image.delim_postorder.data(),
                image.delim_postorder.size() * sizeof(NodeId))};

    static constexpr char kZeros[8] = {};
    std::array<SnapshotSectionInfo, kNumSections> entries{};
    image.pieces.assign(1, std::string_view());  // the framing, below
    std::size_t off = kFramingBytes;
    for (const std::uint32_t kind : kFileOrder) {
      const std::size_t aligned = AlignUp8(off);
      if (aligned > off) image.pieces.emplace_back(kZeros, aligned - off);
      off = aligned;
      SnapshotSectionInfo& e = entries[kind - 1];
      e.kind = kind;
      e.offset = off;
      for (std::string_view piece : sections[kind - 1]) {
        e.crc = Crc32cExtend(e.crc, piece);
        e.length += piece.size();
        image.pieces.push_back(piece);
      }
      off += static_cast<std::size_t>(e.length);
    }

    const std::uint64_t content_hash = ContentHash(tree);
    std::string& framing = image.framing;
    framing.reserve(kFramingBytes);
    framing.append(kSnapshotMagic, sizeof(kSnapshotMagic));
    PutU32Le(kSnapshotVersion, framing);
    PutU32Le(kNumSections, framing);
    PutU64Le(n, framing);
    PutU64Le(tree.labels_.size(), framing);
    PutU64Le(tree.attr_views_.size(), framing);
    PutU64Le(tree.values_->size(), framing);
    PutU64Le(content_hash, framing);
    PutU32Le(kFlagLittleEndian, framing);
    PutU32Le(Crc32c(framing), framing);  // header CRC over the first 60 bytes
    for (const SnapshotSectionInfo& e : entries) {
      PutU32Le(e.kind, framing);
      PutU32Le(e.crc, framing);
      PutU64Le(e.offset, framing);
      PutU64Le(e.length, framing);
    }
    PutU32Le(Crc32c(std::string_view(framing).substr(kSnapshotHeaderBytes)),
             framing);
    image.pieces[0] = framing;

    SnapshotInfo& info = image.info;
    info.version = kSnapshotVersion;
    info.nodes = n;
    info.labels = tree.labels_.size();
    info.attrs = tree.attr_views_.size();
    info.values = tree.values_->size();
    info.content_hash = content_hash;
    info.file_bytes = off;
    info.sections.assign(entries.begin(), entries.end());
  }

  /// t: sections 1-7.
  static Result<Tree> Decode(std::shared_ptr<const void> owner,
                             std::string_view bytes, SnapshotInfo* info) {
    TREEWALK_ASSIGN_OR_RETURN(const Layout layout,
                              ReadLayout(bytes, bytes.size()));
    TREEWALK_ASSIGN_OR_RETURN(
        Tree tree, DecodeArena(bytes, layout, kSourceArena, layout.node_count,
                               layout.label_count));
    TREEWALK_ASSIGN_OR_RETURN(tree.snapshot_stats_,
                              DecodeStats(bytes, layout));
    tree.mapping_ = std::move(owner);
    layout.Report(bytes.size(), info);
    return tree;
  }

  /// Checks the framing `bytes` of a snapshot file of `file_bytes`.
  static Status CheckFraming(std::string_view bytes,
                             std::uint64_t file_bytes) {
    return ReadLayout(bytes, file_bytes).status();
  }

  /// delim(t): sections 3, 4 and 8-11.  Its node count is its node
  /// section's length and its label count its pool's own count; the
  /// header's counts are t's.
  static Result<Tree> DecodeDelimited(std::shared_ptr<const void> owner,
                                      std::string_view bytes,
                                      SnapshotInfo* info) {
    TREEWALK_ASSIGN_OR_RETURN(const Layout layout,
                              ReadLayout(bytes, bytes.size()));
    const std::uint64_t node_bytes = layout.secs[kSecDelimNodes - 1].length;
    const std::uint64_t delim_nodes = node_bytes / sizeof(Tree::Node);
    // delim(t) of a t with n nodes, l of them leaves, has 3 + 3n - l
    // nodes, and 1 <= l <= n unless t is empty.
    const std::uint64_t n = layout.node_count;
    if (node_bytes % sizeof(Tree::Node) != 0 || delim_nodes > kMaxNodes ||
        (n == 0 ? delim_nodes != 0
                : (delim_nodes < 2 * n + 3 || delim_nodes > 3 * n + 2))) {
      return InvalidArgument("snapshot delim(t) size disagrees with header");
    }
    TREEWALK_ASSIGN_OR_RETURN(
        Tree tree,
        DecodeArena(bytes, layout, kDelimitedArena,
                    static_cast<std::size_t>(delim_nodes), std::nullopt));
    tree.mapping_ = std::move(owner);
    layout.Report(bytes.size(), info);
    return tree;
  }

 private:
  /// Header and section table, checked before any section is trusted.
  struct Layout {
    std::uint32_t version = 0;
    std::uint64_t node_count = 0;
    std::uint64_t label_count = 0;
    std::uint64_t attr_count = 0;
    std::uint64_t value_count = 0;
    std::uint64_t content_hash = 0;
    std::array<SnapshotSectionInfo, kNumSections> secs{};

    void Report(std::size_t file_bytes, SnapshotInfo* info) const {
      if (info == nullptr) return;
      info->version = version;
      info->nodes = node_count;
      info->labels = label_count;
      info->attrs = attr_count;
      info->values = value_count;
      info->content_hash = content_hash;
      info->file_bytes = file_bytes;
      info->sections.assign(secs.begin(), secs.end());
    }
  };

  /// Validates magic, header CRC, version, counts against hard caps, and
  /// the section table: its CRC, one entry per kind, each aligned and
  /// within the file's `file_bytes`.  Reads no section bytes, so `bytes`
  /// need hold no more than the framing.
  static Result<Layout> ReadLayout(std::string_view bytes,
                                   std::uint64_t file_bytes) {
    if (std::endian::native != std::endian::little) {
      return InvalidArgument("snapshot loading requires a little-endian host");
    }
    if (reinterpret_cast<std::uintptr_t>(bytes.data()) % 8 != 0) {
      return InvalidArgument("snapshot image base is not 8-byte aligned");
    }
    if (bytes.size() < kFramingBytes) {
      return InvalidArgument("snapshot truncated: no room for header");
    }
    if (bytes.substr(0, 8) != std::string_view(kSnapshotMagic, 8)) {
      return InvalidArgument("not a tree snapshot (bad magic)");
    }
    // Header CRC before trusting any header field.
    if (GetU32Le(bytes, 60) != Crc32c(bytes.substr(0, 60))) {
      return InvalidArgument("snapshot header CRC mismatch");
    }
    Layout layout;
    layout.version = GetU32Le(bytes, 8);
    if (layout.version != kSnapshotVersion) {
      return InvalidArgument("unsupported snapshot version " +
                             std::to_string(layout.version));
    }
    if (GetU32Le(bytes, 12) != kNumSections) {
      return InvalidArgument("snapshot section count mismatch");
    }
    layout.node_count = GetU64Le(bytes, 16);
    layout.label_count = GetU64Le(bytes, 24);
    layout.attr_count = GetU64Le(bytes, 32);
    layout.value_count = GetU64Le(bytes, 40);
    layout.content_hash = GetU64Le(bytes, 48);
    if ((GetU32Le(bytes, 56) & kFlagLittleEndian) == 0) {
      return InvalidArgument("snapshot written on a big-endian host");
    }
    if (layout.node_count > kMaxNodes || layout.label_count > kMaxPoolEntries ||
        layout.attr_count > kMaxPoolEntries ||
        layout.value_count > kMaxPoolEntries) {
      return InvalidArgument("snapshot header counts are implausible");
    }

    // Section table: CRC-clean, one entry per kind, in bounds, aligned.
    if (GetU32Le(bytes, kSnapshotHeaderBytes + kTableBytes) !=
        Crc32c(bytes.substr(kSnapshotHeaderBytes, kTableBytes))) {
      return InvalidArgument("snapshot section table CRC mismatch");
    }
    std::array<bool, kNumSections + 1> seen{};
    for (std::uint32_t i = 0; i < kNumSections; ++i) {
      const std::size_t at = kSnapshotHeaderBytes + i * kSectionEntryBytes;
      SnapshotSectionInfo e;
      e.kind = GetU32Le(bytes, at);
      e.crc = GetU32Le(bytes, at + 4);
      e.offset = GetU64Le(bytes, at + 8);
      e.length = GetU64Le(bytes, at + 16);
      if (e.kind < 1 || e.kind > kNumSections || seen[e.kind]) {
        return InvalidArgument("snapshot section table corrupt");
      }
      if (e.offset % 8 != 0 || e.offset > file_bytes ||
          e.length > file_bytes - e.offset) {
        return InvalidArgument(std::string("snapshot section ") +
                               SnapshotSectionName(e.kind) +
                               " out of bounds (truncated?)");
      }
      seen[e.kind] = true;
      layout.secs[e.kind - 1] = e;
    }
    return layout;
  }

  /// Section `kind` of the image, once its CRC matches.
  static Result<std::string_view> Section(std::string_view bytes,
                                          const Layout& layout,
                                          std::uint32_t kind) {
    const SnapshotSectionInfo& e = layout.secs[kind - 1];
    const std::string_view sec =
        bytes.substr(static_cast<std::size_t>(e.offset),
                     static_cast<std::size_t>(e.length));
    if (Crc32c(sec) != e.crc) {
      return InvalidArgument(std::string("snapshot section ") +
                             SnapshotSectionName(kind) + " CRC mismatch");
    }
    return sec;
  }

  /// The tree `arena` describes, with `n` nodes: its node records, label
  /// pool, attribute columns and post-order ranks, plus the shared
  /// attribute-name and value pools.  Each of those six sections is
  /// CRC-checked and validated before a view into it is handed out;
  /// no other section is read.  `label_count`, when given, is the count
  /// the label pool must have.
  static Result<Tree> DecodeArena(std::string_view bytes, const Layout& layout,
                                  const Arena& arena, std::size_t n,
                                  std::optional<std::uint64_t> label_count) {
    TREEWALK_ASSIGN_OR_RETURN(const std::string_view node_sec,
                              Section(bytes, layout, arena.nodes));
    TREEWALK_ASSIGN_OR_RETURN(const std::string_view label_sec,
                              Section(bytes, layout, arena.labels));
    TREEWALK_ASSIGN_OR_RETURN(const std::string_view attr_sec,
                              Section(bytes, layout, kSecAttrs));
    TREEWALK_ASSIGN_OR_RETURN(const std::string_view value_sec,
                              Section(bytes, layout, kSecValues));
    TREEWALK_ASSIGN_OR_RETURN(const std::string_view column_sec,
                              Section(bytes, layout, arena.columns));
    TREEWALK_ASSIGN_OR_RETURN(const std::string_view postorder_sec,
                              Section(bytes, layout, arena.postorder));
    const std::uint64_t attr_count = layout.attr_count;
    if (node_sec.size() != n * sizeof(Tree::Node) ||
        column_sec.size() != attr_count * n * sizeof(DataValue) ||
        postorder_sec.size() != n * sizeof(NodeId)) {
      return InvalidArgument("snapshot section sizes disagree with header");
    }

    Tree tree;
    TREEWALK_ASSIGN_OR_RETURN(std::vector<std::string> labels,
                              DecodePool(label_sec, "label"));
    if (label_count.has_value() && labels.size() != *label_count) {
      return InvalidArgument("snapshot label pool corrupt");
    }
    for (std::size_t i = 0; i < labels.size(); ++i) {
      // A fresh interner assigns handles densely from 0, so interning
      // the pool in order reproduces every persisted handle; a repeat
      // (impossible for writer output) would silently renumber.
      if (tree.labels_.Intern(labels[i]) != static_cast<std::int64_t>(i)) {
        return InvalidArgument("snapshot label pool has duplicates");
      }
    }
    TREEWALK_ASSIGN_OR_RETURN(std::vector<std::string> attrs,
                              DecodePool(attr_sec, "attribute"));
    if (attrs.size() != attr_count) {
      return InvalidArgument("snapshot attribute pool corrupt");
    }
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      if (tree.attrs_.Intern(attrs[i]) != static_cast<std::int64_t>(i)) {
        return InvalidArgument("snapshot attribute pool has duplicates");
      }
    }
    TREEWALK_ASSIGN_OR_RETURN(std::vector<std::string> values,
                              DecodePool(value_sec, "value"));
    if (values.size() != layout.value_count) {
      return InvalidArgument("snapshot value pool corrupt");
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (tree.values_->ValueFor(values[i]) !=
          ValueInterner::kStringBase + static_cast<DataValue>(i)) {
        return InvalidArgument("snapshot value pool has duplicates");
      }
    }

    const auto* nodes =
        n > 0 ? reinterpret_cast<const Tree::Node*>(node_sec.data()) : nullptr;
    const std::size_t bad_record = FirstInvalidRecord(
        node_sec.data(), n, static_cast<std::uint32_t>(labels.size()));
    if (bad_record < n) {
      return InvalidArgument("snapshot node record " +
                             std::to_string(bad_record) + " fails validation");
    }
    if (!RanksInRange(postorder_sec.data(), n)) {
      return InvalidArgument("snapshot post-order rank out of range");
    }
    const auto* postorder =
        n > 0 ? reinterpret_cast<const NodeId*>(postorder_sec.data())
              : nullptr;

    tree.node_count_ = n;
    tree.nodes_view_ = nodes;
    tree.postorder_view_ = postorder;
    tree.attr_values_.resize(static_cast<std::size_t>(attr_count));
    tree.attr_views_.reserve(static_cast<std::size_t>(attr_count));
    for (std::uint64_t a = 0; a < attr_count; ++a) {
      tree.attr_views_.push_back(reinterpret_cast<const DataValue*>(
          column_sec.data() + static_cast<std::size_t>(a) * n * sizeof(DataValue)));
    }
    return tree;
  }

  /// The rule one 32-bit word of a node record obeys before a Tree may
  /// view the record.  At record `u` the word lies in [lo, lo + span)
  /// as an unsigned difference, with lo = lo0 + lo_u·u and
  /// span = span0 + span_u·u (all mod 2^32), or it is kNoNode where
  /// `no_node` allows.
  struct WordRule {
    enum NoNode { kNever, kAlways, kAtRoot };
    std::uint32_t lo0;
    std::uint32_t lo_u;
    std::uint32_t span0;
    std::uint32_t span_u;
    NoNode no_node;
  };
  static constexpr std::size_t kRecordWords = sizeof(Tree::Node) / 4;

  /// The rules for each word of a record of a tree with `n` nodes and
  /// `labels` labels.  They make every O(1) accessor memory-safe and
  /// every parent walk terminate (parent < u strictly decreases); they
  /// do not prove full structural consistency — the CRCs, and the
  /// writer being the only producer, cover that.
  static std::array<WordRule, kRecordWords> RecordRules(std::uint32_t n,
                                                        std::uint32_t labels) {
    static_assert(sizeof(Tree::Node) == 40 && sizeof(Symbol) == 8);
    static_assert(offsetof(Tree::Node, parent) == 2 * 4 &&
                  offsetof(Tree::Node, first_child) == 3 * 4 &&
                  offsetof(Tree::Node, last_child) == 4 * 4 &&
                  offsetof(Tree::Node, next_sibling) == 5 * 4 &&
                  offsetof(Tree::Node, prev_sibling) == 6 * 4 &&
                  offsetof(Tree::Node, subtree_end) == 7 * 4 &&
                  offsetof(Tree::Node, child_index) == 8 * 4 &&
                  offsetof(Tree::Node, num_children) == 9 * 4);
    constexpr std::uint32_t kMinusU = ~std::uint32_t{0};  // span_u = -1
    constexpr std::uint32_t kNonNegative = std::uint32_t{1} << 31;
    return {{
        {0, 0, labels, 0, WordRule::kNever},       // label, low word
        {0, 0, 1, 0, WordRule::kNever},            // label, high word: 0
        {0, 0, 0, 1, WordRule::kAtRoot},           // parent: [0, u)
        {1, 1, n - 1, kMinusU, WordRule::kAlways},  // first child: (u, n)
        {1, 1, n - 1, kMinusU, WordRule::kAlways},  // last child: (u, n)
        {1, 1, n - 1, kMinusU, WordRule::kAlways},  // next sibling: (u, n)
        {0, 0, 0, 1, WordRule::kAlways},            // previous sibling: [0, u)
        {1, 1, n, kMinusU, WordRule::kNever},       // subtree end: (u, n]
        {0, 0, kNonNegative, 0, WordRule::kNever},  // child index >= 0
        {0, 0, kNonNegative, 0, WordRule::kNever},  // child count >= 0
    }};
  }

  /// The index of the first of the `n` node records at `records` that
  /// breaks RecordRules, or `n` if none does.  Four records — forty
  /// words, ten vectors — are checked per step.  Vector j of a block
  /// holds words 4j..4j+3, so lane l is field (4j + l) % 10 of the
  /// block's record (4j + l) / 10; lo and span are kept per lane at the
  /// current block and stepped by four records per block.  SSE2 has no
  /// unsigned compare, so both sides of d < span are offset by 2^31 and
  /// compared signed; the offset is folded into lo and span.
  static std::size_t FirstInvalidRecord(const char* records, std::size_t n,
                                        std::uint32_t labels) {
    constexpr std::size_t kBlock = 4;  // records per step
    constexpr std::size_t kVectors = kRecordWords;
    constexpr std::uint32_t kBias = std::uint32_t{1} << 31;
    const std::array<WordRule, kRecordWords> rules =
        RecordRules(static_cast<std::uint32_t>(n), labels);
    U32x4 lo[kVectors], span[kVectors], lo_step[kVectors],
        span_step[kVectors], no_node[kVectors], no_node_first[kVectors];
    for (std::size_t w = 0; w < kBlock * kRecordWords; ++w) {
      const std::size_t j = w / 4;
      const std::size_t lane = w % 4;
      const WordRule& rule = rules[w % kRecordWords];
      const auto r = static_cast<std::uint32_t>(w / kRecordWords);
      lo[j][lane] = rule.lo0 + rule.lo_u * r + kBias;
      span[j][lane] = rule.span0 + rule.span_u * r + kBias;
      lo_step[j][lane] = kBlock * rule.lo_u;
      span_step[j][lane] = kBlock * rule.span_u;
      no_node[j][lane] = rule.no_node == WordRule::kAlways ? ~0u : 0u;
      // The first block holds the root, record 0.
      no_node_first[j][lane] =
          rule.no_node == WordRule::kAlways ||
                  (rule.no_node == WordRule::kAtRoot && r == 0)
              ? ~0u
              : 0u;
    }
    const U32x4 kNo = {~0u, ~0u, ~0u, ~0u};  // kNoNode in every lane
    U32x4 bad[kVectors];
    // Checks the block at `p`, stepping lo and span to the next block;
    // true if a lane of its first `words` words fails.
    auto check = [&](const char* p, const U32x4* allowed, std::size_t words) {
      U32x4 any{};
      for (std::size_t j = 0; j < kVectors; ++j) {
        const U32x4 x = LoadU32x4(p + 16 * j);
        const U32x4 in_range = reinterpret_cast<U32x4>(
            reinterpret_cast<I32x4>(x - lo[j]) <
            reinterpret_cast<I32x4>(span[j]));
        const U32x4 absent = reinterpret_cast<U32x4>(x == kNo) & allowed[j];
        bad[j] = ~(in_range | absent);
        if (words < kBlock * kRecordWords) {
          for (std::size_t lane = 0; lane < 4; ++lane) {
            if (4 * j + lane >= words) bad[j][lane] = 0;
          }
        }
        any |= bad[j];
        lo[j] += lo_step[j];
        span[j] += span_step[j];
      }
      return AnyLane(any);
    };
    auto first_bad = [&](std::size_t base) {
      std::size_t w = 0;
      while (bad[w / 4][w % 4] == 0) ++w;
      return base + w / kRecordWords;
    };
    constexpr std::size_t kBlockBytes = kBlock * sizeof(Tree::Node);
    const std::size_t blocks = n / kBlock;
    for (std::size_t b = 0; b < blocks; ++b) {
      if (check(records + b * kBlockBytes, b == 0 ? no_node_first : no_node,
                kBlock * kRecordWords)) {
        return first_bad(b * kBlock);
      }
    }
    if (const std::size_t rest = n % kBlock; rest > 0) {
      char tail[kBlockBytes] = {};
      std::memcpy(tail, records + blocks * kBlockBytes,
                  rest * sizeof(Tree::Node));
      if (check(tail, blocks == 0 ? no_node_first : no_node,
                rest * kRecordWords)) {
        return first_bad(blocks * kBlock);
      }
    }
    return n;
  }

  /// Whether each of the `n` post-order ranks at `ranks` lies in
  /// [0, n): one branch-free pass, four ranks per step.
  static bool RanksInRange(const char* ranks, std::size_t n) {
    const auto last = static_cast<std::uint32_t>(n) - 1;
    const U32x4 limit = {last, last, last, last};
    U32x4 over{};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      over |= reinterpret_cast<U32x4>(LoadU32x4(ranks + 4 * i) > limit);
    }
    if (i < n) {
      char tail[16] = {};  // rank 0 is in range
      std::memcpy(tail, ranks + 4 * i, 4 * (n - i));
      over |= reinterpret_cast<U32x4>(LoadU32x4(tail) > limit);
    }
    return !AnyLane(over);
  }

  /// Stats section: fixed scalars plus one u64 per label and per
  /// attribute.  Validated against the header counts and basic tree
  /// identities so a corrupt block can never feed the planner nonsense;
  /// any inconsistency rejects the whole snapshot (callers fall back to
  /// parsing, which recomputes stats from scratch).
  static Result<std::shared_ptr<const TreeStats>> DecodeStats(
      std::string_view bytes, const Layout& layout) {
    TREEWALK_ASSIGN_OR_RETURN(const std::string_view sec,
                              Section(bytes, layout, kSecStats));
    const std::uint64_t node_count = layout.node_count;
    const std::uint64_t label_count = layout.label_count;
    const std::uint64_t attr_count = layout.attr_count;
    const std::string err = "snapshot tree-stats section corrupt";
    constexpr std::size_t kScalarBytes = 8 + 7 * 8;
    if (sec.size() != kScalarBytes + 8 +
                          static_cast<std::size_t>(label_count) * 8 + 8 +
                          static_cast<std::size_t>(attr_count) * 8) {
      return InvalidArgument(err);
    }
    if (GetU32Le(sec, 0) != 1) {
      return InvalidArgument("snapshot tree-stats format unsupported");
    }
    auto stats = std::make_shared<TreeStats>();
    stats->nodes = static_cast<std::int64_t>(node_count);
    stats->edges = node_count > 0 ? stats->nodes - 1 : 0;
    // Every persisted count is bounded by the pair count n*(n-1)/2
    // (depth sums, sibling pairs) or by n itself; n <= kMaxNodes, so
    // the u64 -> int64 casts below cannot go negative once the
    // per-field ceilings hold.
    const std::uint64_t pair_cap = node_count * node_count;
    auto scalar = [&](std::size_t i) { return GetU64Le(sec, 8 + i * 8); };
    const std::uint64_t raw[7] = {scalar(0), scalar(1), scalar(2), scalar(3),
                                  scalar(4), scalar(5), scalar(6)};
    for (std::uint64_t v : raw) {
      if (v > pair_cap) return InvalidArgument(err);
    }
    stats->max_depth = static_cast<std::int64_t>(raw[0]);
    stats->sum_depths = static_cast<std::int64_t>(raw[1]);
    stats->leaves = static_cast<std::int64_t>(raw[2]);
    stats->parents = static_cast<std::int64_t>(raw[3]);
    stats->max_fanout = static_cast<std::int64_t>(raw[4]);
    stats->sib_pairs = static_cast<std::int64_t>(raw[5]);
    stats->succ_pairs = static_cast<std::int64_t>(raw[6]);
    if (GetU64Le(sec, kScalarBytes) != label_count) {
      return InvalidArgument(err);
    }
    std::size_t at = kScalarBytes + 8;
    std::uint64_t label_total = 0;
    stats->label_counts.reserve(static_cast<std::size_t>(label_count));
    for (std::uint64_t i = 0; i < label_count; ++i, at += 8) {
      const std::uint64_t c = GetU64Le(sec, at);
      if (c > node_count) return InvalidArgument(err);
      label_total += c;
      stats->label_counts.push_back(static_cast<std::int64_t>(c));
    }
    if (GetU64Le(sec, at) != attr_count) return InvalidArgument(err);
    at += 8;
    stats->attr_distinct.reserve(static_cast<std::size_t>(attr_count));
    for (std::uint64_t i = 0; i < attr_count; ++i, at += 8) {
      const std::uint64_t c = GetU64Le(sec, at);
      if (c > node_count) return InvalidArgument(err);
      stats->attr_distinct.push_back(static_cast<std::int64_t>(c));
    }
    // Identities every real tree satisfies: labels partition the
    // nodes, and every node is a leaf xor a parent.
    if (label_total != node_count ||
        static_cast<std::uint64_t>(stats->leaves + stats->parents) !=
            node_count) {
      return InvalidArgument(err);
    }
    return std::shared_ptr<const TreeStats>(std::move(stats));
  }

  static std::string_view NodesView(const Tree& tree) {
    return tree.node_count_ == 0
               ? std::string_view()
               : RawView(tree.nodes_view_,
                         tree.node_count_ * sizeof(Tree::Node));
  }
  static std::vector<std::string_view> ColumnViews(const Tree& tree) {
    std::vector<std::string_view> out;
    if (tree.node_count_ == 0) return out;
    for (const DataValue* column : tree.attr_views_) {
      out.push_back(RawView(column, tree.node_count_ * sizeof(DataValue)));
    }
    return out;
  }
  static std::string EncodeLabelPool(const Tree& tree) {
    return EncodePoolStrings(tree.labels_.size(), [&](std::int64_t i) {
      return tree.labels_.NameOf(i);
    });
  }
  static std::string EncodeAttrPool(const Tree& tree) {
    return EncodePoolStrings(tree.attrs_.size(), [&](std::int64_t i) {
      return tree.attrs_.NameOf(i);
    });
  }
  static std::string EncodeValuePool(const Tree& tree) {
    return EncodePoolStrings(tree.values_->size(), [&](std::int64_t i) {
      return tree.values_->NameAt(i);
    });
  }
  /// Stats payload: u32 stats-format (1) | u32 pad | seven u64 scalars
  /// (max_depth, sum_depths, leaves, parents, max_fanout, sib_pairs,
  /// succ_pairs) | u64 label count + per-label u64 node counts | u64
  /// attr count + per-attribute u64 distinct-value counts.  `nodes` and
  /// `edges` are derived from the header node count at decode.  Always
  /// recomputed at encode time (never copied from a preloaded block) so
  /// copy-on-write attribute mutations cannot persist stale
  /// distinct-value counts.  Deliberately excluded from ContentHash:
  /// stats are derived data, and the hash keys the selector disk cache.
  static std::string EncodeStats(const Tree& tree) {
    TreeStats s = ComputeTreeStats(tree);
    // ComputeTreeStats leaves the vectors empty for an empty tree; the
    // format pins their lengths to the header label/attr counts.
    s.label_counts.resize(tree.labels_.size(), 0);
    s.attr_distinct.resize(tree.attr_views_.size(), 0);
    std::string out;
    PutU32Le(1, out);  // stats format version
    PutU32Le(0, out);  // pad to 8 bytes
    PutU64Le(static_cast<std::uint64_t>(s.max_depth), out);
    PutU64Le(static_cast<std::uint64_t>(s.sum_depths), out);
    PutU64Le(static_cast<std::uint64_t>(s.leaves), out);
    PutU64Le(static_cast<std::uint64_t>(s.parents), out);
    PutU64Le(static_cast<std::uint64_t>(s.max_fanout), out);
    PutU64Le(static_cast<std::uint64_t>(s.sib_pairs), out);
    PutU64Le(static_cast<std::uint64_t>(s.succ_pairs), out);
    PutU64Le(s.label_counts.size(), out);
    for (std::int64_t c : s.label_counts) {
      PutU64Le(static_cast<std::uint64_t>(c), out);
    }
    PutU64Le(s.attr_distinct.size(), out);
    for (std::int64_t c : s.attr_distinct) {
      PutU64Le(static_cast<std::uint64_t>(c), out);
    }
    return out;
  }

  /// t's post-order ranks: the persisted ones of a loaded tree, or
  /// computed into `ranks`.
  static std::string_view PostorderView(const Tree& tree,
                                        std::vector<NodeId>& ranks) {
    const std::size_t n = tree.node_count_;
    if (n == 0) return {};
    if (tree.postorder_view_ != nullptr) {
      return RawView(tree.postorder_view_, n * sizeof(NodeId));
    }
    ranks.resize(n);
    const std::vector<NodeId> order = PostOrder(tree);
    for (std::size_t i = 0; i < order.size(); ++i) {
      ranks[static_cast<std::size_t>(order[i])] = static_cast<NodeId>(i);
    }
    return RawView(ranks.data(), n * sizeof(NodeId));
  }
};

std::uint64_t TreeContentHash(const Tree& tree) {
  return SnapshotCodec::ContentHash(tree);
}

std::string EncodeTreeSnapshot(const Tree& tree) {
  SnapshotCodec::Image image;
  SnapshotCodec::Encode(tree, image);
  std::string out;
  out.reserve(static_cast<std::size_t>(image.info.file_bytes));
  for (std::string_view piece : image.pieces) out += piece;
  return out;
}

Result<SnapshotInfo> WriteTreeSnapshot(const Tree& tree,
                                       const std::string& path) {
  SnapshotCodec::Image image;
  SnapshotCodec::Encode(tree, image);
  TREEWALK_RETURN_IF_ERROR(WriteFileAtomic(path, image.pieces));
  SnapshotMetrics::Get().writes->Increment();
  return image.info;
}

namespace {

using DecodeFn = Result<Tree> (*)(std::shared_ptr<const void>,
                                  std::string_view, SnapshotInfo*);

/// Counts the load (or its failure) in the snapshot metrics.
Result<Tree> Counted(Result<Tree> tree) {
  if (tree.ok()) {
    SnapshotMetrics::Get().loads->Increment();
  } else {
    SnapshotMetrics::Get().load_failures->Increment();
  }
  return tree;
}

Result<Tree> FromImage(std::shared_ptr<const std::string> image,
                       SnapshotInfo* info, DecodeFn decode) {
  if (image == nullptr) return Counted(InvalidArgument("null snapshot image"));
  const std::string_view bytes = *image;
  return Counted(decode(std::move(image), bytes, info));
}

/// Owner object threaded into the decoded Tree's `mapping_`: unmaps and
/// releases the governor charge when the last aliasing Tree dies.
class MappedRegion {
 public:
  MappedRegion(void* base, std::size_t length, ResourceGovernor* governor)
      : base_(base), length_(length), governor_(governor) {}
  // Sole owner of the mapping: a copy would double-munmap.
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  ~MappedRegion() {
    ::munmap(base_, length_);
    GovernorRelease(governor_, MemoryCategory::kMappedSnapshot,
                    static_cast<std::int64_t>(length_));
  }

 private:
  void* base_;
  std::size_t length_;
  ResourceGovernor* governor_;
};

Result<Tree> LoadMapped(const std::string& path, ResourceGovernor* governor,
                        SnapshotInfo* info, DecodeFn decode) {
  TREEWALK_FAILPOINT("snapshot/load");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return NotFound("no snapshot at '" + path + "'");
    return ErrnoStatus("open", path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status status = ErrnoStatus("fstat", path);
    ::close(fd);
    return status;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return InvalidArgument("snapshot file '" + path + "' is empty");
  }
  const Status charge = GovernorCharge(
      governor, MemoryCategory::kMappedSnapshot, static_cast<std::int64_t>(size));
  if (!charge.ok()) {
    ::close(fd);
    return charge;
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    GovernorRelease(governor, MemoryCategory::kMappedSnapshot,
                    static_cast<std::int64_t>(size));
    return ErrnoStatus("mmap", path);
  }
  auto region = std::make_shared<MappedRegion>(base, size, governor);
  return decode(std::move(region), RawView(base, size), info);
}

}  // namespace

Result<Tree> TreeFromSnapshotImage(std::shared_ptr<const std::string> image,
                                   SnapshotInfo* info) {
  return FromImage(std::move(image), info, &SnapshotCodec::Decode);
}

Result<Tree> DelimitedTreeFromSnapshotImage(
    std::shared_ptr<const std::string> image, SnapshotInfo* info) {
  return FromImage(std::move(image), info, &SnapshotCodec::DecodeDelimited);
}

Result<Tree> LoadTreeSnapshot(const std::string& path,
                              ResourceGovernor* governor, SnapshotInfo* info) {
  return Counted(LoadMapped(path, governor, info, &SnapshotCodec::Decode));
}

Result<Tree> LoadDelimitedSnapshot(const std::string& path,
                                   ResourceGovernor* governor,
                                   SnapshotInfo* info) {
  return Counted(
      LoadMapped(path, governor, info, &SnapshotCodec::DecodeDelimited));
}

Result<std::string> ReadSnapshotFraming(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st{};
  std::string framing(kFramingBytes, '\0');
  const bool complete = ::fstat(fd, &st) == 0 &&
                        ::pread(fd, framing.data(), framing.size(), 0) ==
                            static_cast<ssize_t>(framing.size());
  ::close(fd);
  if (!complete) {
    return InvalidArgument("snapshot '" + path + "' has no readable framing");
  }
  TREEWALK_RETURN_IF_ERROR(SnapshotCodec::CheckFraming(
      framing, static_cast<std::uint64_t>(st.st_size)));
  return framing;
}

Result<SnapshotInfo> InspectTreeSnapshot(const std::string& path) {
  TREEWALK_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  auto image = std::make_shared<const std::string>(std::move(bytes));
  // Both views together read every section.
  SnapshotInfo info;
  TREEWALK_ASSIGN_OR_RETURN(Tree tree, TreeFromSnapshotImage(image, &info));
  TREEWALK_ASSIGN_OR_RETURN(Tree delimited,
                            DelimitedTreeFromSnapshotImage(image));
  (void)tree;
  (void)delimited;
  return info;
}

}  // namespace treewalk
