#include "src/logic/selector_cache.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/crc32c.h"
#include "src/common/failpoint.h"
#include "src/common/metrics.h"
#include "src/tree/interval_matrix.h"
#include "src/tree/snapshot.h"

namespace treewalk {
namespace {

constexpr char kEntryMagic[8] = {'T', 'W', 'S', 'E', 'L', 'C', '0', '1'};
constexpr std::size_t kEntryHeaderBytes = 44;
// shape_ byte values; pinned independently of the enum declaration.
constexpr std::uint8_t kShapeBool = 0, kShapeSetX = 1, kShapeSetY = 2,
                       kShapeMat = 3;
// Header repr word: 1 = interval payload, the only one written or read.
// The retired dense payload wrote 2; such entries decode as stale.
constexpr std::uint32_t kReprWord = 1;

struct CacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* stores;
  Counter* fallbacks;

  static CacheMetrics& Get() {
    static CacheMetrics m{
        MetricsRegistry::Global().FindOrCreateCounter(
            "treewalk_selector_cache_hits_total",
            "Compiled selectors served from the persistent disk cache"),
        MetricsRegistry::Global().FindOrCreateCounter(
            "treewalk_selector_cache_misses_total",
            "Selector cache lookups that found no entry (compiled fresh)"),
        MetricsRegistry::Global().FindOrCreateCounter(
            "treewalk_selector_cache_stores_total",
            "Freshly compiled selectors persisted to the disk cache"),
        MetricsRegistry::Global().FindOrCreateCounter(
            "treewalk_selector_cache_fallbacks_total",
            "Cache entries rejected (stale, corrupt, truncated, or injected "
            "fault); the selector was recompiled instead"),
    };
    return m;
  }
};

void PutWords(const std::uint64_t* words, std::size_t count,
              std::string& out) {
  if (count > 0) {
    out.append(reinterpret_cast<const char*>(words),
               count * sizeof(std::uint64_t));
  }
}

// Word payloads are read with memcpy, not in-place views: cache entries
// are small relative to snapshots and a copy frees the decoder from the
// image's alignment and lifetime.
void GetWords(std::string_view bytes, std::size_t at, std::uint64_t* words,
              std::size_t count) {
  if (count > 0) {
    std::memcpy(words, bytes.data() + at, count * sizeof(std::uint64_t));
  }
}

}  // namespace

std::uint64_t StableFormulaHash(const Formula& formula, std::string_view x,
                                std::string_view y) {
  // Printed form, not StructuralHash(): the persistent key must hash
  // identically in every process.
  std::uint64_t h = Fnv1a64(formula.ToString());
  h = Fnv1a64("\x1f", h);
  h = Fnv1a64(x, h);
  h = Fnv1a64("\x1f", h);
  h = Fnv1a64(y, h);
  return h;
}

/// Friend of CompiledSelector and IntervalMatrix: the only code that
/// touches their private state outside the compiler.
class SelectorCacheCodec {
 public:
  static std::string Encode(const SelectorCacheKey& key,
                            const CompiledSelector& sel) {
    std::string out;
    out.append(kEntryMagic, sizeof(kEntryMagic));
    PutU32Le(kSnapshotVersion, out);
    PutU32Le(kReprWord, out);
    PutU64Le(key.formula_hash, out);
    PutU64Le(key.tree_hash, out);
    PutU64Le(sel.n_, out);
    std::uint8_t shape = kShapeBool;
    switch (sel.shape_) {
      case CompiledSelector::Shape::kBool:
        shape = kShapeBool;
        break;
      case CompiledSelector::Shape::kSetX:
        shape = kShapeSetX;
        break;
      case CompiledSelector::Shape::kSetY:
        shape = kShapeSetY;
        break;
      case CompiledSelector::Shape::kMat:
        shape = kShapeMat;
        break;
    }
    out.push_back(static_cast<char>(shape));
    out.push_back(sel.literal_ ? '\x01' : '\x00');
    out.append(2, '\0');  // pad to kEntryHeaderBytes

    if (shape == kShapeSetX || shape == kShapeSetY) {
      PutU64Le(sel.set_->num_words(), out);
      PutWords(sel.set_->words(), sel.set_->num_words(), out);
    } else if (shape == kShapeMat) {
      EncodeIntervalMatrix(*sel.imat_, out);
    }

    PutU32Le(Crc32c(out), out);
    return out;
  }

  static Result<CompiledSelector> Decode(std::string_view bytes,
                                         const SelectorCacheKey* expected) {
    if (bytes.size() < kEntryHeaderBytes + 4) {
      return InvalidArgument("selector cache entry truncated");
    }
    if (bytes.substr(0, 8) != std::string_view(kEntryMagic, 8)) {
      return InvalidArgument("not a selector cache entry (bad magic)");
    }
    if (GetU32Le(bytes, bytes.size() - 4) !=
        Crc32c(bytes.substr(0, bytes.size() - 4))) {
      return InvalidArgument("selector cache entry CRC mismatch");
    }
    const std::uint32_t version = GetU32Le(bytes, 8);
    if (version != kSnapshotVersion) {
      return InvalidArgument("selector cache entry has version " +
                             std::to_string(version));
    }
    const std::uint32_t repr_word = GetU32Le(bytes, 12);
    if (repr_word != kReprWord) {
      return FailedPrecondition("selector cache entry is stale (repr word " +
                                std::to_string(repr_word) + ")");
    }
    SelectorCacheKey key;
    key.formula_hash = GetU64Le(bytes, 16);
    key.tree_hash = GetU64Le(bytes, 24);
    if (expected != nullptr &&
        (key.formula_hash != expected->formula_hash ||
         key.tree_hash != expected->tree_hash)) {
      return FailedPrecondition(
          "selector cache entry is stale (key mismatch)");
    }
    const std::uint64_t n64 = GetU64Le(bytes, 32);
    if (n64 > (std::uint64_t{1} << 31) - 1) {
      return InvalidArgument("selector cache entry node count implausible");
    }
    const std::size_t n = static_cast<std::size_t>(n64);
    const std::uint8_t shape = static_cast<std::uint8_t>(bytes[40]);
    const std::uint8_t literal = static_cast<std::uint8_t>(bytes[41]);
    if (shape > kShapeMat || literal > 1) {
      return InvalidArgument("selector cache entry shape byte corrupt");
    }

    const std::string_view payload =
        bytes.substr(kEntryHeaderBytes, bytes.size() - kEntryHeaderBytes - 4);
    CompiledSelector sel;
    sel.n_ = n;
    sel.literal_ = literal != 0;
    switch (shape) {
      case kShapeBool: {
        sel.shape_ = CompiledSelector::Shape::kBool;
        if (!payload.empty()) {
          return InvalidArgument("selector cache bool entry has payload");
        }
        break;
      }
      case kShapeSetX:
      case kShapeSetY: {
        sel.shape_ = shape == kShapeSetX ? CompiledSelector::Shape::kSetX
                                         : CompiledSelector::Shape::kSetY;
        const std::size_t want = (n + 63) / 64;
        if (payload.size() != 8 + want * 8 ||
            GetU64Le(payload, 0) != want) {
          return InvalidArgument("selector cache set payload corrupt");
        }
        NodeSet set(n);
        GetWords(payload, 8, set.words(), want);
        sel.set_ = std::make_shared<const NodeSet>(std::move(set));
        break;
      }
      case kShapeMat: {
        sel.shape_ = CompiledSelector::Shape::kMat;
        TREEWALK_ASSIGN_OR_RETURN(IntervalMatrix m,
                                  DecodeIntervalMatrix(payload, n));
        sel.imat_ = std::make_shared<const IntervalMatrix>(std::move(m));
        break;
      }
    }
    return sel;
  }

 private:
  static void EncodeIntervalMatrix(const IntervalMatrix& m,
                                   std::string& out) {
    // Pools first, each stored once; rows then reference pools by
    // index, so the sharing that makes the representation O(n) bytes is
    // itself what gets persisted (and reproduced on load).
    PutU64Le(m.pools_.size(), out);
    for (const auto& pool : m.pools_) {
      PutU64Le(pool->size(), out);
      for (const NodeSpan& s : *pool) {
        PutU32Le(static_cast<std::uint32_t>(s.begin), out);
        PutU32Le(static_cast<std::uint32_t>(s.end), out);
      }
    }
    PutU64Le(m.rows_.size(), out);
    for (const IntervalMatrix::Row& r : m.rows_) {
      PutU32Le(r.pool, out);
      // An empty slice can carry any stale offset in memory; canonical
      // images always say 0 so equal matrices encode to equal bytes.
      PutU32Le(r.count == 0 ? 0 : r.offset, out);
      PutU32Le(r.count, out);
      // Intersected windows can come out inverted (begin > end), which
      // reads as empty exactly like begin == end; write the latter, the
      // form the decoder accepts.
      const NodeId clip_end = std::max(r.clip_begin, r.clip_end);
      PutU32Le(static_cast<std::uint32_t>(r.clip_begin), out);
      PutU32Le(static_cast<std::uint32_t>(clip_end), out);
      PutU32Le(r.complemented ? 1 : 0, out);
    }
  }

  static Result<IntervalMatrix> DecodeIntervalMatrix(std::string_view p,
                                                     std::size_t n) {
    auto err = [] {
      return InvalidArgument("selector cache interval payload corrupt");
    };
    std::size_t at = 0;
    auto need = [&](std::size_t bytes) { return p.size() - at >= bytes; };
    if (!need(8)) return err();
    const std::uint64_t pool_count = GetU64Le(p, at);
    at += 8;
    if (pool_count > n + 1) return err();
    IntervalMatrix m;
    m.n_ = n;
    m.pools_.reserve(static_cast<std::size_t>(pool_count));
    const NodeId limit = static_cast<NodeId>(n);
    for (std::uint64_t i = 0; i < pool_count; ++i) {
      if (!need(8)) return err();
      const std::uint64_t span_count = GetU64Le(p, at);
      at += 8;
      if (span_count > p.size() / 8 || !need(span_count * 8)) return err();
      auto pool = std::make_shared<std::vector<NodeSpan>>();
      pool->reserve(static_cast<std::size_t>(span_count));
      for (std::uint64_t s = 0; s < span_count; ++s) {
        NodeSpan span;
        span.begin = static_cast<NodeId>(GetU32Le(p, at));
        span.end = static_cast<NodeId>(GetU32Le(p, at + 4));
        at += 8;
        // A pool is an arena of per-row slices (aliased rows share and
        // window them), so spans are NOT globally sorted here — only
        // each row's slice is.  Bound every endpoint to [0, n] now;
        // slice-local ordering is checked per row below.
        if (span.begin < 0 || span.end <= span.begin || span.end > limit) {
          return err();
        }
        pool->push_back(span);
      }
      m.pools_.push_back(std::move(pool));
    }
    if (!need(8) || GetU64Le(p, at) != n) return err();
    at += 8;
    if (!need(n * 24)) return err();
    m.rows_.reserve(n);
    for (std::size_t u = 0; u < n; ++u) {
      IntervalMatrix::Row r;
      r.pool = GetU32Le(p, at);
      r.offset = GetU32Le(p, at + 4);
      r.count = GetU32Le(p, at + 8);
      r.clip_begin = static_cast<NodeId>(GetU32Le(p, at + 12));
      r.clip_end = static_cast<NodeId>(GetU32Le(p, at + 16));
      const std::uint32_t comp = GetU32Le(p, at + 20);
      at += 24;
      if (r.pool >= pool_count || comp > 1) return err();
      const std::size_t pool_size = m.pools_[r.pool]->size();
      if (r.count == 0) {
        r.offset = 0;  // empty slice: offset is meaningless, keep it tame
      } else if (r.offset > pool_size || r.count > pool_size - r.offset) {
        return err();
      }
      if (r.clip_begin < 0 || r.clip_end < r.clip_begin ||
          r.clip_end > limit) {
        return err();
      }
      // The slice this row reads must be normalized (ascending, non-
      // overlapping): test() binary-searches it and RowSpans() merges
      // against the clip window assuming order.
      const std::vector<NodeSpan>& pool = *m.pools_[r.pool];
      for (std::uint32_t s = 1; s < r.count; ++s) {
        if (pool[r.offset + s].begin < pool[r.offset + s - 1].end) {
          return err();
        }
      }
      r.complemented = comp != 0;
      m.rows_.push_back(r);
    }
    if (at != p.size()) return err();
    return m;
  }
};

std::string EncodeSelectorCacheEntry(const SelectorCacheKey& key,
                                     const CompiledSelector& selector) {
  return SelectorCacheCodec::Encode(key, selector);
}

Result<CompiledSelector> DecodeSelectorCacheEntry(
    std::string_view bytes, const SelectorCacheKey* expected_key) {
  return SelectorCacheCodec::Decode(bytes, expected_key);
}

std::string SelectorDiskCache::EntryPath(const SelectorCacheKey& key) const {
  char name[64];
  std::snprintf(name, sizeof(name), "%016llx-%016llx-%u.twsel",
                static_cast<unsigned long long>(key.formula_hash),
                static_cast<unsigned long long>(key.tree_hash),
                static_cast<unsigned>(kReprWord));
  return dir_ + "/" + name;
}

Result<CompiledSelector> SelectorDiskCache::Load(
    const SelectorCacheKey& key) const {
  TREEWALK_FAILPOINT("selector_cache/load");
  TREEWALK_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(EntryPath(key)));
  return SelectorCacheCodec::Decode(bytes, &key);
}

Status SelectorDiskCache::Store(const SelectorCacheKey& key,
                                const CompiledSelector& selector) const {
  TREEWALK_FAILPOINT("selector_cache/store");
  return WriteFileAtomic(EntryPath(key),
                         SelectorCacheCodec::Encode(key, selector));
}

Result<CompiledSelector> CompileSelectorCached(
    const AxisIndex& index, const Formula& formula, const std::string& x,
    const std::string& y, AxisRepr /*repr*/, const SelectorDiskCache* cache,
    std::uint64_t tree_hash) {
  if (cache == nullptr) return CompileSelector(index, formula, x, y);
  SelectorCacheKey key;
  key.formula_hash = StableFormulaHash(formula, x, y);
  key.tree_hash = tree_hash;
  Result<CompiledSelector> cached = cache->Load(key);
  if (cached.ok()) {
    CacheMetrics::Get().hits->Increment();
    return cached;
  }
  if (cached.status().code() == StatusCode::kNotFound) {
    CacheMetrics::Get().misses->Increment();
  } else {
    // Stale, corrupt, truncated, or injected fault: the degraded path
    // is a plain compile — slower, never wrong.
    CacheMetrics::Get().fallbacks->Increment();
  }
  Result<CompiledSelector> fresh = CompileSelector(index, formula, x, y);
  if (fresh.ok() && cache->Store(key, *fresh).ok()) {
    CacheMetrics::Get().stores->Increment();
  }
  return fresh;
}

}  // namespace treewalk
