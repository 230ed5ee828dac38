#ifndef TREEWALK_LOGIC_SELECTOR_CACHE_H_
#define TREEWALK_LOGIC_SELECTOR_CACHE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/logic/bitset_eval.h"
#include "src/logic/compile.h"
#include "src/logic/formula.h"
#include "src/tree/axis_index.h"

namespace treewalk {

/// Persistent on-disk cache of compiled selector op-DAG results
/// ("TWSELC01", docs/SNAPSHOT.md §selector cache).  A CompiledSelector
/// is the materialized satisfier relation of phi(x, y) against one
/// tree, so the cache key is the pair (formula, tree) plus everything
/// that changes the materialized bytes:
///
///   formula_hash   FNV-1a over the formula's printed form and the
///                  (x, y) variable names — printed form, not
///                  Formula::StructuralHash(), because the key must be
///                  stable across processes;
///   tree_hash      TreeContentHash() of the tree compiled against;
///   version        kSnapshotVersion (bumping the snapshot format
///                  invalidates cached selectors too);
///   repr word      the constant 1 (interval payload).  Entries with any
///                  other word — the retired dense payload wrote 2 — are
///                  rejected as stale and recompiled.
///
/// Entries are written atomically (tmp+rename), CRC-checked per
/// section, and carry the key they were computed for; a stale, corrupt,
/// or truncated entry loads as a non-OK Status and the caller falls
/// back to compiling — never a wrong answer, never a crash
/// (failpoint- and fuzz-proven).  Matrix payloads persist their span
/// pools once plus per-row descriptors, so the pool sharing that makes
/// the representation O(n) survives the round trip (RetainedBytes() is
/// preserved).
struct SelectorCacheKey {
  std::uint64_t formula_hash = 0;
  std::uint64_t tree_hash = 0;
};

/// Process-stable formula-side hash of a cache key.
std::uint64_t StableFormulaHash(const Formula& formula, std::string_view x,
                                std::string_view y);

/// Serializes `selector` to a cache-entry image carrying `key`.
std::string EncodeSelectorCacheEntry(const SelectorCacheKey& key,
                                     const CompiledSelector& selector);

/// Validates an entry image and reconstructs the selector.  When
/// `expected_key` is non-null, a key mismatch (stale entry) is an
/// error.  Exposed for tests and the snapshot fuzz harness.
Result<CompiledSelector> DecodeSelectorCacheEntry(
    std::string_view bytes, const SelectorCacheKey* expected_key);

/// Directory of cache entries, one file per key
/// (`<dir>/<formula hash>-<tree hash>-1.twsel`).  Thread-safe: entries
/// are immutable and written atomically, so concurrent readers/writers
/// (batch workers) need no coordination.  Failpoints:
/// selector_cache/load, selector_cache/store.
class SelectorDiskCache {
 public:
  explicit SelectorDiskCache(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// Loads and validates the entry for `key`; kNotFound when absent,
  /// other errors for corrupt/stale files (callers treat both as a
  /// miss and recompile).
  Result<CompiledSelector> Load(const SelectorCacheKey& key) const;

  /// Persists `selector` under `key` (atomic replace).
  Status Store(const SelectorCacheKey& key,
               const CompiledSelector& selector) const;

  /// Path the entry for `key` lives at.
  std::string EntryPath(const SelectorCacheKey& key) const;

 private:
  std::string dir_;
};

/// CompileSelector with a read-through disk cache: tries `cache` (when
/// non-null) and falls back to compiling — storing the fresh result
/// best-effort.  A cache
/// failure of any kind (missing, stale, corrupt, injected fault) only
/// costs the compile it would have saved; hits, misses, stores, and
/// fallbacks are counted in the metrics registry
/// (treewalk_selector_cache_*_total).  `tree_hash` is
/// TreeContentHash() of the tree behind `index`, hoisted out so batch
/// runs hash each tree once.  `repr` has one value; the parameter is
/// kept for perfbench/pbtool.cc.
Result<CompiledSelector> CompileSelectorCached(
    const AxisIndex& index, const Formula& formula, const std::string& x,
    const std::string& y, AxisRepr repr, const SelectorDiskCache* cache,
    std::uint64_t tree_hash);

}  // namespace treewalk

#endif  // TREEWALK_LOGIC_SELECTOR_CACHE_H_
