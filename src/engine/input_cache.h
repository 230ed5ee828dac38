#ifndef TREEWALK_ENGINE_INPUT_CACHE_H_
#define TREEWALK_ENGINE_INPUT_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/tree/tree.h"

namespace treewalk {

/// One generation of the daemon-resident corpus: already-delimited
/// trees, byte-capped through a MemoryAccountant (category
/// kResidentTree), the same machinery that bounds per-run structures,
/// so a refused tree's kResourceExhausted carries the standard
/// breakdown.
///
/// A generation is immutable once published.  The preload calls
/// GetOrLoad() for each tree, in name order; a tree is admitted only if
/// it fits in what is left of the cap, and the rest are refused with
/// kResourceExhausted.  Nothing is ever evicted, so every tree the
/// preload admitted stays answerable for the generation's lifetime.
/// Entries are handed out as shared_ptr<const Prepared>.
///
/// Live reload (docs/SERVER.md): a SIGHUP builds a fresh generation
/// off-thread and swaps it in under the server's shared_ptr; queries
/// pin the generation they started on, so the old instance — and its
/// accountant's books — dies exactly when its last pin drops.
/// `generation()` labels which build a cache came from.
///
/// Thread-safety: GetOrLoad() runs before the generation is published
/// (the server's mutex-guarded swap, or its construction, orders those
/// writes before every query); after that the instance is only read,
/// and its const members are safe from any number of threads.
class ResidentTreeCache {
 public:
  /// One resident corpus entry, immutable after load.
  struct Prepared {
    std::string name;
    Tree delimited;             ///< Delimit() image, ready for RunDelimited
    std::size_t source_nodes;   ///< node count before delimiting
    std::int64_t approx_bytes;  ///< accounting charge for this entry
  };

  /// `capacity_bytes <= 0` means unlimited.  `generation` labels a
  /// reload cycle (0 = the startup corpus).
  explicit ResidentTreeCache(std::int64_t capacity_bytes,
                             std::uint64_t generation = 0);

  /// The entry for `name`, loading (and delimiting) it via `load` if it
  /// is not resident yet.  A tree that does not fit in what is left of
  /// the cap is refused with kResourceExhausted, and `load` failures
  /// propagate verbatim; either way nothing is admitted.  Preload only:
  /// never call it on a published generation.
  Result<std::shared_ptr<const Prepared>> GetOrLoad(
      const std::string& name, const std::function<Result<Tree>()>& load);

  /// The entry for `name`, or null — never loads (the server's query
  /// path over a published generation).
  std::shared_ptr<const Prepared> Lookup(const std::string& name) const;

  /// Approximate accounting bytes of `tree` (nodes + attribute columns
  /// + interner pools).  Exposed so tests can predict what fits.
  static std::int64_t ApproxTreeBytes(const Tree& tree);

  std::int64_t capacity_bytes() const { return accountant_.budget(); }
  std::uint64_t generation() const { return generation_; }
  std::int64_t resident_bytes() const { return accountant_.used(); }
  std::int64_t resident_trees() const {
    return static_cast<std::int64_t>(entries_.size());
  }

 private:
  const std::uint64_t generation_;
  MemoryAccountant accountant_;
  std::unordered_map<std::string, std::shared_ptr<const Prepared>> entries_;
};

}  // namespace treewalk

#endif  // TREEWALK_ENGINE_INPUT_CACHE_H_
