#include "src/engine/input_cache.h"

#include <utility>

#include "src/common/metrics.h"
#include "src/tree/delimited.h"

namespace treewalk {

namespace {

/// Resident-cache instrument family (docs/OBSERVABILITY.md).
struct CacheMetrics {
  Gauge* resident_bytes;
  Gauge* resident_trees;

  static CacheMetrics& Get() {
    static CacheMetrics* metrics = [] {
      auto* m = new CacheMetrics;
      MetricsRegistry& r = MetricsRegistry::Global();
      m->resident_bytes = r.FindOrCreateGauge(
          "treewalk_input_cache_resident_bytes",
          "Approximate bytes of corpus trees held by the resident cache");
      m->resident_trees = r.FindOrCreateGauge(
          "treewalk_input_cache_resident_trees",
          "Corpus trees currently held by the resident cache");
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

ResidentTreeCache::ResidentTreeCache(std::int64_t capacity_bytes,
                                     std::uint64_t generation)
    : generation_(generation), accountant_(capacity_bytes) {}

std::int64_t ResidentTreeCache::ApproxTreeBytes(const Tree& tree) {
  const auto nodes = static_cast<std::int64_t>(tree.size());
  // ~64 B of shape per node (the Node record plus vector slack) and one
  // 8-byte DataValue per attribute column entry, over a 1 KiB floor for
  // interner pools and map bookkeeping.  Approximate on purpose — the
  // governor contract is an enforced O(budget) ceiling, not malloc
  // accounting (docs/ROBUSTNESS.md).
  return 1024 +
         nodes * (64 + 8 * static_cast<std::int64_t>(tree.num_attributes()));
}

Result<std::shared_ptr<const ResidentTreeCache::Prepared>>
ResidentTreeCache::GetOrLoad(const std::string& name,
                             const std::function<Result<Tree>()>& load) {
  auto it = entries_.find(name);
  if (it != entries_.end()) return it->second;
  TREEWALK_ASSIGN_OR_RETURN(Tree source, load());
  if (source.empty()) {
    return InvalidArgument("corpus tree '" + name + "' is empty");
  }
  auto prepared = std::make_shared<Prepared>();
  prepared->name = name;
  prepared->source_nodes = source.size();
  prepared->delimited = std::move(Delimit(source).tree);
  prepared->approx_bytes = ApproxTreeBytes(prepared->delimited);
  // A refused tree dies with `prepared` here; what is resident stays.
  TREEWALK_RETURN_IF_ERROR(
      accountant_.Charge(MemoryCategory::kResidentTree, prepared->approx_bytes));
  entries_.emplace(name, prepared);
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.resident_bytes->Set(accountant_.used());
  metrics.resident_trees->Set(static_cast<std::int64_t>(entries_.size()));
  return std::shared_ptr<const Prepared>(std::move(prepared));
}

std::shared_ptr<const ResidentTreeCache::Prepared> ResidentTreeCache::Lookup(
    const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

}  // namespace treewalk
