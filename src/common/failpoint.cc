#include "src/common/failpoint.h"

namespace treewalk {

namespace {

/// splitmix64: the schedule generator.  Deterministic and decoupled
/// from std::mt19937 so schedules are stable across standard libraries.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t HashSite(const std::string& site) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::atomic<bool>& FailpointRegistry::armed_flag() {
  static std::atomic<bool> armed{false};
  return armed;
}

FailpointRegistry& FailpointRegistry::Global() {
  static FailpointRegistry& registry = *new FailpointRegistry();
  return registry;
}

const std::vector<std::string>& FailpointRegistry::KnownSites() {
  static const std::vector<std::string>& sites = *new std::vector<std::string>{
      "interpreter/step",    // main-walk transition boundary
      "interpreter/select",  // atp() selector evaluation entry
      "compiler/compile",    // selector compilation entry (forces fallback)
      "axis_index/alloc",    // relation-matrix materialization
      "engine/worker",       // engine worker loop, once per job attempt
      "journal/append",      // journal record write entry
      "journal/fsync",       // journal fsync barrier
      "journal/rename",      // atomic header tmp+rename at creation
      "atomic_file/write",        // atomic tmp-file creation + write
      "atomic_file/fsync",        // atomic-write fsync barrier
      "atomic_file/rename",       // atomic-write rename commit
      "snapshot/load",            // tree-snapshot open/map/validate entry
      "selector_cache/load",      // compiled-selector cache read entry
      "selector_cache/store",     // compiled-selector cache write entry
      "server/accept",            // twq serve: accepted connection setup
      "server/read",              // twq serve: request-frame read
      "server/write",             // twq serve: response-frame write
      "server/dispatch",          // twq serve: query dispatch, before admission
  };
  return sites;
}

void FailpointRegistry::Enable(const std::string& site, Config config) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site] = SiteState{std::move(config), 0, 0};
  armed_flag().store(true, std::memory_order_relaxed);
}

void FailpointRegistry::Disable(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.erase(site);
  if (sites_.empty()) armed_flag().store(false, std::memory_order_relaxed);
}

void FailpointRegistry::DisableAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_flag().store(false, std::memory_order_relaxed);
}

void FailpointRegistry::ArmRandomSchedule(std::uint64_t seed,
                                          double site_probability) {
  // Retryable codes only: the schedule is meant to exercise recovery
  // (fallbacks, the engine's degradation ladder), not to assert on
  // caller bugs.
  static constexpr StatusCode kCodes[] = {
      StatusCode::kInternal,
      StatusCode::kResourceExhausted,
      StatusCode::kDeadlineExceeded,
  };
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  for (const std::string& site : KnownSites()) {
    std::uint64_t h = Mix(seed ^ HashSite(site));
    double coin =
        static_cast<double>(h >> 11) / static_cast<double>(1ULL << 53);
    if (coin >= site_probability) continue;
    Config config;
    std::uint64_t h2 = Mix(h);
    config.code = kCodes[h2 % (sizeof(kCodes) / sizeof(kCodes[0]))];
    config.after = static_cast<std::int64_t>(Mix(h2) % 8);
    config.max_fires = 1;
    config.message = "injected fault at " + site + " (seed " +
                     std::to_string(seed) + ")";
    sites_[site] = SiteState{std::move(config), 0, 0};
  }
  armed_flag().store(!sites_.empty(), std::memory_order_relaxed);
}

Status FailpointRegistry::Check(const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) return Status::Ok();
  SiteState& state = it->second;
  ++state.hit_count;
  if (state.hit_count <= state.config.after) return Status::Ok();
  if (state.config.max_fires > 0 &&
      state.fire_count >= state.config.max_fires) {
    return Status::Ok();
  }
  ++state.fire_count;
  return Status(state.config.code, state.config.message);
}

std::int64_t FailpointRegistry::hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hit_count;
}

}  // namespace treewalk
