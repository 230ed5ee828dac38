#ifndef TREEWALK_COMMON_GOVERNOR_H_
#define TREEWALK_COMMON_GOVERNOR_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "src/common/status.h"

namespace treewalk {

/// What a byte of tracked memory was spent on.  Categories are coarse on
/// purpose: the budget exists to stop an adversarial job from OOM-ing
/// the process, and the breakdown exists so the resulting
/// kResourceExhausted message says *which* structure blew up.
enum class MemoryCategory {
  kAxisIndex = 0,   ///< axis-index bitsets and memoized relation matrices
  kCompiledOps,     ///< compiler-derived matrices and op evaluation results
  kCycleMemo,       ///< cycle-detection configuration memo (per computation)
  kStore,           ///< register store tuple growth (peak, monotone)
  kTrace,           ///< recorded trace entries
  kMappedSnapshot,  ///< mmap-ed tree snapshot regions (src/tree/snapshot.h)
  kResidentTree,    ///< daemon-resident corpus trees (src/engine/input_cache.h)
};
inline constexpr int kNumMemoryCategories = 7;

const char* MemoryCategoryName(MemoryCategory category);

/// Byte-denominated memory budget with a per-category breakdown.
/// Charges are *approximations* of heap footprint (documented per call
/// site in docs/ROBUSTNESS.md); the point is an enforced O(budget)
/// ceiling with an attributable error message, not byte-exact malloc
/// accounting.  Single-threaded: one accountant per job attempt.
class MemoryAccountant {
 public:
  /// `budget_bytes <= 0` means unlimited (charges are tracked but never
  /// rejected).
  explicit MemoryAccountant(std::int64_t budget_bytes)
      : budget_(budget_bytes) {}

  /// Records `bytes` against `category`.  Returns kResourceExhausted
  /// with the full breakdown once the total would exceed the budget;
  /// a failed charge is not recorded, and `tripped()` latches.
  Status Charge(MemoryCategory category, std::int64_t bytes);
  /// Returns previously charged bytes (scope-exit of a memo, an unmapped
  /// snapshot).  Never fails; clamped at zero.
  void Release(MemoryCategory category, std::int64_t bytes);

  std::int64_t budget() const { return budget_; }
  std::int64_t used() const { return used_; }
  std::int64_t peak() const { return peak_; }
  std::int64_t used(MemoryCategory category) const {
    return by_category_[static_cast<int>(category)];
  }
  /// High-water mark of one category over the accountant's lifetime
  /// (exported as treewalk_governor_memory_peak_bytes{category=...}).
  std::int64_t peak(MemoryCategory category) const {
    return peak_by_category_[static_cast<int>(category)];
  }
  /// True once any charge was rejected.
  bool tripped() const { return tripped_; }

  /// "axis-index=12.3MiB cycle-memo=0B ..." — the message payload of the
  /// kResourceExhausted status.
  std::string Breakdown() const;

 private:
  std::int64_t budget_ = 0;
  std::int64_t used_ = 0;
  std::int64_t peak_ = 0;
  bool tripped_ = false;
  std::array<std::int64_t, kNumMemoryCategories> by_category_{};
  std::array<std::int64_t, kNumMemoryCategories> peak_by_category_{};
};

/// Per-job resource governor: a wall-clock deadline plus an optional
/// memory budget.  The interpreter polls `CheckDeadline()` at transition
/// boundaries (alongside the cooperative-cancel flag) and routes its
/// allocations through `Charge()`; the axis index and the selector
/// compiler do the same.  A default-constructed governor is unlimited
/// and every check is a no-op branch.
///
/// Not thread-safe; each job attempt owns one governor
/// (src/engine/engine.cc creates it on the worker thread).
class ResourceGovernor {
 public:
  ResourceGovernor() = default;

  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }
  void set_deadline_after(std::chrono::milliseconds budget) {
    deadline_ = std::chrono::steady_clock::now() + budget;
  }
  bool has_deadline() const { return deadline_.has_value(); }

  void set_memory_budget(std::int64_t bytes) {
    accountant_.emplace(bytes);
  }
  MemoryAccountant* accountant() {
    return accountant_.has_value() ? &*accountant_ : nullptr;
  }
  const MemoryAccountant* accountant() const {
    return accountant_.has_value() ? &*accountant_ : nullptr;
  }

  /// Cheap transition-boundary deadline poll: reads the steady clock
  /// only every kDeadlineStride calls, so the per-transition cost is an
  /// increment and a branch (E15 bounds the total overhead at <2%).
  Status CheckDeadline() {
    if (!deadline_.has_value()) return Status::Ok();
    if (++tick_ % kDeadlineStride != 0) return Status::Ok();
    return CheckDeadlineNow();
  }

  /// Forces a clock read; used at coarse boundaries (job start,
  /// selector compilation) where the stride would be too lazy.
  Status CheckDeadlineNow();

  /// Instrumentation: strided CheckDeadline() calls made while a
  /// deadline was set, and how many of them actually read the clock.
  /// The engine flushes these into the metrics registry per attempt
  /// (treewalk_governor_deadline_polls_total / _clock_reads_total).
  std::int64_t deadline_polls() const {
    return static_cast<std::int64_t>(tick_);
  }
  std::int64_t deadline_clock_reads() const { return clock_reads_; }

  /// Memory charge; OK when no budget is attached.
  Status Charge(MemoryCategory category, std::int64_t bytes) {
    if (!accountant_.has_value()) return Status::Ok();
    return accountant_->Charge(category, bytes);
  }
  void Release(MemoryCategory category, std::int64_t bytes) {
    if (accountant_.has_value()) accountant_->Release(category, bytes);
  }

 private:
  static constexpr std::uint64_t kDeadlineStride = 64;

  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::optional<MemoryAccountant> accountant_;
  std::uint64_t tick_ = 0;
  std::int64_t clock_reads_ = 0;
};

/// Null-safe helpers: the governor is optional nearly everywhere, and
/// `GovernorCharge(nullptr, ...)` reading as a no-op keeps call sites
/// single-line.
inline Status GovernorCharge(ResourceGovernor* governor,
                             MemoryCategory category, std::int64_t bytes) {
  if (governor == nullptr) return Status::Ok();
  return governor->Charge(category, bytes);
}
inline void GovernorRelease(ResourceGovernor* governor,
                            MemoryCategory category, std::int64_t bytes) {
  if (governor != nullptr) governor->Release(category, bytes);
}
inline Status GovernorCheckDeadline(ResourceGovernor* governor) {
  if (governor == nullptr) return Status::Ok();
  return governor->CheckDeadline();
}
inline Status GovernorCheckDeadlineNow(ResourceGovernor* governor) {
  if (governor == nullptr) return Status::Ok();
  return governor->CheckDeadlineNow();
}

/// RAII charge that releases on destruction: used for structures whose
/// lifetime is a scope (the per-computation cycle memo).  Add() both
/// charges the governor and remembers the amount for release.
class ScopedMemoryCharge {
 public:
  ScopedMemoryCharge(ResourceGovernor* governor, MemoryCategory category)
      : governor_(governor), category_(category) {}
  ~ScopedMemoryCharge() { GovernorRelease(governor_, category_, bytes_); }
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

  Status Add(std::int64_t bytes) {
    Status status = GovernorCharge(governor_, category_, bytes);
    if (status.ok()) bytes_ += bytes;
    return status;
  }

 private:
  ResourceGovernor* governor_;
  MemoryCategory category_;
  std::int64_t bytes_ = 0;
};

}  // namespace treewalk

#endif  // TREEWALK_COMMON_GOVERNOR_H_
