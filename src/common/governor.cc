#include "src/common/governor.h"

namespace treewalk {

namespace {

/// "12.3MiB" / "4.0KiB" / "97B" — breakdown messages stay readable for
/// budgets from bytes to gigabytes.
std::string HumanBytes(std::int64_t bytes) {
  if (bytes >= 1 << 20) {
    std::int64_t tenths = bytes * 10 / (1 << 20);
    return std::to_string(tenths / 10) + "." + std::to_string(tenths % 10) +
           "MiB";
  }
  if (bytes >= 1 << 10) {
    std::int64_t tenths = bytes * 10 / (1 << 10);
    return std::to_string(tenths / 10) + "." + std::to_string(tenths % 10) +
           "KiB";
  }
  return std::to_string(bytes) + "B";
}

}  // namespace

const char* MemoryCategoryName(MemoryCategory category) {
  switch (category) {
    case MemoryCategory::kAxisIndex:
      return "axis-index";
    case MemoryCategory::kCompiledOps:
      return "compiled-ops";
    case MemoryCategory::kCycleMemo:
      return "cycle-memo";
    case MemoryCategory::kStore:
      return "store";
    case MemoryCategory::kTrace:
      return "trace";
    case MemoryCategory::kMappedSnapshot:
      return "mapped-snapshot";
    case MemoryCategory::kResidentTree:
      return "resident-tree";
  }
  return "?";
}

Status MemoryAccountant::Charge(MemoryCategory category, std::int64_t bytes) {
  if (bytes <= 0) return Status::Ok();
  if (budget_ > 0 && used_ + bytes > budget_) {
    tripped_ = true;
    return ResourceExhausted(
        "memory budget exceeded: charging " + HumanBytes(bytes) + " to " +
        MemoryCategoryName(category) + " would pass " + HumanBytes(budget_) +
        " (" + Breakdown() + ")");
  }
  used_ += bytes;
  std::int64_t& cat = by_category_[static_cast<int>(category)];
  cat += bytes;
  std::int64_t& cat_peak = peak_by_category_[static_cast<int>(category)];
  if (cat > cat_peak) cat_peak = cat;
  if (used_ > peak_) peak_ = used_;
  return Status::Ok();
}

void MemoryAccountant::Release(MemoryCategory category, std::int64_t bytes) {
  if (bytes <= 0) return;
  std::int64_t& cat = by_category_[static_cast<int>(category)];
  if (bytes > cat) bytes = cat;
  cat -= bytes;
  used_ -= bytes;
}

std::string MemoryAccountant::Breakdown() const {
  std::string out = "used=" + HumanBytes(used_);
  for (int c = 0; c < kNumMemoryCategories; ++c) {
    if (by_category_[static_cast<std::size_t>(c)] == 0) continue;
    out += " ";
    out += MemoryCategoryName(static_cast<MemoryCategory>(c));
    out += "=";
    out += HumanBytes(by_category_[static_cast<std::size_t>(c)]);
  }
  return out;
}

Status ResourceGovernor::CheckDeadlineNow() {
  if (!deadline_.has_value()) return Status::Ok();
  ++clock_reads_;
  auto now = std::chrono::steady_clock::now();
  if (now < *deadline_) return Status::Ok();
  auto over = std::chrono::duration_cast<std::chrono::milliseconds>(
      now - *deadline_);
  return DeadlineExceeded("wall-clock deadline exceeded by " +
                          std::to_string(over.count()) + "ms");
}

}  // namespace treewalk
