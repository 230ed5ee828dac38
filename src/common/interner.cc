#include "src/common/interner.h"

#include <cassert>
#include <charconv>

namespace treewalk {

std::int64_t Interner::Intern(std::string_view s) {
  auto it = index_.find(std::string(s));
  if (it != index_.end()) return it->second;
  std::int64_t handle = static_cast<std::int64_t>(names_.size());
  names_.emplace_back(s);
  index_.emplace(names_.back(), handle);
  return handle;
}

std::int64_t Interner::Find(std::string_view s) const {
  auto it = index_.find(std::string(s));
  return it == index_.end() ? -1 : it->second;
}

const std::string& Interner::NameOf(std::int64_t handle) const {
  assert(Contains(handle));
  return names_[static_cast<std::size_t>(handle)];
}

std::optional<DataValue> ValueInterner::ParseInteger(std::string_view text) {
  DataValue v = 0;
  const char* end = text.data() + text.size();
  const auto [last, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || last != end || v == kBottom ||
      v >= kStringBase) {
    return std::nullopt;
  }
  return v;
}

std::string ValueInterner::Render(DataValue v) const {
  if (v == kBottom) return "_|_";
  if (IsString(v)) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t handle = v - kStringBase;
    if (interner_.Contains(handle)) return interner_.NameOf(handle);
    return "<str#" + std::to_string(handle) + ">";
  }
  return std::to_string(v);
}

}  // namespace treewalk
