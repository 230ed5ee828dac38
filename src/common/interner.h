#ifndef TREEWALK_COMMON_INTERNER_H_
#define TREEWALK_COMMON_INTERNER_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/data_value.h"

namespace treewalk {

/// Bidirectional map between strings and dense int handles.  Used for
/// tree labels (alphabet Sigma), attribute names (set A), and for
/// embedding textual XML attribute values into the data domain D.
///
/// Handles are assigned consecutively from 0 in insertion order, so they
/// can index vectors directly.
class Interner {
 public:
  Interner() = default;

  /// Returns the handle for `s`, inserting it if new.
  std::int64_t Intern(std::string_view s);

  /// Returns the handle for `s`, or -1 if `s` was never interned.
  std::int64_t Find(std::string_view s) const;

  /// Returns the string for a handle previously returned by Intern().
  const std::string& NameOf(std::int64_t handle) const;

  /// True if `handle` is a valid interned handle.
  bool Contains(std::int64_t handle) const {
    return handle >= 0 && handle < static_cast<std::int64_t>(names_.size());
  }

  std::size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, std::int64_t> index_;
  std::vector<std::string> names_;
};

/// Embeds interned strings into D as data values.  Interner handles are
/// small non-negative ints, which would collide with numeric data values;
/// ValueInterner offsets them into a reserved high range of D so string
/// values and small integers coexist in one tree.
///
/// Internally synchronized: formula evaluation interns string constants
/// through the tree's shared ValueInterner, so concurrent runs over one
/// tree (src/engine) race on it without the lock.  Handle *values*
/// depend on insertion order, so on a shared tree they depend on how
/// the runs interleave; data values are only compared for equality, so
/// no result does (docs/ENGINE.md).
class ValueInterner {
 public:
  /// First data value used for interned strings.
  static constexpr DataValue kStringBase = DataValue{1} << 62;

  /// The integer `text` spells ('-'? digits), or nullopt when it spells
  /// none, overflows, or lies outside the open interval (kBottom,
  /// kStringBase): delimiters carry kBottom and interned strings the
  /// values from kStringBase up, so such an integer would compare equal
  /// to one of them.
  static std::optional<DataValue> ParseInteger(std::string_view text);

  /// Returns the data value representing string `s`.
  DataValue ValueFor(std::string_view s) {
    std::lock_guard<std::mutex> lock(mutex_);
    return kStringBase + interner_.Intern(s);
  }

  /// True if `v` denotes an interned string (as opposed to a number).
  static bool IsString(DataValue v) { return v >= kStringBase; }

  /// Renders a data value: the interned string if it is one, otherwise
  /// the decimal number, and "_|_" for kBottom.
  std::string Render(DataValue v) const;

  /// Number of interned strings; with NameAt() this enumerates the pool
  /// in handle order, which is how snapshots persist it
  /// (docs/SNAPSHOT.md) — re-interning the strings in that order on
  /// load reproduces every handle, so raw attribute values stay valid.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return interner_.size();
  }
  /// String of handle `i` (0 <= i < size()), by value: the lock cannot
  /// protect a returned reference.
  std::string NameAt(std::int64_t i) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return interner_.NameOf(i);
  }

 private:
  mutable std::mutex mutex_;
  Interner interner_;
};

}  // namespace treewalk

#endif  // TREEWALK_COMMON_INTERNER_H_
