#ifndef TREEWALK_COMMON_PARSE_DECIMAL_H_
#define TREEWALK_COMMON_PARSE_DECIMAL_H_

#include <cctype>
#include <charconv>
#include <cstring>
#include <limits>
#include <system_error>

namespace treewalk {

/// Reads `text` into `out` as a decimal number: digits only (no sign,
/// space or suffix), at most `max`.  Numeric command-line flags and the
/// `.twp` register arity are read through it, so a malformed value is
/// an error, never a silent 0.  `out` is untouched on failure.
template <typename T>
bool ParseDecimal(const char* text, T& out,
                  T max = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [last, ec] = std::from_chars(text, end, value);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
      ec != std::errc() || last != end || value > max) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace treewalk

#endif  // TREEWALK_COMMON_PARSE_DECIMAL_H_
