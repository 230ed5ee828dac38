#ifndef TREEWALK_COMMON_CRC32C_INTERNAL_H_
#define TREEWALK_COMMON_CRC32C_INTERNAL_H_

#include <cstdint>
#include <string_view>

// Not part of the crc32c.h interface: a way in to the code path that
// the host's dispatch would not pick.

namespace treewalk {

/// Crc32cExtend through the portable slicing-by-8 path, whatever the
/// host supports.  On x86-64 with SSE4.2 Crc32cExtend takes the
/// hardware path, so this is how tests reach the code that a host
/// without SSE4.2 (or a non-x86 host) runs.
std::uint32_t Crc32cExtendPortable(std::uint32_t crc, std::string_view data);

}  // namespace treewalk

#endif  // TREEWALK_COMMON_CRC32C_INTERNAL_H_
