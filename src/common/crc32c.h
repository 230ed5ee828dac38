#ifndef TREEWALK_COMMON_CRC32C_H_
#define TREEWALK_COMMON_CRC32C_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace treewalk {

/// CRC32C (Castagnoli polynomial, reflected 0x82F63B78) of `data`.
/// On x86-64 hosts with SSE4.2 (checked once with cpuid) the crc32
/// instruction runs three streams side by side over 8 KiB stripes,
/// joined with zero-shift tables, and one stream over the tail under
/// 24 KiB; every other host runs a portable slicing-by-8 table loop.
/// Both give the same value on every platform.
/// Known-answer vector (RFC 3720 B.4): Crc32c("123456789") == 0xE3069283.
///
/// Shared framing primitive of every on-disk format in the repo: the
/// write-ahead journal (src/common/journal.h) frames each record with
/// it, and tree snapshots / selector-cache entries (src/tree/snapshot.h,
/// src/logic/selector_cache.h) checksum each section with it.
std::uint32_t Crc32c(std::string_view data);

/// Continues a CRC computation: Crc32cExtend(Crc32c(a), b) ==
/// Crc32c(a + b).  Lets multi-section writers checksum without
/// concatenating.
std::uint32_t Crc32cExtend(std::uint32_t crc, std::string_view data);

/// Little-endian integer framing helpers shared by the CRC-checked
/// formats.  Append to a buffer / read at a byte offset; the Get*
/// functions assume the caller has bounds-checked `at`.
void PutU32Le(std::uint32_t v, std::string& out);
void PutU64Le(std::uint64_t v, std::string& out);
std::uint32_t GetU32Le(std::string_view bytes, std::size_t at);
std::uint64_t GetU64Le(std::string_view bytes, std::size_t at);

/// FNV-1a 64-bit hash; process-independent (unlike std::hash), which is
/// what makes it usable in persistent cache keys.
std::uint64_t Fnv1a64(std::string_view data,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace treewalk

#endif  // TREEWALK_COMMON_CRC32C_H_
