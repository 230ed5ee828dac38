#include "src/common/crc32c.h"

#include <cstddef>
#include <cstring>

#include "src/common/crc32c_internal.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define TREEWALK_CRC32C_X86 1
#include <cpuid.h>
#endif

namespace treewalk {

namespace {

/// Slicing-by-8 tables for the reflected polynomial 0x82F63B78:
/// table[0] is the classic byte-at-a-time table; table[k][b] advances a
/// byte sitting k positions deeper in the message, so eight bytes fold
/// with no loop-carried table dependency (~5x over byte-at-a-time —
/// snapshot loads checksum megabytes per call).  Generated on first
/// use.
struct Crc32cTables {
  std::uint32_t slice[8][256];
};

const Crc32cTables& SlicingTables() {
  static const Crc32cTables& tables = *[] {
    auto* t = new Crc32cTables;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t->slice[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t->slice[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = t->slice[0][crc & 0xff] ^ (crc >> 8);
        t->slice[k][i] = crc;
      }
    }
    return t;
  }();
  return tables;
}

std::uint32_t ExtendPortable(std::uint32_t crc, const unsigned char* p,
                             std::size_t n) {
  const auto& t = SlicingTables().slice;
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The 64-bit fold XORs the running crc into the low word, which is
  // only the first four message bytes on little-endian hosts.
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;
    crc = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
          t[5][(word >> 16) & 0xff] ^ t[4][(word >> 24) & 0xff] ^
          t[3][(word >> 32) & 0xff] ^ t[2][(word >> 40) & 0xff] ^
          t[1][(word >> 48) & 0xff] ^ t[0][word >> 56];
    p += 8;
    n -= 8;
  }
#endif
  while (n--) {
    crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#if TREEWALK_CRC32C_X86

std::uint64_t Load64(const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

/// x·M over GF(2), where `mat[i]` is the image of bit i.
constexpr std::uint32_t Gf2Times(const std::uint32_t (&mat)[32],
                                 std::uint32_t x) {
  std::uint32_t sum = 0;
  for (int i = 0; x != 0; ++i, x >>= 1) {
    if ((x & 1) != 0) sum ^= mat[i];
  }
  return sum;
}

/// Advances a CRC register past `bytes` zero bytes (no pre- or
/// post-inversion).  The register update is linear over GF(2), so for
/// any split of a message A·B, crc(A·B) = Shift(crc(A)) ^ crc0(B), with
/// Shift for |B| bytes and crc0 started from a zero register: that is
/// how stripes checksummed side by side join.  The operator is the
/// one-zero-bit step squared up to 8·`bytes` bits (`bytes` a power of
/// two); the tables hold its image of every byte value at each of the
/// register's four byte positions, as in Mark Adler's crc32c.c.  They
/// are computed at compile time, so no process spends time building
/// them.
class ZeroShift {
 public:
  explicit constexpr ZeroShift(std::size_t bytes) {
    std::uint32_t op[32] = {};
    op[0] = 0x82F63B78u;
    for (int i = 1; i < 32; ++i) op[i] = std::uint32_t{1} << (i - 1);
    for (std::size_t bits = 1; bits < 8 * bytes; bits *= 2) {
      std::uint32_t square[32] = {};
      for (int i = 0; i < 32; ++i) square[i] = Gf2Times(op, op[i]);
      for (int i = 0; i < 32; ++i) op[i] = square[i];
    }
    for (int k = 0; k < 4; ++k) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        table_[k][b] = Gf2Times(op, b << (8 * k));
      }
    }
  }

  std::uint32_t operator()(std::uint32_t crc) const {
    return table_[0][crc & 0xff] ^ table_[1][(crc >> 8) & 0xff] ^
           table_[2][(crc >> 16) & 0xff] ^ table_[3][crc >> 24];
  }

 private:
  std::uint32_t table_[4][256] = {};
};

/// Hardware path: the SSE4.2 crc32 instruction implements exactly this
/// polynomial.  Compiled with a per-function target attribute so the
/// translation unit itself needs no -msse4.2, and only called after a
/// cpuid check.
///
/// One crc32 stream waits out the instruction's 3-cycle latency at
/// every word.  While at least three 8 KiB stripes remain, three
/// streams run side by side, one per stripe, the second and third from
/// a zero register, and the stripes are joined with ZeroShift.  The
/// tail under 24 KiB runs as one stream: ~3 µs at most, of which a
/// second level of 256-byte stripes saved ~2 µs (EXPERIMENTS E33).
__attribute__((target("sse4.2"))) std::uint32_t ExtendHw(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  constexpr std::size_t kStripe = 8192;
  static constexpr ZeroShift kShift(kStripe);
  std::uint64_t c = crc;
  while (n >= 3 * kStripe) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (const unsigned char* end = p + kStripe; p < end; p += 8) {
      c = __builtin_ia32_crc32di(c, Load64(p));
      c1 = __builtin_ia32_crc32di(c1, Load64(p + kStripe));
      c2 = __builtin_ia32_crc32di(c2, Load64(p + 2 * kStripe));
    }
    c = kShift(static_cast<std::uint32_t>(c)) ^ c1;
    c = kShift(static_cast<std::uint32_t>(c)) ^ c2;
    p += 2 * kStripe;
    n -= 3 * kStripe;
  }
  while (n >= 8) {
    c = __builtin_ia32_crc32di(c, Load64(p));
    p += 8;
    n -= 8;
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  while (n--) {
    c32 = __builtin_ia32_crc32qi(c32, *p++);
  }
  return c32;
}

bool HaveSse42() {
  static const bool have = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    return (ecx & bit_SSE4_2) != 0;
  }();
  return have;
}

#endif  // TREEWALK_CRC32C_X86

}  // namespace

std::uint32_t Crc32c(std::string_view data) {
  return Crc32cExtend(0, data);
}

std::uint32_t Crc32cExtendPortable(std::uint32_t crc, std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  return ExtendPortable(crc ^ 0xFFFFFFFFu, p, data.size()) ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32cExtend(std::uint32_t crc, std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  crc ^= 0xFFFFFFFFu;
#if TREEWALK_CRC32C_X86
  if (HaveSse42()) {
    return ExtendHw(crc, p, data.size()) ^ 0xFFFFFFFFu;
  }
#endif
  return ExtendPortable(crc, p, data.size()) ^ 0xFFFFFFFFu;
}

void PutU32Le(std::uint32_t v, std::string& out) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void PutU64Le(std::uint64_t v, std::string& out) {
  PutU32Le(static_cast<std::uint32_t>(v & 0xFFFFFFFFu), out);
  PutU32Le(static_cast<std::uint32_t>(v >> 32), out);
}

std::uint32_t GetU32Le(std::string_view bytes, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 1]))
             << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 2]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 3]))
             << 24;
}

std::uint64_t GetU64Le(std::string_view bytes, std::size_t at) {
  return static_cast<std::uint64_t>(GetU32Le(bytes, at)) |
         static_cast<std::uint64_t>(GetU32Le(bytes, at + 4)) << 32;
}

std::uint64_t Fnv1a64(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace treewalk
