// Known-answer vectors and framing-helper checks for the shared CRC32C
// module (src/common/crc32c.h).  The vectors pin the polynomial and
// bit-reflection conventions: a table regenerated with the wrong
// polynomial (e.g. plain CRC32 0xEDB88320) passes every round-trip test
// in the repo while silently breaking compatibility of all on-disk
// formats — only fixed expected values catch that.

#include "src/common/crc32c.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/crc32c_internal.h"

namespace treewalk {
namespace {

// A bit-by-bit model of the reflected 0x82F63B78 polynomial.
std::uint32_t BitwiseCrc32c(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

// Deterministic pseudo-random bytes.
std::string RandomBytes(std::size_t n, std::uint64_t state) {
  std::string out(n, '\0');
  for (char& c : out) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(state >> 56);
  }
  return out;
}

// RFC 3720 (iSCSI) appendix B.4 plus the classic check values used by
// every CRC catalogue for CRC-32C (Castagnoli).
TEST(Crc32c, KnownAnswerVectors) {
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c("a"), 0xC1D04330u);
  EXPECT_EQ(Crc32c("abc"), 0x364B3FB7u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
}

TEST(Crc32c, Rfc3720AllZeros) {
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32c, Rfc3720AllOnes) {
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
}

TEST(Crc32c, Rfc3720Incrementing) {
  std::string data(32, '\0');
  for (int i = 0; i < 32; ++i) data[i] = static_cast<char>(i);
  EXPECT_EQ(Crc32c(data), 0x46DD794Eu);
}

TEST(Crc32c, ExtendComposesAtEverySplitPoint) {
  const std::string data = "123456789";
  const std::uint32_t whole = Crc32c(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::string_view a(data.data(), split);
    const std::string_view b(data.data() + split, data.size() - split);
    EXPECT_EQ(Crc32cExtend(Crc32c(a), b), whole) << "split at " << split;
  }
}

TEST(Crc32c, ExtendWithEmptyIsIdentity) {
  const std::uint32_t crc = Crc32c("payload");
  EXPECT_EQ(Crc32cExtend(crc, ""), crc);
}

TEST(Crc32c, SingleBitFlipAlwaysDetected) {
  const std::string base = "treewalk snapshot section";
  const std::uint32_t good = Crc32c(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = base;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      EXPECT_NE(Crc32c(corrupt), good) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32c, MatchesBitwiseReferenceOnRandomBuffers) {
  // The production routine against the bit-by-bit model on every
  // length in [0, 200] plus a megabyte buffer — exercises the word-
  // folding loop (hardware or slicing-by-8, whichever this host runs),
  // its unaligned tail, and the boundary between them.
  const std::string bytes = RandomBytes(201, 0x9E3779B97F4A7C15ull);
  for (std::size_t len = 0; len <= 200; ++len) {
    const std::string_view buf(bytes.data(), len);
    ASSERT_EQ(Crc32c(buf), BitwiseCrc32c(buf)) << "len=" << len;
  }
  const std::string big = RandomBytes(1 << 20, 0x2545F4914F6CDD1Dull);
  EXPECT_EQ(Crc32c(big), BitwiseCrc32c(big));
  // Extend across an odd split of the big buffer too.
  EXPECT_EQ(Crc32cExtend(Crc32c(big.substr(0, 12345)),
                         std::string_view(big).substr(12345)),
            Crc32c(big));
}

// The hardware path runs three streams over three 8 KiB stripes, then
// one stream over the tail under 24 KiB; the portable path folds 8
// bytes at a time.  Lengths on both sides of the stripe edge, around
// 768 bytes (tail only) and past two rounds of stripes, from every
// start offset modulo 8, whole and split inside a stripe, must give the
// bit-by-bit model's value on both paths — the portable one is the only
// path a host without SSE4.2 runs, and this is the only test that
// reaches it on one with.
TEST(Crc32c, StripeEdgesMatchReferenceOnEveryPath) {
  constexpr std::size_t kShort = 3 * 256;
  constexpr std::size_t kLong = 3 * 8192;
  std::vector<std::size_t> lengths;
  for (std::size_t edge : {kShort, kLong}) {
    for (int delta : {-8, -1, 0, 1, 8}) lengths.push_back(edge + delta);
  }
  lengths.push_back(2 * kLong + kShort + 5);
  // Splits land inside the tail, inside a stripe, and on either side
  // of a stripe edge.
  const std::size_t splits[] = {1,    5,    100,  256 + 3, 767,
                                4097, 8191, 8193, kLong + 300,
                                kLong + kShort + 1};
  const std::string storage = RandomBytes(2 * kLong + kShort + 5 + 8, 7);
  for (std::size_t len : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view data(storage.data() + offset, len);
      const std::uint32_t want = BitwiseCrc32c(data);
      ASSERT_EQ(Crc32c(data), want) << "len=" << len << " offset=" << offset;
      ASSERT_EQ(Crc32cExtendPortable(0, data), want)
          << "portable len=" << len << " offset=" << offset;
      for (std::size_t split : splits) {
        if (split >= len) continue;
        const std::string_view head = data.substr(0, split);
        const std::string_view tail = data.substr(split);
        EXPECT_EQ(Crc32cExtend(Crc32c(head), tail), want)
            << "len=" << len << " offset=" << offset << " split=" << split;
        EXPECT_EQ(Crc32cExtendPortable(Crc32cExtendPortable(0, head), tail),
                  want)
            << "portable len=" << len << " offset=" << offset
            << " split=" << split;
      }
    }
  }
}

TEST(Crc32c, PortablePathKnownAnswers) {
  EXPECT_EQ(Crc32cExtendPortable(0, ""), 0x00000000u);
  EXPECT_EQ(Crc32cExtendPortable(0, "123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32cExtendPortable(0, std::string(32, '\0')), 0x8A9136AAu);
  const std::string big = RandomBytes(1 << 20, 0x2545F4914F6CDD1Dull);
  EXPECT_EQ(Crc32cExtendPortable(0, big), BitwiseCrc32c(big));
}

TEST(LeFraming, PutGetRoundTrip) {
  std::string out;
  PutU32Le(0xDEADBEEFu, out);
  PutU64Le(0x0123456789ABCDEFull, out);
  ASSERT_EQ(out.size(), 12u);
  EXPECT_EQ(GetU32Le(out, 0), 0xDEADBEEFu);
  EXPECT_EQ(GetU64Le(out, 4), 0x0123456789ABCDEFull);
  // Byte order is little-endian on every platform by construction.
  EXPECT_EQ(static_cast<unsigned char>(out[0]), 0xEFu);
  EXPECT_EQ(static_cast<unsigned char>(out[3]), 0xDEu);
}

TEST(Fnv1a64, StableReferenceValues) {
  // Canonical FNV-1a test vectors; these must never change across
  // platforms or releases — persistent cache keys depend on them.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a64, SeedChainsLikeConcatenation) {
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
}

}  // namespace
}  // namespace treewalk
