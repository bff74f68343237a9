#include "common/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/crc32.hpp"

namespace eth {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// ------------------------------------------------------------ XXH64

// Reference digests from the canonical xxHash implementation (seed 0).
TEST(Fingerprint, MatchesKnownXxh64Vectors) {
  EXPECT_EQ(fingerprint_bytes({}), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(fingerprint_string("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(fingerprint_string("abc"), 0x44BC2CF5AD770999ull);
}

TEST(Fingerprint, SeedChangesDigest) {
  const auto data = random_bytes(100, 7);
  EXPECT_NE(fingerprint_bytes(data, 0), fingerprint_bytes(data, 1));
}

TEST(Fingerprint, IncrementalEqualsOneShotAcrossSplits) {
  // Lengths straddling the 32-byte stripe and the 8/4/1-byte tail
  // paths, split at every position.
  for (const std::size_t len : {std::size_t(0), std::size_t(1), std::size_t(7),
                                std::size_t(31), std::size_t(32), std::size_t(33),
                                std::size_t(64), std::size_t(100)}) {
    const auto data = random_bytes(len, len + 1);
    const std::uint64_t whole = fingerprint_bytes(data);
    for (std::size_t cut = 0; cut <= len; cut += (len < 40 ? 1 : 9)) {
      Fingerprinter fp;
      fp.update(data.data(), cut);
      fp.update(data.data() + cut, len - cut);
      EXPECT_EQ(fp.digest(), whole) << "len=" << len << " cut=" << cut;
    }
  }
}

TEST(Fingerprint, ManySmallUpdatesEqualOneShot) {
  const auto data = random_bytes(257, 3);
  Fingerprinter fp;
  for (const std::uint8_t b : data) fp.update(&b, 1);
  EXPECT_EQ(fp.digest(), fingerprint_bytes(data));
}

TEST(Fingerprint, DigestDoesNotDisturbStreamState) {
  const auto data = random_bytes(90, 11);
  Fingerprinter fp;
  fp.update(data.data(), 40);
  (void)fp.digest(); // mid-stream peek
  fp.update(data.data() + 40, 50);
  EXPECT_EQ(fp.digest(), fingerprint_bytes(data));
}

TEST(Fingerprint, LengthPrefixedStringsCannotAlias) {
  Fingerprinter a;
  a.update_string("ab");
  a.update_string("c");
  Fingerprinter b;
  b.update_string("a");
  b.update_string("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Fingerprint, ChainDependsOnBothInputAndSignature) {
  const std::uint64_t a = fingerprint_chain(1, "op");
  EXPECT_EQ(fingerprint_chain(1, "op"), a); // deterministic
  EXPECT_NE(fingerprint_chain(2, "op"), a);
  EXPECT_NE(fingerprint_chain(1, "op2"), a);
  EXPECT_NE(fingerprint_chain(a, "op"), a); // chains don't fix-point
}

// ------------------------------------------------------------- CRC32

/// Bit-at-a-time reference for the reflected 0xEDB88320 polynomial —
/// the definition the slice-by-8 implementation must match.
std::uint32_t crc32_reference(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k)
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesKnownVector) {
  // The classic "123456789" check value for CRC-32/ISO-HDLC.
  const char* s = "123456789";
  const auto span = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s), 9);
  EXPECT_EQ(crc32(span), 0xCBF43926u);
}

TEST(Crc32, SliceBy8MatchesBitwiseReferenceAllLengths) {
  const auto data = random_bytes(300, 5);
  for (std::size_t len = 0; len <= 130; ++len) {
    const auto span = std::span<const std::uint8_t>(data).subspan(0, len);
    EXPECT_EQ(crc32(span), crc32_reference(span, 0)) << "len=" << len;
  }
}

TEST(Crc32, MatchesReferenceAtEveryAlignment) {
  const auto data = random_bytes(128, 9);
  for (std::size_t off = 0; off < 16; ++off) {
    const auto span = std::span<const std::uint8_t>(data).subspan(off, 64 + off);
    EXPECT_EQ(crc32(span), crc32_reference(span, 0)) << "off=" << off;
  }
}

TEST(Crc32, SeedChainingConcatenates) {
  const auto data = random_bytes(200, 13);
  const auto whole = std::span<const std::uint8_t>(data);
  for (const std::size_t cut : {std::size_t(0), std::size_t(1), std::size_t(17),
                                std::size_t(100), std::size_t(200)}) {
    const std::uint32_t chained =
        crc32(whole.subspan(cut), crc32(whole.subspan(0, cut)));
    EXPECT_EQ(chained, crc32(whole)) << "cut=" << cut;
  }
}

TEST(Crc32, NonZeroSeedMatchesReference) {
  const auto data = random_bytes(77, 17);
  EXPECT_EQ(crc32(data, 0xDEADBEEFu), crc32_reference(data, 0xDEADBEEFu));
}

} // namespace
} // namespace eth
