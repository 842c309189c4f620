#include "src/base/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/base/rng.h"

namespace {

// Bit-at-a-time CRC-32C: the definition both implementations must
// reproduce exactly.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t len, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  base::Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

TEST(Crc32c, KnownVectors) {
  // Standard CRC-32C test vector: "123456789" -> 0xE3069283.
  EXPECT_EQ(0xE3069283u, base::Crc32c("123456789", 9));
  // 32 zero bytes -> 0x8A9136AA (RFC 3720 appendix).
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(0x8A9136AAu, base::Crc32c(zeros.data(), zeros.size()));
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(0u, base::Crc32c("", 0)); }

TEST(Crc32c, IncrementalMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  size_t len = std::strlen(data);
  uint32_t whole = base::Crc32c(data, len);
  for (size_t split = 0; split <= len; split += 7) {
    uint32_t part = base::Crc32c(data, split);
    part = base::Crc32c(data + split, len - split, part);
    EXPECT_EQ(whole, part) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(64, 0x5A);
  uint32_t clean = base::Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 5) {
    for (int bit = 0; bit < 8; bit += 3) {
      data[byte] ^= (1u << bit);
      EXPECT_NE(clean, base::Crc32c(data.data(), data.size()));
      data[byte] ^= (1u << bit);
    }
  }
}

TEST(Crc32c, SlicedMatchesReferenceAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> data = RandomBytes(1024 + 8, 1);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(ReferenceCrc32c(data.data() + align, len),
                base::Crc32c(data.data() + align, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32c, PortableMatchesReferenceAtEveryLengthAndAlignment) {
  // Crc32c may take the CPU's CRC32C instruction; the table-driven fallback
  // must give the same values wherever it runs.
  const std::vector<uint8_t> data = RandomBytes(1024 + 8, 4);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint32_t reference = ReferenceCrc32c(data.data() + align, len, 0x1234u);
      ASSERT_EQ(reference, base::Crc32cPortable(data.data() + align, len, 0x1234u))
          << "align " << align << " len " << len;
      ASSERT_EQ(reference, base::Crc32c(data.data() + align, len, 0x1234u))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32c, RandomIncrementalSplitsOfOneMebibyte) {
  const std::vector<uint8_t> data = RandomBytes(1 << 20, 2);
  const uint32_t whole = ReferenceCrc32c(data.data(), data.size());
  EXPECT_EQ(whole, base::Crc32c(data.data(), data.size()));
  base::Rng rng(3);
  for (int round = 0; round < 8; ++round) {
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < data.size()) {
      size_t n = std::min<size_t>(data.size() - pos, rng.Uniform(4096));
      crc = base::Crc32c(data.data() + pos, n, crc);
      pos += n;
    }
    EXPECT_EQ(whole, crc) << "round " << round;
  }
}

}  // namespace
