#include "src/base/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define LBC_CRC32C_SSE42 1
#endif

namespace base {
namespace {

// Slicing-by-8 CRC-32C, reflected polynomial 0x82F63B78. Table 0 is the
// classic bytewise table; table k advances a byte's contribution through k
// further zero bytes, so eight lookups fold eight input bytes per step.
constexpr uint32_t kPoly = 0x82F63B78u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = BuildTables();

// Little-endian load, spelled bytewise so it is correct on any host; the
// compiler folds it into one load where the host allows.
inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
}

#ifdef LBC_CRC32C_SSE42
// SSE4.2's crc32 instruction computes this same CRC-32C (reflected
// 0x82F63B78), eight bytes per instruction: ~4x the sliced tables.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p, size_t len,
                                                       uint32_t seed) {
  uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; ++p, --len) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}

bool HaveSse42() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return have;
}
#endif

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
#ifdef LBC_CRC32C_SSE42
  if (HaveSse42()) {
    return Crc32cSse42(static_cast<const uint8_t*>(data), len, seed);
  }
#endif
  return Crc32cPortable(data, len, seed);
}

uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed) {
  const auto& t = kTables;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace base
