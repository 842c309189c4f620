// CRC-32C (Castagnoli) checksums used to protect log records against torn
// writes and corruption on the durable store.
#ifndef SRC_BASE_CRC32_H_
#define SRC_BASE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace base {

// Computes CRC-32C over `data[0..len)` starting from `seed` (pass 0 for a
// fresh checksum; pass a previous result to extend it over more data).
// Uses the CPU's CRC32C instruction where there is one (x86-64 SSE4.2).
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

// The table-driven CRC-32C that Crc32c falls back to on other CPUs; same
// values. Exposed so tests check it on hosts that take the other path.
uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed = 0);

}  // namespace base

#endif  // SRC_BASE_CRC32_H_
