#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define DURASSD_CRC32C_SSE42 1
#endif

namespace durassd {

namespace {

// Table-driven CRC-32C, reflected polynomial 0x82F63B78.
constexpr uint32_t kPoly = 0x82F63B78u;

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

#ifdef DURASSD_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes the same reflected CRC-32C, 8 bytes
// per step. Compiled for SSE4.2 on this function only, so the binary still
// runs on CPUs without it; Crc32c picks the path at run time.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                       size_t n,
                                                       uint32_t crc) {
  uint64_t crc64 = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

bool CpuHasSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = MakeTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
#ifdef DURASSD_CRC32C_SSE42
  static const bool kHardware = CpuHasSse42();
  if (kHardware) {
    return ~Crc32cSse42(static_cast<const uint8_t*>(data), n, ~seed);
  }
#endif
  return Crc32cPortable(data, n, seed);
}

}  // namespace durassd
