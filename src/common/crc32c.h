#ifndef DURASSD_COMMON_CRC32C_H_
#define DURASSD_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace durassd {

/// CRC-32C (Castagnoli). Used for page checksums so torn writes injected by
/// the power-failure machinery are detectable exactly like InnoDB detects
/// partial page writes. Runs on the SSE4.2 crc32 instruction when the CPU
/// has it, else on Crc32cPortable; both give identical results.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// Byte-at-a-time table CRC-32C: the fallback on CPUs without SSE4.2 and
/// the reference the tests hold the dispatched Crc32c to.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

}  // namespace durassd

#endif  // DURASSD_COMMON_CRC32C_H_
