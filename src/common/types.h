#ifndef DURASSD_COMMON_TYPES_H_
#define DURASSD_COMMON_TYPES_H_

#include <cstdint>

namespace durassd {

/// Simulated time in nanoseconds since simulation start. All device latency
/// modelling and client scheduling use this virtual clock, never wall time,
/// so runs are deterministic and 128-client benchmarks finish in seconds.
using SimTime = int64_t;

constexpr SimTime kNanosecond = 1;
constexpr SimTime kMicrosecond = 1000 * kNanosecond;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;

/// Logical page number in a device's (or file's) 4KB-sector address space.
using Lpn = uint64_t;
/// Physical page number inside the flash array.
using Ppn = uint64_t;
/// Log sequence number in minibase's write-ahead log.
using Lsn = uint64_t;
/// minibase page id within a database file.
using PageId = uint64_t;
/// Transaction identifier.
using TxnId = uint64_t;

constexpr Ppn kInvalidPpn = ~0ull;
constexpr Lpn kInvalidLpn = ~0ull;
constexpr PageId kInvalidPageId = ~0ull;
constexpr Lsn kInvalidLsn = ~0ull;

constexpr uint32_t kKiB = 1024;
constexpr uint64_t kMiB = 1024ull * kKiB;
constexpr uint64_t kGiB = 1024ull * kMiB;

}  // namespace durassd

#endif  // DURASSD_COMMON_TYPES_H_
