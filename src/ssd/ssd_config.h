#ifndef DURASSD_SSD_SSD_CONFIG_H_
#define DURASSD_SSD_SSD_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/types.h"
#include "flash/fault_model.h"
#include "flash/geometry.h"

namespace durassd {

/// Full configuration of a simulated SSD. The presets at the bottom model
/// the four devices of the paper's Table 1: DuraSSD (512MB durable cache),
/// SSD-A (512MB volatile cache), SSD-B (128MB volatile cache), and — via
/// HddDevice — a Seagate Cheetah 15K.6 disk.
struct SsdConfig {
  std::string name = "DuraSSD";
  FlashGeometry geometry;

  /// Logical sector (mapping granularity): the paper's DuraSSD maps 4KB
  /// logical pages onto 8KB NAND pages (Sec. 3.1.2).
  uint32_t sector_size = 4 * kKiB;

  /// Fraction of raw flash reserved for over-provisioning (GC headroom).
  double over_provision = 0.07;
  /// GC starts when a plane's free-block list drops below this.
  uint32_t gc_free_block_threshold = 2;
  /// Blocks per plane reserved as the power-loss dump area (Sec. 3.4.1).
  uint32_t dump_blocks_per_plane = 2;

  // --- Destage placement policy (ROADMAP item 2, dm-writeboost style) ---
  /// How the lazy destage scheduler places drained sectors on NAND:
  enum class DestageMode {
    /// Per-page programs through the page-mapping FTL's normal allocator
    /// (the paper's design).
    kInPlace,
    /// Coalesce the pending buffer into large sequential log segments
    /// (header page with the LPN map + per-sector CRC32C, then data pages
    /// striped one per plane) appended to a dedicated log region. Segments
    /// are validated by checksum on recovery and a torn tail segment is
    /// truncated. Requires the durable cache; ignored otherwise.
    kLogStructured,
  };
  DestageMode destage_mode = DestageMode::kInPlace;
  /// Blocks per plane reserved as the sequential log region. 0 = auto:
  /// max(2, blocks_per_plane / 8) when kLogStructured, none for kInPlace.
  uint32_t log_blocks_per_plane = 0;
  /// Data pages per log segment (the header page is extra). 0 = auto: one
  /// page per plane minus the header, clamped so the segment's LPN map +
  /// CRCs fit one header page.
  uint32_t log_segment_pages = 0;

  // --- Device cache ---
  /// Write cache enabled ("Storage Cache ON" rows of Table 1). When false
  /// the device is write-through: each write programs NAND synchronously
  /// and persists its mapping entry before acknowledging.
  bool cache_enabled = true;
  /// Capacitor-backed cache (the DuraSSD contribution). When true, every
  /// acknowledged write is atomic + durable; on power failure the cache and
  /// dirty mapping entries are dumped to the dump area on capacitor power.
  bool durable_cache = false;
  /// Write-buffer frames (in sectors). The paper argues a few MB suffices
  /// to fill all pipelines (Sec. 3.1.1): 2048 x 4KB = 8 MiB default.
  uint32_t write_buffer_sectors = 2048;
  /// Total cache entries retained for read hits (write buffer + clean).
  uint32_t cache_capacity_sectors = 16384;
  /// Bytes the tantalum capacitors can flush after power loss ("dozens of
  /// megabytes", Sec. 3.1). The dump must fit or recovery is incomplete.
  uint64_t capacitor_budget_bytes = 64 * kMiB;

  // --- Destage scheduler (Sec. 3.1.1: lazy destage fills every pipeline) ---
  // Dirty sectors accumulate in the write buffer and drain in batches on a
  // full batch, idle media, frame pressure, FLUSH or the idle threshold;
  // the power-cut dump covers whatever is still pending. Each program goes
  // to the least-busy plane, and two full pages pair into one multi-plane
  // program whenever the geometry has sibling planes (planes_per_chip >= 2).
  /// Batch threshold: once this many full pages are pending, a drain round
  /// issues up to this many of them.
  uint32_t destage_batch_pages = 256;
  /// Dirty sectors older than this are destaged when the next host command
  /// arrives (the device exploits its own idle time).
  SimTime destage_idle_ns = 1 * kMillisecond;

  // --- Host interface & firmware timing ---
  /// SATA 3.0-class bus.
  double bus_write_bytes_per_ns = 0.60;  ///< ~600 MB/s effective.
  double bus_read_bytes_per_ns = 0.55;   ///< ~550 MB/s effective.
  SimTime bus_cmd_overhead = 3 * kMicrosecond;
  /// Firmware command pipeline: `fw_parallelism` commands processed
  /// concurrently, each costing fw_base + fw_per_extra_sector * (nsec-1).
  uint32_t fw_parallelism = 3;
  SimTime fw_write_base = 55 * kMicrosecond;
  SimTime fw_write_per_extra_sector = 50 * kMicrosecond;
  SimTime fw_read_base = 4 * kMicrosecond;
  SimTime fw_read_per_extra_sector = 2 * kMicrosecond;

  // --- FLUSH CACHE cost model (Fig. 2) ---
  /// Fixed firmware overhead of a FLUSH CACHE: quiescing queues and
  /// persisting FTL metadata/journal.
  SimTime flush_fixed_overhead = 3200 * kMicrosecond;
  /// Mapping entries that fit one NAND journal page when persisting.
  uint32_t mapping_entries_per_page = 1024;
  /// The firmware checkpoints its mapping journal on its own once this many
  /// entries are dirty, like real controllers do; only writes after the
  /// last internal checkpoint are at risk on a volatile device.
  uint32_t mapping_autopersist_threshold = 65536;

  /// NCQ depth (SATA: 31/32 outstanding commands).
  uint32_t ncq_depth = 32;
  /// Ordered command queue (DuraSSD firmware feature, Sec. 3.3). Keeps the
  /// host-visible completion order equal to arrival order so WAL ordering
  /// survives without barriers.
  bool ordered_queue = true;
  /// How FLUSH CACHE is implemented (Sec. 3.3 discusses both):
  enum class FlushMode {
    /// Drain the cache and persist the mapping — the T13 semantics every
    /// commodity device implements.
    kFullFlush,
    /// The alternative the paper leaves as future work: with a durable
    /// cache, FLUSH CACHE only needs to enforce ordering, so it completes
    /// once all previously arrived commands are acknowledged — no drain.
    /// Lets unmodified hosts (barriers ON) get nobarrier-class speed.
    /// Ignored (treated as kFullFlush) on volatile-cache devices.
    kOrderedNoDrain,
  };
  FlushMode flush_mode = FlushMode::kFullFlush;

  /// Whether host payload bytes enter the device. False runs timing-only
  /// (large benchmarks): a host sector carries no bytes into the cache or
  /// onto NAND, and reads of it return zeros. Everything else is the same
  /// in both modes, recovery included: the dump pages and log-segment
  /// headers the controller writes for itself are real bytes either way.
  bool store_data = true;

  // --- NAND fault injection & ECC (all-zero rates = exact seed behavior) ---
  /// Fault injector knobs; see FaultInjector::Options. Defaults inject
  /// nothing and perturb nothing.
  FaultInjector::Options faults;
  /// Raw bit errors per page the controller's ECC corrects in one shot.
  uint32_t ecc_correctable_bits = 8;
  /// Read-retry attempts when raw errors exceed the ECC budget.
  uint32_t read_retry_limit = 4;
  /// Fresh pages tried when a NAND program reports failure.
  uint32_t program_retry_limit = 3;

  /// Log-region reservation with the 0 = auto default resolved. Zero unless
  /// the device actually runs log-structured destage (which needs a
  /// durable write cache).
  uint32_t resolved_log_blocks_per_plane() const {
    if (destage_mode != DestageMode::kLogStructured || !cache_enabled ||
        !durable_cache) {
      return 0;
    }
    const uint32_t want = log_blocks_per_plane != 0
                              ? log_blocks_per_plane
                              : std::max(2u, geometry.blocks_per_plane / 8);
    // Never eat into the dump area or the last few main-area blocks.
    const uint32_t ceiling =
        geometry.blocks_per_plane > dump_blocks_per_plane + 4
            ? geometry.blocks_per_plane - dump_blocks_per_plane - 4
            : 0;
    return std::min(want, ceiling);
  }

  /// Data pages per log segment with the 0 = auto default resolved: one
  /// page per plane (minus the header page), clamped so the header's LPN
  /// map + per-sector CRC32C entries fit one page.
  uint32_t resolved_log_segment_pages() const {
    uint32_t pages = log_segment_pages != 0
                         ? log_segment_pages
                         : std::max(1u, geometry.total_planes() - 1);
    // Header layout: magic u32 + seq u64 + count u32 + count * (lpn u64 +
    // crc u32) + header crc u32 = 20 + 12 * count bytes.
    const uint32_t sectors_per_page = geometry.page_size / sector_size;
    const uint32_t max_sectors = (geometry.page_size - 20) / 12;
    pages = std::min(pages, std::max(1u, max_sectors / sectors_per_page));
    return pages;
  }

  uint64_t logical_sectors() const {
    const double usable =
        static_cast<double>(geometry.total_bytes()) * (1.0 - over_provision);
    // Dump area and log region are also carved out of raw capacity.
    const uint64_t reserved_blocks =
        static_cast<uint64_t>(dump_blocks_per_plane) +
        resolved_log_blocks_per_plane();
    const uint64_t reserved_bytes = reserved_blocks * geometry.total_planes() *
                                    geometry.pages_per_block *
                                    geometry.page_size;
    const double net = usable - static_cast<double>(reserved_bytes);
    return net <= 0 ? 0 : static_cast<uint64_t>(net) / sector_size;
  }

  // ---------------------------------------------------------------------
  // Presets (calibrated against Table 1; see EXPERIMENTS.md).
  // ---------------------------------------------------------------------

  /// The paper's prototype: durable 512MB cache, ordered NCQ, 4KB mapping.
  static SsdConfig DuraSsd() {
    SsdConfig c;
    c.name = "DuraSSD";
    c.durable_cache = true;
    c.ordered_queue = true;
    return c;
  }

  /// Commodity SSD-A: 512MB volatile cache, slower firmware.
  static SsdConfig SsdA() {
    SsdConfig c;
    c.name = "SSD-A";
    c.durable_cache = false;
    c.fw_write_base = 82 * kMicrosecond;
    c.flush_fixed_overhead = 2900 * kMicrosecond;
    c.ordered_queue = false;
    return c;
  }

  /// Commodity SSD-B: 128MB volatile cache, cheap flush but slow commands.
  static SsdConfig SsdB() {
    SsdConfig c;
    c.name = "SSD-B";
    c.durable_cache = false;
    c.fw_write_base = 112 * kMicrosecond;
    c.flush_fixed_overhead = 900 * kMicrosecond;
    c.write_buffer_sectors = 512;
    c.cache_capacity_sectors = 4096;
    c.ordered_queue = false;
    // SSD-B programs faster NAND but has fewer channels.
    c.geometry.channels = 4;
    c.geometry.blocks_per_plane = 2 * 96;
    c.geometry.program_latency = 700 * kMicrosecond;
    return c;
  }

  /// Small-geometry variant of any preset, for unit tests.
  static SsdConfig Tiny(bool durable = true) {
    SsdConfig c = durable ? DuraSsd() : SsdA();
    c.geometry = FlashGeometry::Tiny();
    c.write_buffer_sectors = 32;
    c.cache_capacity_sectors = 64;
    c.dump_blocks_per_plane = 2;
    c.capacitor_budget_bytes = 1 * kMiB;
    c.over_provision = 0.25;
    return c;
  }
};

}  // namespace durassd

#endif  // DURASSD_SSD_SSD_CONFIG_H_
