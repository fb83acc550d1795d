#ifndef DURASSD_SSD_SSD_CONFIG_H_
#define DURASSD_SSD_SSD_CONFIG_H_

#include <cstdint>

#include "common/types.h"
#include "flash/fault_model.h"
#include "flash/geometry.h"

namespace durassd {

/// Configuration of a simulated SSD: only the settings some preset, bench
/// or crash scenario varies. The presets at the bottom model the four
/// devices of the paper's Table 1: DuraSSD (512MB durable cache), SSD-A
/// (512MB volatile cache), SSD-B (128MB volatile cache), and — via
/// HddDevice — a Seagate Cheetah 15K.6 disk. Every calibration value no
/// preset changes is a named constant next to its one use: firmware read
/// and per-sector costs, bus read rate, NCQ depth, mapping-journal page and
/// checkpoint sizes and the idle-destage threshold in ssd_device.cc; the GC
/// trigger and the ECC retry limits in the FTL.
struct SsdConfig {
  FlashGeometry geometry;

  /// Logical sector (mapping granularity): the paper's DuraSSD maps 4KB
  /// logical pages onto 8KB NAND pages (Sec. 3.1.2).
  uint32_t sector_size = 4 * kKiB;

  /// Fraction of raw flash reserved for over-provisioning (GC headroom).
  double over_provision = 0.07;
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
    /// truncated. Requires the durable cache; ignored otherwise. SsdDevice
    /// sizes the log region and the segment from the geometry.
    kLogStructured,
  };
  DestageMode destage_mode = DestageMode::kInPlace;

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
  // full batch, idle media, frame pressure, FLUSH or the idle threshold
  // (1 ms after the last sector joined); the power-cut dump covers whatever
  // is still pending. Each program goes to the least-busy plane, and two
  // full pages pair into one multi-plane program whenever the geometry has
  // sibling planes (planes_per_chip >= 2).
  /// Batch threshold: once this many full pages are pending, a drain round
  /// issues up to this many of them.
  uint32_t destage_batch_pages = 256;

  // --- Host interface & firmware timing ---
  /// SATA 3.0-class bus: ~600 MB/s for writes (reads: ~550 MB/s).
  double bus_write_bytes_per_ns = 0.60;
  SimTime bus_cmd_overhead = 3 * kMicrosecond;
  /// Firmware command pipeline: `fw_parallelism` commands processed
  /// concurrently. A write costs fw_write_base plus 50 us per extra sector
  /// (a read: 4 us plus 2 us per extra sector).
  uint32_t fw_parallelism = 3;
  SimTime fw_write_base = 55 * kMicrosecond;

  // --- FLUSH CACHE cost model (Fig. 2) ---
  /// Fixed firmware overhead of a FLUSH CACHE: quiescing queues and
  /// persisting FTL metadata/journal.
  SimTime flush_fixed_overhead = 3200 * kMicrosecond;

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
  /// Raw bit errors per page the controller's ECC corrects in one shot
  /// (past it the FTL re-reads up to Ftl::kReadRetryLimit times).
  uint32_t ecc_correctable_bits = 8;

  // ---------------------------------------------------------------------
  // Presets (calibrated against Table 1; see EXPERIMENTS.md). A preset
  // sets what differs between the paper's devices: cache durability,
  // queue ordering, firmware write cost, FLUSH overhead, cache size and
  // geometry. The SATA bus, firmware read costs, mapping journal and the
  // NAND timing of the default geometry are shared calibration and live as
  // constants (see the struct comment).
  // ---------------------------------------------------------------------

  /// The paper's prototype: durable 512MB cache, ordered NCQ, 4KB mapping.
  static SsdConfig DuraSsd() {
    SsdConfig c;
    c.durable_cache = true;
    c.ordered_queue = true;
    return c;
  }

  /// Commodity SSD-A: 512MB volatile cache, slower firmware.
  static SsdConfig SsdA() {
    SsdConfig c;
    c.durable_cache = false;
    c.fw_write_base = 82 * kMicrosecond;
    c.flush_fixed_overhead = 2900 * kMicrosecond;
    c.ordered_queue = false;
    return c;
  }

  /// Commodity SSD-B: 128MB volatile cache, cheap flush but slow commands.
  static SsdConfig SsdB() {
    SsdConfig c;
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
