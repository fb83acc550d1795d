#ifndef DURASSD_SSD_SSD_DEVICE_H_
#define DURASSD_SSD_SSD_DEVICE_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/resource.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "flash/flash_array.h"
#include "host/block_device.h"
#include "ssd/destage_scheduler.h"
#include "ssd/ftl.h"
#include "ssd/ssd_config.h"

namespace durassd {

/// The simulated SSD: DRAM device cache, atomic writer, flusher, NCQ,
/// power-off detection and recovery manager over a NAND FlashArray + FTL
/// (Fig. 3 of the paper). One class models both DuraSSD (durable_cache on)
/// and commodity volatile-cache SSDs; the HDD lives in HddDevice.
///
/// Semantics implemented:
///  - Atomic writer (Sec. 3.2): a write command is atomic from the moment
///    it is acknowledged. Commands not fully transferred when power fails
///    are discarded whole; acknowledged ones are replayed from the dump
///    area on reboot (durable cache) or rolled back (volatile cache).
///  - Flusher (Sec. 3.1.1): acknowledged sectors wait in the cache and
///    drain lazily through the DestageScheduler, in batches across every
///    plane: two 4KB sectors per 8KB NAND page, two pages per multi-plane
///    program on sibling planes, each program on the least-busy plane.
///  - FLUSH CACHE (Sec. 3.3): drains outstanding destages and persists the
///    mapping journal; cost grows with dirty state (Fig. 2).
///  - Recovery manager (Sec. 3.4): on power failure the durable cache and
///    dirty mapping entries are dumped to reserved clean blocks within the
///    capacitor budget; on reboot the dump is replayed idempotently.
class SsdDevice : public BlockDevice, private DestageScheduler::Sink {
 public:
  struct Stats {
    uint64_t host_writes = 0;        ///< Write commands.
    uint64_t host_written_sectors = 0;
    uint64_t host_reads = 0;
    uint64_t host_read_sectors = 0;
    uint64_t cache_read_hits = 0;    ///< Sectors served from the cache.
    uint64_t cache_read_misses = 0;  ///< Sectors that went to the FTL
                                     ///< (host_read_sectors = hits+misses).
    uint64_t cache_full_hits = 0;    ///< Read commands fully cache-served.
    uint64_t cache_partial_hits = 0; ///< Read commands with a sector mix.
    uint64_t flushes = 0;
    uint64_t write_stalls = 0;       ///< Writes that waited for a frame.
    SimTime write_stall_time = 0;
    uint64_t dumped_pages = 0;       ///< Pages saved on capacitor power.
    uint64_t replayed_pages = 0;     ///< Pages replayed at reboot.
    uint64_t dropped_incomplete = 0; ///< Un-acked commands discarded whole.
    uint64_t capacitor_overruns = 0; ///< Dump exceeded the budget (bug).
    uint64_t reads_stalled_by_flush = 0;  ///< Reads behind FLUSH CACHE.
    uint64_t degraded_write_rejects = 0;  ///< Writes refused in degraded
                                          ///< (read-only) mode.
    uint64_t ordered_ack_clamps = 0;      ///< Ordered-NCQ ack monotonization.
    uint64_t ordering_violations = 0;     ///< Ordered mode: a power cut kept
                                          ///< a write submitted after a lost
                                          ///< one (must stay 0).
    uint64_t destage_absorbed = 0;   ///< Rewrites absorbed by a pending,
                                     ///< not-yet-issued destage (no second
                                     ///< NAND program).
    uint64_t destage_batches = 0;    ///< Scheduler drain rounds issued.
    uint64_t barriers = 0;           ///< BARRIER commands (epochs sealed).
    uint64_t epoch_ack_clamps = 0;   ///< Acks raised to the sealed-epoch
                                     ///< floor (epoch-monotone ack order).
    uint64_t epoch_ordering_violations = 0;  ///< A power cut kept a write
                                             ///< from a newer epoch while
                                             ///< losing one from an older
                                             ///< epoch (must stay 0).
    // --- Log-structured destage (destage_mode == kLogStructured) ---
    uint64_t log_segments = 0;         ///< Segments appended to the log.
    uint64_t log_segment_sectors = 0;  ///< Sectors destaged via segments.
    uint64_t log_replayed_segments = 0;  ///< Segments validated clean on
                                         ///< recovery.
    uint64_t log_torn_segments = 0;    ///< Segments with a lost header or a
                                       ///< failed sector checksum.
    uint64_t log_recovered_sectors = 0;  ///< Sectors checksum-validated OK.
    uint64_t log_dropped_sectors = 0;  ///< Torn sectors truncated (unmapped)
                                       ///< by recovery validation.
  };

  explicit SsdDevice(SsdConfig config);
  ~SsdDevice() override = default;

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  // --- BlockDevice ---
  uint32_t sector_size() const override { return cfg_.sector_size; }
  uint64_t num_sectors() const override { return ftl_.logical_sectors(); }
  void PowerCut(SimTime t) override;
  SimTime PowerOn() override;
  bool supports_atomic_write() const override { return cfg_.durable_cache; }
  bool has_durable_cache() const override { return cfg_.durable_cache; }
  /// Ordered NCQ (Sec. 3.3): with a durable cache and cfg_.ordered_queue,
  /// acknowledgement order equals submission order, so a power cut can only
  /// lose a *suffix* of the submitted write stream. PowerCut checks the
  /// invariant (stats().ordering_violations).
  bool ordered_writes() const override {
    return cfg_.durable_cache && cfg_.ordered_queue && cfg_.cache_enabled;
  }
  /// Barrier-enabled (Won et al.): a BARRIER seals the current epoch; the
  /// epoch ack clamp then keeps every later write's acknowledgement at or
  /// after the sealed epoch's last ack. Since a durable cache survives by
  /// ack <= cut, a power cut always recovers an epoch-consistent prefix —
  /// intra-epoch reordering allowed, cross-epoch never. Requires the
  /// durable cache: "durably framed" means acked into capacitor-protected
  /// frames, which volatile caches cannot provide.
  bool supports_barrier() const override {
    return cfg_.durable_cache && cfg_.cache_enabled;
  }

  /// Clean shutdown: FLUSH CACHE then power down without the emergency flag.
  Status Shutdown(SimTime now);

  /// True once the FTL has entered sticky read-only degraded mode (spare
  /// exhaustion / failed retirement relocation). Writes fail with
  /// kResourceExhausted; reads keep working across power cycles.
  bool degraded() const { return ftl_.degraded(); }

  const SsdConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  const Ftl& ftl() const { return ftl_; }
  const FlashArray& flash() const { return flash_; }
  /// Live fault-injection scripting hook (tests).
  FaultInjector& fault_injector() { return flash_.fault_injector(); }

  /// Per-layer latency attribution (NCQ wait, bus, firmware, frame stalls,
  /// destage, flush drain) plus the FTL's own histograms.
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Attaches an event tracer (device + FTL events). Pass nullptr to
  /// detach. Recording never advances virtual time.
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    ftl_.set_tracer(tracer);
  }
  Tracer* tracer() const { return tracer_; }

  /// Host-level write amplification: NAND bytes programmed / host bytes
  /// written (GC included). The endurance argument of Sec. 1 & 6.
  double WriteAmplification() const;

  /// Log-structured destage active? Requires the durable cache: acked-but-
  /// pending sectors stay durable via the capacitor dump while they wait to
  /// fill a whole segment.
  bool UseLogDestage() const {
    return cfg_.durable_cache &&
           cfg_.destage_mode == SsdConfig::DestageMode::kLogStructured &&
           ftl_.log_pages_total() > 0;
  }
  /// Data pages per log segment (the header page is extra).
  uint32_t SegmentDataPages() const { return log_segment_pages_; }
  uint32_t SegmentSectors() const {
    return log_segment_pages_ * ftl_.sectors_per_page();
  }

 protected:
  Result Execute(SimTime t, const Command& cmd) override;

 private:
  /// Why a destage batch drained: the `a1` argument of kDestageBatch.
  enum class DrainTrigger : uint8_t {
    kBatch = 0,     ///< A full batch (page round or log segment) is pending.
    kIdle = 1,      ///< Idle media or the idle threshold.
    kPressure = 2,  ///< The write buffer is out of frames.
    kFlush = 3,     ///< FLUSH CACHE or clean shutdown.
  };

  using Frame = SectorStore::Frame;
  /// Bytes of host payload a sector carries into the device: a whole sector,
  /// or none on a timing-only device (cfg_.store_data false).
  uint32_t PayloadLen() const {
    return cfg_.store_data ? cfg_.sector_size : 0;
  }

  struct CacheEntry {
    /// The cache's reference to the sector's frame (the zero frame on a
    /// timing-only device). A destaged entry shares it with its NAND slot.
    Frame frame = SectorStore::kZeroFrame;
    SimTime ack = 0;           ///< Command acknowledged (atomicity point).
    uint64_t seq = 0;          ///< Submission sequence of the owning command.
    uint64_t epoch = 0;        ///< Barrier epoch the owning command joined.
    SimTime program_issue = 0;  ///< NAND program issued (kNeverProgrammed
                                ///< until then); dump/rollback hinge on it.
    SimTime program_done = 0;  ///< kNeverProgrammed until destage scheduled.
    // One-deep history for the coalescing rollback corner case: if the
    // overwriting command turns out incomplete at a power cut, the
    // previously acknowledged version is restored.
    bool has_prev = false;
    Frame prev_frame = SectorStore::kZeroFrame;
    SimTime prev_ack = 0;
    uint64_t prev_seq = 0;
    uint64_t prev_epoch = 0;
  };

  static constexpr SimTime kNeverProgrammed =
      std::numeric_limits<SimTime>::max();

  /// Grows dump_blocks_per_plane so the reserved dump area can cover every
  /// write-buffer frame of a durable cache (acknowledged-but-unissued
  /// sectors all need a dump page at a power cut).
  static SsdConfig SizeDumpArea(SsdConfig cfg);
  /// Single-command executors (the pre-async Write/Read/Flush bodies),
  /// dispatched from Execute.
  Result DoWrite(SimTime now, Lpn lpn, Slice data);
  Result DoRead(SimTime now, Lpn lpn, uint32_t nsec, std::string* out);
  Result DoFlush(SimTime now);
  Result DoBarrier(SimTime now);

  SimTime BusTime(uint32_t nsec, bool is_write) const;
  SimTime FwTime(uint32_t nsec, bool is_write) const;
  /// True when a whole drain unit is pending: a full page for in-place
  /// destage, a full segment for log-structured destage.
  bool FullBatchPending() const {
    return UseLogDestage() ? scheduler_.pending_sectors() >= SegmentSectors()
                           : scheduler_.pending_full_pages() > 0;
  }
  /// True while fewer than one page per plane is in flight.
  bool MediaHasFreeSlot() const {
    return outstanding_.size() <
           static_cast<size_t>(cfg_.geometry.total_planes() *
                               ftl_.sectors_per_page());
  }
  /// The one place a destage batch drains: counts it, traces it, then
  /// issues up to `max_pages` full pages (in place) or every full segment
  /// (log-structured), plus the partial tail when `include_partial`.
  Status DrainBatch(SimTime t, DrainTrigger trigger, size_t max_pages,
                    bool include_partial);
  /// Releases the frames of programs that completed by `t`.
  void PopCompletedPrograms(SimTime t);
  /// Drains pending scheduler sectors into sequential log segments at time
  /// t: full segments only, plus a final short segment when
  /// `include_partial`. Sectors a failed append could not program are
  /// re-queued.
  Status DrainLogSegments(SimTime t, bool include_partial);
  /// Builds and appends one segment (header page: LPN map + per-sector
  /// CRC32C, then data pages) from `taken`, mapping each data sector and
  /// recording its program window.
  Status AppendLogSegment(SimTime t, const std::vector<Lpn>& taken);
  /// Recovery pass over the log directory (newest segment first): reads
  /// each segment header, validates every still-mapped sector's bytes
  /// against the header's CRC32C, and truncates (unmaps) torn sectors. A
  /// segment whose header is gone — torn tail, or pages freed by the
  /// power-cut rollback — is counted torn and its rolled-back sectors are
  /// simply skipped. Returns the virtual time the scan+validation cost.
  SimTime RecoverCache();
  /// Blocks until a write-buffer frame is free; returns the (possibly
  /// delayed) time at which the frame was obtained. Frames are held by both
  /// in-flight programs (outstanding_) and pending scheduler sectors;
  /// pressure first converts pending into programs.
  SimTime AcquireFrame(SimTime t);
  /// Fills `out` with the cached bytes of `group`, in order, as one
  /// program's sectors.
  void CachedSectors(const std::vector<Lpn>& group,
                     std::vector<Ftl::SectorWrite>* out) const;
  // --- DestageScheduler::Sink ---
  /// Never issue a sector's program before its command's ack (crash
  /// semantics rely on issue >= ack; see the definition).
  SimTime ClampToAcks(SimTime t, const std::vector<Lpn>& group) const;
  Status DestagePage(SimTime t, const std::vector<Lpn>& group) override;
  Status DestagePagePair(SimTime t, const std::vector<Lpn>& a,
                         const std::vector<Lpn>& b) override;
  /// Idle-threshold drain: pending sectors are destaged when the next host
  /// command arrives 1 ms or more after the last one joined (the device used
  /// its own idle time). Called on DoWrite/DoRead entry.
  void MaybeIdleDrain(SimTime now);
  /// Records the program window for a destaged group, releases its frames
  /// at program completion, and samples/traces the destage.
  void FinishDestage(const std::vector<Lpn>& group, SimTime issue,
                     SimTime done);
  /// Caches one host sector: the one copy of its bytes into the store
  /// (none on a timing-only device).
  void InsertCacheEntry(Lpn lpn, Slice sector, SimTime ack, uint64_t seq,
                        uint64_t epoch);
  void EvictCleanIfNeeded();
  /// Appends a cached sector's host payload, PayloadLen() bytes of its
  /// frame, to `out`.
  void AppendPayload(Frame frame, std::string* out) const {
    if (PayloadLen() > 0) flash_.store().AppendSector(frame, out);
  }
  /// Makes the entry's one-deep history current again, releasing the
  /// overwriting version's frame.
  void RestorePrev(CacheEntry& e);
  /// Erases one entry and releases its frames.
  std::unordered_map<Lpn, CacheEntry>::iterator EraseCacheEntry(
      std::unordered_map<Lpn, CacheEntry>::iterator it);
  /// Empties the cache, releasing every frame it holds.
  void ClearCache();
  /// Mapping-journal persistence cost for `entries` dirty mapping entries.
  SimTime MappingPersistCost(size_t entries) const;
  void DumpOnCapacitor(SimTime t);
  /// Resets the host-facing timelines and the per-power-session ordering
  /// state, cut or clean: the device clock restarts at zero on PowerOn.
  void EndPowerSession();
  SimTime ReplayDump();
  /// Removes the cache entries a failed write command inserted (restoring
  /// the one-deep history), so un-destaged data from a rejected command
  /// cannot be dumped or served later.
  void RollbackCommandEntries(Lpn lpn, uint32_t nsec, SimTime ack);

  SsdConfig cfg_;
  /// Declared before ftl_ (construction order): the FTL registers its own
  /// histograms into this registry.
  MetricsRegistry metrics_;
  FlashArray flash_;
  Ftl ftl_;

  ResourceTimeline bus_;   ///< Half-duplex host link (SATA).
  ResourceTimeline fw_;    ///< Firmware command pipeline.
  ResourceTimeline ncq_;   ///< Command-queue slots.

  std::unordered_map<Lpn, CacheEntry> cache_;
  std::deque<Lpn> cache_fifo_;
  /// Reused program buffers of DestagePage / DestagePagePair.
  std::vector<Ftl::SectorWrite> writes_a_;
  std::vector<Ftl::SectorWrite> writes_b_;
  std::vector<Lpn> pair_group_;
  /// Completion times of scheduled destages (frame accounting).
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      outstanding_;
  /// Lazy destage scheduler: every cached write drains through it.
  DestageScheduler scheduler_;

  /// One appended log segment: where its header and data pages landed.
  /// The simulator keeps this directory in controller RAM as the scan
  /// index; recovery still reads and checksums the on-media header, so a
  /// torn or reused segment is detected by content, not bookkeeping.
  struct LogSegmentRec {
    uint64_t seq = 0;
    Ppn header_ppn = 0;
    std::vector<Ppn> data_ppns;
    uint32_t sectors = 0;
  };
  /// Segments not yet known-persistent (cleared by clean shutdown and
  /// after recovery validation), newest at the back. Bounded by one full
  /// lap of the log region — anything older has been overwritten.
  std::deque<LogSegmentRec> log_dir_;
  uint64_t log_seq_ = 0;
  /// Data pages per log segment, sized from the geometry at construction
  /// (read only when UseLogDestage()).
  uint32_t log_segment_pages_ = 0;

  bool emergency_shutdown_ = false;
  SimTime max_time_seen_ = 0;
  /// Ordered NCQ: acknowledgement time of the last write command, used to
  /// clamp acks monotone in submission order (see ordered_writes()).
  SimTime last_ordered_ack_ = 0;
  /// Submission sequence number of write commands (ordering invariant).
  uint64_t write_seq_ = 0;
  /// Barrier epochs. Zero until the first BARRIER arrives, so the epoch
  /// machinery is inert (bit-for-bit identical timing) on hosts that never
  /// submit barriers. A BARRIER seals epoch N by raising the ack floor to
  /// the sealed epoch's last ack and bumping cur_epoch_; later writes clamp
  /// their ack to the floor, making acks epoch-monotone.
  uint64_t cur_epoch_ = 0;
  SimTime epoch_floor_ack_ = 0;  ///< Max ack of all sealed epochs.
  SimTime epoch_max_ack_ = 0;    ///< Max ack within the open epoch.
  uint64_t epoch_writes_ = 0;    ///< Write commands in the open epoch.
  SimTime last_flush_start_ = -1;
  SimTime last_flush_done_ = -1;
  /// Recent FLUSH CACHE service windows (reads arriving inside one wait).
  std::deque<std::pair<SimTime, SimTime>> flush_windows_;

  Stats stats_;

  Tracer* tracer_ = nullptr;
  /// Registered per-layer latency histograms (always non-null).
  Histogram* h_ncq_wait_ns_;
  Histogram* h_bus_ns_;
  Histogram* h_fw_ns_;
  Histogram* h_frame_stall_ns_;
  Histogram* h_destage_ns_;
  Histogram* h_flush_drain_ns_;
  Histogram* h_epoch_size_;  ///< Writes per sealed epoch ("ssd.epoch_size").
  Histogram* h_qd_;  ///< In-flight depth at each submission ("ssd.qd").
};

}  // namespace durassd

#endif  // DURASSD_SSD_SSD_DEVICE_H_
