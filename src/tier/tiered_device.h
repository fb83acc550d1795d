#ifndef DURASSD_TIER_TIERED_DEVICE_H_
#define DURASSD_TIER_TIERED_DEVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "host/block_device.h"
#include "ssd/device_factory.h"
#include "ssd/hdd_device.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {

/// Configuration of a TieredDevice: a small durable-cache flash tier
/// fronting a large, cheap capacity tier (FaCE-style flash extended cache).
struct TieredConfig {
  std::string name = "Tiered";

  /// The flash tier. Must be a durable-cache, ordered-queue config (the
  /// persistent directory's commit-point semantics rely on both).
  SsdConfig flash = SsdConfig::DuraSsd();

  /// The capacity tier: the HDD model by default, or a commodity
  /// volatile-cache SSD when capacity_is_hdd is false.
  bool capacity_is_hdd = true;
  HddDevice::Config capacity_hdd;
  SsdConfig capacity_ssd = SsdConfig::SsdA();

  /// Cache size as a percentage of the capacity tier, clamped to what the
  /// flash tier can actually hold after the map region is carved out.
  double flash_pct = 10.0;

  /// Read-miss admission policy. Writes ALWAYS land on flash — that is the
  /// durability story — admission only controls whether a read miss
  /// populates the cache.
  enum class Admission {
    kAll,               ///< Every miss is admitted.
    kBypassSequential,  ///< Scan-like sequential runs bypass the cache so a
                        ///< backup cannot flush the hot set.
  };
  Admission admission = Admission::kBypassSequential;
  /// A read stream whose consecutive-LBA run reaches this many sectors is
  /// classified as a scan (admission bypass until the run breaks).
  uint32_t seq_run_sectors = 64;

  /// Dirty victims per group destage round. Victims are taken in LBA order
  /// and coalesced into contiguous runs, so the capacity tier sees few,
  /// large, sorted writes instead of per-page random ones.
  uint32_t destage_batch = 64;
  /// Idle opportunism: when the host has been quiet for destage_idle_ns
  /// and at least destage_idle_min sectors are dirty, a round is issued at
  /// the idle start so the capacity tier's quiet time is used.
  SimTime destage_idle_ns = 2 * kMillisecond;
  uint32_t destage_idle_min = 8;

  /// Free-slot low-water mark: allocation refills the free pool by
  /// batch-invalidating clean victims (one journal write for the batch).
  uint32_t free_reserve_slots = 16;
  /// Clean victims invalidated per refill round.
  uint32_t evict_batch = 32;

  /// Warm recovery (the FaCE claim): rebuild the full directory from the
  /// on-flash journal at PowerOn. When false the device still recovers and
  /// destages dirty entries (correctness is never optional) but then drops
  /// the directory — the cold-start baseline the rewarm A/B measures.
  bool warm_recovery = true;

  /// Flash sectors reserved for the directory journal ring. 0 = auto:
  /// sized from the slot count so a full checkpoint plus its delta window
  /// always fits with slack.
  uint32_t map_pages = 0;
};

/// Flash as an extended cache over a cheap capacity tier (FaCE lineage of
/// the paper; ROADMAP item 4's tiered half). Composes two existing device
/// models under one BlockDevice:
///
///  - Writes: every sector goes to a fresh flash slot; one journal page
///    write — a delta batch [invalidate old slot, map new slot -> LBA
///    dirty] appended to the checksummed on-flash map region — is the
///    atomic commit point. The flash tier's ordered queue guarantees the
///    journal ack implies the data acks, so an acknowledged command is
///    atomic + durable (ack = journal ack).
///  - Reads: directory hits are served from flash; misses fetch from the
///    capacity tier as coalesced runs and are admitted (journaled clean)
///    unless the stream looks like a sequential scan.
///  - Destage: dirty victims are drained in LBA-sorted multi-victim
///    batches, written to the capacity tier as contiguous runs, FLUSHed
///    (the HDD track cache is volatile), and only then journaled clean —
///    a cut between flush and journal merely re-destages.
///  - Recovery: the journal ring (delta pages + periodic full checkpoints,
///    each page CRC32C-sealed) is scanned at PowerOn and the directory
///    rebuilt — a WARM cache after a power cut, FaCE's faster-recovery
///    claim, validated by the crash harness's tiered scenarios.
///
/// Power-cut model: the tier arms its own scheduled cut and guards both
/// Execute entry and completion causality; member effects
/// carrying post-cut timestamps are reverted by each member's own PowerCut
/// rollback, and the directory is rebuilt solely from the journal the
/// flash tier rolled back consistently.
class TieredDevice : public BlockDevice {
 public:
  struct Stats {
    uint64_t host_writes = 0;
    uint64_t host_written_sectors = 0;
    uint64_t host_reads = 0;
    uint64_t host_read_sectors = 0;
    uint64_t tier_read_hits = 0;     ///< Sectors served from flash.
    uint64_t tier_read_misses = 0;   ///< Sectors fetched from capacity.
    uint64_t admitted_sectors = 0;   ///< Misses admitted into the cache.
    uint64_t bypassed_sectors = 0;   ///< Misses bypassed as scan traffic.
    uint64_t destage_batches = 0;    ///< Group-destage rounds.
    uint64_t destage_sectors = 0;    ///< Dirty sectors destaged.
    uint64_t destage_runs = 0;       ///< Contiguous capacity writes issued
                                     ///< (sectors/runs = mean run length).
    uint64_t evictions = 0;          ///< Clean slots invalidated for reuse.
    uint64_t map_page_writes = 0;    ///< Journal page programs (deltas).
    uint64_t map_checkpoints = 0;    ///< Full directory checkpoints.
    uint64_t flushes = 0;
    uint64_t scheduled_cuts_tripped = 0;
    // --- Last PowerOn recovery ---
    uint64_t recovered_entries = 0;  ///< Directory entries rebuilt.
    uint64_t recovered_dirty = 0;    ///< ... of which were dirty.
    uint64_t recovery_map_pages_valid = 0;  ///< CRC-clean journal pages.
    uint64_t cold_resets = 0;        ///< Cold-start conversions performed.

    double hit_ratio() const {
      const uint64_t total = tier_read_hits + tier_read_misses;
      return total == 0 ? 0.0
                        : static_cast<double>(tier_read_hits) /
                              static_cast<double>(total);
    }
  };

  explicit TieredDevice(TieredConfig config);
  ~TieredDevice() override = default;

  TieredDevice(const TieredDevice&) = delete;
  TieredDevice& operator=(const TieredDevice&) = delete;

  // --- BlockDevice ---
  uint32_t sector_size() const override { return cfg_.flash.sector_size; }
  /// The host sees the capacity tier's address space; flash is invisible.
  uint64_t num_sectors() const override { return capacity_sectors_; }
  void PowerCut(SimTime t) override;
  SimTime PowerOn() override;
  /// The journal page write is a single-sector atomic commit point for the
  /// whole command (one command's deltas never split across pages when
  /// they fit one, and host commands are far below the ~300-entry page
  /// capacity).
  bool supports_atomic_write() const override { return true; }
  bool has_durable_cache() const override { return true; }
  /// Host acks equal flash journal acks, which the flash tier's ordered
  /// queue keeps monotone in submission order: a cut loses a suffix.
  bool ordered_writes() const override { return true; }
  bool supports_barrier() const override { return false; }

  /// Arms a power cut (crash-harness hook; same contract as
  /// SsdDevice::SchedulePowerCut). Members are NOT armed: the
  /// tier guards its own Execute and cascades PowerCut to both members.
  void SchedulePowerCut(SimTime t) {
    scheduled_cut_ = t;
    cut_armed_ = true;
  }
  void CancelScheduledPowerCut() { cut_armed_ = false; }
  bool scheduled_cut_armed() const { return cut_armed_; }

  /// Clean shutdown: destage every dirty sector, flush the capacity tier,
  /// journal the clean state, then shut both members down.
  Status Shutdown(SimTime now);

  bool powered() const { return powered_; }
  bool degraded() const { return flash_->degraded(); }
  uint64_t epoch_ordering_violations() const {
    return flash_->stats().epoch_ordering_violations;
  }

  const TieredConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  SsdDevice& flash_tier() { return *flash_; }
  const SsdDevice& flash_tier() const { return *flash_; }
  BlockDevice& capacity_tier() { return *capacity_; }

  uint64_t cache_slots() const { return slots_.size(); }
  uint32_t map_ring_pages() const { return map_pages_; }
  uint64_t dirty_slots() const { return dirty_count_; }
  uint64_t free_slots() const { return free_slots_.size(); }
  /// Virtual duration of the last PowerOn (members + journal scan +
  /// optional cold conversion).
  SimTime last_recovery_duration() const { return last_recovery_duration_; }

  /// `tier.*` counters; hot-path updates go through stable pointers.
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Attaches a tracer to the flash tier (the member whose flush/barrier
  /// completions are the commit boundaries the host observes).
  void set_tracer(Tracer* tracer) { flash_->set_tracer(tracer); }

 protected:
  Result Execute(SimTime t, const Command& cmd) override;

 private:
  /// One cache slot's in-memory state (authoritative copy is the journal).
  struct Slot {
    Lpn cap_lpn = kInvalidLpn;
    bool valid = false;
    bool dirty = false;
    bool ref = false;  ///< Clock second-chance bit (not journaled).
  };

  /// One journal delta. `op` values are the on-flash encoding.
  struct MapDelta {
    uint8_t op = 0;  ///< kOpInvalidate/kOpMapDirty/kOpMarkClean/kOpMapClean.
    uint32_t slot = 0;
    Lpn cap_lpn = 0;
  };
  static constexpr uint8_t kOpInvalidate = 0;
  static constexpr uint8_t kOpMapDirty = 1;
  static constexpr uint8_t kOpMarkClean = 2;
  static constexpr uint8_t kOpMapClean = 3;

  /// A decoded journal page (delta page or checkpoint fragment).
  struct MapPage {
    bool valid = false;
    bool is_checkpoint = false;
    uint64_t seq = 0;
    uint64_t group = 0;  ///< Checkpoint: seq of the group's first page.
    uint32_t idx = 0;    ///< Checkpoint: fragment index within the group.
    uint32_t of = 0;     ///< Checkpoint: total fragments in the group.
    std::vector<MapDelta> deltas;
  };

  /// Timing-only mode (store_data == false): the journal's logical content
  /// is mirrored in memory, version-stamped with each page write's ack so
  /// a power cut prunes exactly what the flash rollback would.
  struct SimPageVersion {
    MapPage page;
    SimTime ack = 0;
  };

  Result DoWrite(SimTime now, Lpn lpn, Slice data);
  Result DoRead(SimTime now, Lpn lpn, uint32_t nsec, std::string* out);
  Result DoFlush(SimTime now);

  Lpn SlotDataLpn(uint32_t slot) const { return map_pages_ + slot; }
  uint32_t EntriesPerPage() const;

  /// Appends `deltas` to the journal: the open ring page is cumulatively
  /// rewritten in place (the durable cache absorbs the rewrites), closing
  /// pages and checkpointing as thresholds hit. Returns the ack of the
  /// last page write (>= t). Deltas that fit one page are never split —
  /// that page write is the command's atomic commit point.
  SimTime AppendMapDeltas(SimTime t, const std::vector<MapDelta>& deltas,
                          Status* st);
  /// Seals the open delta page (no I/O — its last rewrite is already
  /// durable) and advances the ring; triggers a checkpoint when due.
  void CloseOpenPage(SimTime t, SimTime* done, Status* st);
  /// Serializes the whole directory into `of` checkpoint fragments written
  /// at the ring cursor.
  void WriteCheckpoint(SimTime t, SimTime* done, Status* st);
  /// Writes the open page's current cumulative content at the ring cursor.
  SimTime WriteOpenPage(SimTime t, Status* st);
  std::string EncodePage(const MapPage& p) const;
  bool DecodePage(Slice raw, MapPage* out) const;

  /// Pops a free slot, refilling the pool (clean-victim batch
  /// invalidation, forced destage when everything is dirty) as needed.
  /// Returns false when no slot can be produced (pathological sizing).
  bool AcquireSlot(SimTime t, uint32_t* slot, Status* st);
  /// Refills the free pool to `want` via clock-swept clean victims; when
  /// `allow_destage`, an all-dirty cache is drained first.
  void EnsureFreeSlots(SimTime t, size_t want, bool allow_destage,
                       Status* st);
  /// One multi-victim group destage round: up to `max_victims` dirty slots
  /// in LBA order, coalesced into contiguous capacity runs, flushed, then
  /// journaled clean. Returns the round's completion time (t when idle).
  SimTime DestageRound(SimTime t, uint32_t max_victims, Status* st);
  /// Batch/idle triggers, evaluated on command entry and exit.
  void MaybeDestage(SimTime now);

  /// Rebuilds the directory from the journal at time t (real page reads +
  /// CRC validation when store_data; the ack-pruned mirror otherwise, with
  /// the same scan time charged). Returns the post-scan time.
  SimTime RecoverDirectory(SimTime t);
  /// Cold-start conversion: destage all dirty, drop the directory, write a
  /// fresh empty checkpoint. Correctness-preserving — only warmth is lost.
  SimTime DropDirectory(SimTime t, Status* st);

  void ApplyDelta(const MapDelta& d);
  void RebuildFreeList();

  TieredConfig cfg_;
  MetricsRegistry metrics_;
  std::unique_ptr<SsdDevice> flash_;
  std::unique_ptr<BlockDevice> capacity_;
  uint64_t capacity_sectors_ = 0;

  // --- Directory ---
  std::vector<Slot> slots_;
  std::map<Lpn, uint32_t> dir_;  ///< Capacity LBA -> slot (sorted: the
                                 ///< destage sweep walks it in LBA order).
  std::vector<uint32_t> free_slots_;
  uint64_t dirty_count_ = 0;
  uint32_t clock_hand_ = 0;
  Lpn destage_cursor_ = 0;  ///< LBA sweep position (elevator-ish).

  // --- Journal ring ---
  uint32_t map_pages_ = 0;        ///< Ring size in flash sectors.
  uint32_t ckpt_pages_ = 0;       ///< Worst-case fragments per checkpoint.
  uint32_t ckpt_interval_ = 0;    ///< Delta pages closed between checkpoints.
  uint32_t map_ring_pos_ = 0;     ///< Ring slot of the open page.
  uint64_t map_seq_ = 1;          ///< Seq of the open page.
  uint64_t closed_since_ckpt_ = 0;
  std::vector<MapDelta> open_deltas_;  ///< Cumulative open-page content.
  /// Timing-only journal mirror (empty when store_data).
  std::vector<std::vector<SimPageVersion>> sim_ring_;

  // --- Admission (sequential-scan detection) ---
  Lpn seq_last_end_ = kInvalidLpn;
  uint64_t seq_run_ = 0;

  bool powered_ = true;
  bool cut_armed_ = false;
  SimTime scheduled_cut_ = 0;
  SimTime last_activity_ = 0;
  SimTime last_recovery_duration_ = 0;
  bool store_data_ = true;
  std::string scratch_;  ///< Zero payload for timing-only member writes.

  Stats stats_;
  uint64_t* c_hits_;
  uint64_t* c_misses_;
  uint64_t* c_admitted_;
  uint64_t* c_bypassed_;
  uint64_t* c_destage_sectors_;
  uint64_t* c_destage_runs_;
  uint64_t* c_map_page_writes_;
  uint64_t* c_evictions_;
};

/// Factory seam for benches, tests, and the crash harness: flash tier from
/// the Table-1 preset line-up (device_factory's SsdConfigForModel), HDD
/// capacity tier from the factory's HDD preset.
TieredConfig TieredDefaults(DeviceModel flash_model, bool store_data);
std::unique_ptr<TieredDevice> MakeTieredDevice(TieredConfig cfg);

}  // namespace durassd

#endif  // DURASSD_TIER_TIERED_DEVICE_H_
