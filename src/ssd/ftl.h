#ifndef DURASSD_SSD_FTL_H_
#define DURASSD_SSD_FTL_H_

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "flash/flash_array.h"

namespace durassd {

/// Page-mapping flash translation layer with 4KB mapping granularity over
/// 8KB NAND pages (Sec. 3.1.2): two logical sectors share one physical page.
/// Owns logical->physical mapping, page allocation (each host program on
/// the least-busy plane, FlashArray::NextIdlePlane), greedy garbage
/// collection, the reserved dump area, and the mapping-persistence crash
/// model:
///
///   - RAM mapping is authoritative during normal operation.
///   - A "delta" tracks entries modified since the last persistence point.
///   - On a volatile device, power loss rolls the delta back (lost writes),
///     optionally keeping entries whose NAND program had already begun —
///     which is how commodity SSDs expose torn writes (FAST'13).
///   - On DuraSSD the delta is dumped on capacitor power and merged at
///     reboot, so nothing rolls back.
///
/// Sector bytes live in the flash array's SectorStore; a program hands the
/// FTL frame ids, and a GC move hands the same ids to the destination page.
/// The release rule: a slot's frame is released as soon as the slot dies,
/// unless something can still read it — a rollback target (the persisted
/// location a power cut would restore) keeps its frame until its delta
/// record goes, and a log-region slot keeps its frame until its block is
/// reclaimed, because recovery re-reads whole segments.
class Ftl {
 public:
  /// Re-reads attempted when the raw error count exceeds the ECC budget
  /// (real controllers retry with shifted read voltages).
  static constexpr uint32_t kReadRetryLimit = 4;
  /// Fresh pages tried when a program reports failure before giving up.
  static constexpr uint32_t kProgramRetryLimit = 3;

  using Frame = FlashArray::Frame;

  struct Options {
    double over_provision = 0.07;
    uint32_t dump_blocks_per_plane = 2;
    /// Raw bit errors per page the ECC corrects in one shot (only exercised
    /// when faults are injected).
    uint32_t ecc_correctable_bits = 8;
    /// Owner's metrics registry; the FTL registers its own histograms
    /// under the "ftl." prefix. May be null (no histograms recorded).
    MetricsRegistry* metrics = nullptr;
    /// Blocks per plane reserved as the sequential log region, carved out
    /// directly below the dump area. 0 = no log region (legacy layout,
    /// bit-identical allocation behavior).
    uint32_t log_blocks_per_plane = 0;
  };

  struct SectorWrite {
    Lpn lpn;
    /// The sector's bytes; the zero frame in timing-only mode. The page
    /// takes its own reference.
    Frame frame;
  };

  struct Stats {
    uint64_t gc_runs = 0;
    uint64_t gc_programs = 0;
    uint64_t gc_erases = 0;
    uint64_t forced_persists = 0;  ///< Delta entries force-persisted by GC.
    uint64_t ecc_corrected = 0;       ///< Raw bit errors corrected by ECC.
    uint64_t read_retries = 0;        ///< Re-reads past the ECC budget.
    uint64_t uncorrectable_reads = 0; ///< Reads lost despite retries.
    uint64_t program_retries = 0;     ///< Programs retried on a fresh page.
    uint64_t degraded_rejects = 0;    ///< Host programs rejected while
                                      ///< degraded.
    uint64_t log_appends = 0;         ///< Pages appended to the log region.
    uint64_t log_reclaims = 0;        ///< Log blocks reclaimed (live data
                                      ///< relocated + erased) on wrap.
  };

  Ftl(FlashArray* flash, Options options);

  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

  uint32_t sectors_per_page() const { return sectors_per_page_; }
  uint64_t logical_sectors() const { return logical_sectors_; }

  /// Programs 1..sectors_per_page() logical sectors into one NAND page
  /// (pairing two 4KB sectors per 8KB program when possible). Reports the
  /// program's start and completion times. Runs GC first if the target
  /// plane is low on free blocks.
  Status ProgramSectors(SimTime now, const std::vector<SectorWrite>& sectors,
                        SimTime* start, SimTime* done);

  /// Programs two pages with one multi-plane command on the two sibling
  /// planes of the least-busy chip (Sec. 2.3 chip-level interleaving): both
  /// transfers serialize on the channel, then both planes program
  /// concurrently. `a` and `b` each follow ProgramSectors' contract. On an
  /// injected program failure the failed page is transparently re-driven as
  /// a single-plane program; mapping updates happen only once every sector
  /// has landed, so a hard failure leaves the mapping untouched. `start` /
  /// `done` receive the union program window. Requires a geometry with at
  /// least two planes per chip.
  Status ProgramSectorsMultiPlane(SimTime now,
                                  const std::vector<SectorWrite>& a,
                                  const std::vector<SectorWrite>& b,
                                  SimTime* start, SimTime* done);

  /// Reads one logical sector and appends its bytes to `out` (nullptr =
  /// timing only). Unmapped sectors read as zeros with zero media cost
  /// beyond the firmware's map lookup; an LPN beyond logical_sectors() is
  /// InvalidArgument. `done`, if non-null, receives the virtual completion
  /// time (including any ECC read-retries). `torn`, if non-null, reports
  /// whether the backing physical page was shorn by a power cut. Returns
  /// kCorruption when raw bit errors exceed the ECC budget after all
  /// retries; `out` then holds the corrupted bytes so the host's checksums
  /// can see the damage.
  Status ReadSector(SimTime now, Lpn lpn, std::string* out,
                    SimTime* done = nullptr, bool* torn = nullptr);

  bool IsMapped(Lpn lpn) const { return MappingOf(lpn) != kUnmapped; }

  // --- Log region (log-structured destage, ROADMAP item 2) ---
  /// Total pages in the reserved log region (0 = no log region).
  uint64_t log_pages_total() const { return log_pages_total_; }
  /// Appends one physical page, holding `frames` in slot order, at the log
  /// head cursor, which advances strictly sequentially through the log
  /// region, striped one page per plane per row. Wrapping into a previously
  /// written block first relocates its still-live sectors into the main
  /// area and erases it (FIFO log cleaning). A failed program skips that
  /// page and tries the next one. Leaves the mapping untouched — the caller
  /// maps data pages with MapLogSector; header pages are never mapped.
  StatusOr<Ppn> AppendLogPage(SimTime now, std::span<const Frame> frames,
                              SimTime* start, SimTime* done);
  /// Points `lpn` at (ppn, slot) of a freshly appended log data page:
  /// kills the superseded slot, updates the map, and records the delta
  /// exactly like ProgramSectors — so power-cut rollback treats a sector
  /// destaged through the log identically to one destaged in place.
  void MapLogSector(Lpn lpn, Ppn ppn, uint32_t slot, SimTime issue,
                    SimTime start);
  /// True iff `lpn` currently maps exactly to (ppn, slot). Recovery uses
  /// this to skip log-directory entries superseded by later writes,
  /// relocations, or rollback.
  bool IsMappedTo(Lpn lpn, Ppn ppn, uint32_t slot) const;
  /// Unmaps `lpn` iff it still points at (ppn, slot) — checksum-validated
  /// torn-segment truncation on recovery. Returns true when unmapped.
  bool UnmapIfPointsTo(Lpn lpn, Ppn ppn, uint32_t slot);
  /// Reads a raw physical page through the ECC model (log segment
  /// validation on recovery). Same contract as the internal checked read:
  /// kCorruption with the damaged bytes in `out` when uncorrectable.
  Status ReadPhysicalPage(SimTime now, Ppn ppn, std::string* out,
                          SimTime* done);

  // --- Mapping persistence / crash model ---
  size_t dirty_mapping_entries() const { return delta_.size(); }
  /// Marks everything persisted (called when a FLUSH CACHE completes, or
  /// after a successful durable-cache dump replay); the rollback targets'
  /// frames are released.
  void PersistMapping();
  /// Which unpersisted mapping entries survive a power cut at `t`.
  enum class PowerCutExposure {
    /// Every delta entry rolls back to its persisted value (lost writes).
    kNone,
    /// Entries whose program was *issued* by `t` keep the new mapping: the
    /// durable-cache model, where capacitor power runs every issued NAND
    /// operation to completion (Sec. 3.4.1).
    kIssued,
    /// Entries whose cell program had *started* by `t`
    /// (FlashArray::ProgramStarted) keep the new (possibly torn) mapping:
    /// the commodity-SSD model that exposes torn writes (FAST'13). Programs
    /// not yet started by `t` roll back, exactly the pages
    /// FlashArray::PowerCut returns to kFree.
    kStarted,
  };
  /// Power cut at `t`: entries in the delta roll back to their persisted
  /// value except those `exposure` keeps, whose rollback targets' frames
  /// are released.
  void PowerCutRollback(SimTime t, PowerCutExposure exposure);

  // --- Dump area (Sec. 3.4.1): reserved clean blocks, one dump page per
  // cached sector, always erased during normal operation. A dump block
  // whose erase fails is dropped from the sequence (grown bad block), so
  // the page count can shrink over the device's life. ---
  uint32_t dump_area_pages() const {
    return static_cast<uint32_t>(dump_ppns_.size());
  }
  /// Programs the page image `data` into the index-th dump page, bypassing
  /// the mapping. Used on capacitor power, so the caller ignores timing.
  Status ProgramDumpPage(uint32_t index, Slice data);
  /// Reads the index-th dump page through ECC. Returns InvalidArgument for
  /// an out-of-range index and kCorruption for an uncorrectable read (the
  /// corrupted bytes are still placed in `out` for the caller's checksums).
  Status ReadDumpPage(uint32_t index, std::string* out);
  /// Erases all dump blocks; returns completion time. Blocks whose erase
  /// fails become grown bad blocks and leave the dump sequence.
  SimTime EraseDumpArea(SimTime now);

  const Stats& stats() const { return stats_; }
  FlashArray* flash() { return flash_; }

  // --- Degraded (read-only) mode ---
  /// True once the FTL has run out of healthy blocks (spare exhaustion or a
  /// retirement relocation that could not complete). Sticky: the physical
  /// condition does not heal, so the flag survives power cycles. Host
  /// programs are rejected with kResourceExhausted; reads keep working.
  bool degraded() const { return degraded_; }
  const std::string& degraded_reason() const { return degraded_reason_; }

  /// Attaches (or detaches, with nullptr) an event tracer for GC events.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Free blocks currently available in the given plane (test hook).
  size_t free_blocks_in_plane(uint32_t plane) const {
    return planes_[plane].free_blocks.size();
  }

 private:
  static constexpr uint64_t kUnmapped = ~0ull;

  struct PlaneAlloc {
    std::vector<uint32_t> free_blocks;   ///< Erased blocks (LIFO).
    uint32_t active_block = ~0u;
    uint32_t next_page = 0;
  };
  struct DeltaRec {
    uint64_t old_packed;  ///< Persisted value (kUnmapped if none).
    SimTime last_issue;   ///< Issue time of the most recent program.
    SimTime last_start;   ///< True cell-program start (after channel wait).
  };

  static uint64_t Pack(Ppn ppn, uint32_t slot) { return ppn * 4 + slot; }
  static Ppn PpnOf(uint64_t packed) { return packed / 4; }
  static uint32_t SlotOf(uint64_t packed) {
    return static_cast<uint32_t>(packed % 4);
  }

  /// Returns the next erased physical page on `plane`, running GC when the
  /// plane is short on free blocks. `for_gc` allocs
  /// skip the GC trigger (they consume the reserved headroom).
  StatusOr<Ppn> AllocatePage(SimTime now, uint32_t plane, bool for_gc);
  /// AllocatePage + ProgramPage with transparent retry: a program that
  /// reports failure closes the block, queues it for retirement, and tries
  /// again on a fresh page (up to kProgramRetryLimit times).
  StatusOr<Ppn> AllocateAndProgram(SimTime now, uint32_t plane, bool for_gc,
                                   std::span<const Frame> frames,
                                   SimTime* done, SimTime* start = nullptr);
  /// Validates one ProgramSectors batch (count, lpn range) and rejects when
  /// degraded.
  Status ValidateSectors(const std::vector<SectorWrite>& sectors);
  /// Reads a full physical page through the ECC model: up to
  /// kReadRetryLimit re-reads while the raw error count exceeds
  /// ecc_correctable_bits, then kCorruption if still over budget. On
  /// kCorruption `damaged` (nullptr = timing only) receives a copy of the
  /// page with the bit flips applied; on success the caller reads the
  /// stored slots themselves.
  Status ReadPageChecked(SimTime now, Ppn ppn, std::string* damaged,
                         SimTime* done);
  Status RunGc(SimTime now, uint32_t plane);
  /// Moves every live sector out of the block (shared by GC and block
  /// retirement), then force-persists delta entries whose rollback target
  /// lives inside it.
  Status RelocateLiveSectors(SimTime now, uint32_t plane, uint32_t block);
  void ForcePersistDeltaIn(uint32_t plane, uint32_t block);
  /// Marks a block for retirement after a program failure. Actual
  /// retirement (relocation + RetireBlock) happens in DrainRetirements so
  /// a failure during relocation cannot recurse.
  void QueueRetirement(uint32_t plane, uint32_t block);
  void DrainRetirements(SimTime now);
  bool IsRetirePending(uint32_t plane, uint32_t block) const;
  /// Kills a live slot: the reverse map forgets its LPN, the page dies with
  /// its last live slot, and the frame goes unless the slot is the rollback
  /// target of the LPN it held (`delta_[lpn].old_packed`).
  void KillSlot(uint64_t packed, bool rollback_target);
  /// Releases the frame of the dead slot `packed`, unless it lies in the
  /// log region (kept until its block is reclaimed).
  void ReleaseDeadSlot(uint64_t packed);
  /// ReleaseDeadSlot for the rollback target of a delta record that is
  /// about to be erased.
  void ReleaseRollbackTarget(const DeltaRec& rec);
  /// Packed location of `lpn`, or kUnmapped (also for an LPN beyond
  /// logical_sectors_, which may come from the host or from media).
  uint64_t MappingOf(Lpn lpn) const {
    return lpn < logical_sectors_ ? map_[lpn] - 1 : kUnmapped;
  }
  /// Stores `packed` (kUnmapped to unmap) for an in-range `lpn`.
  void SetMapping(Lpn lpn, uint64_t packed) {
    assert(lpn < logical_sectors_);
    map_[lpn] = packed + 1;
  }
  /// The LPN living in `packed`'s (ppn, slot), or kInvalidLpn when dead.
  Lpn ReverseOf(uint64_t packed) const {
    return reverse_[PpnOf(packed) * sectors_per_page_ + SlotOf(packed)] - 1;
  }
  /// Records `lpn` (kInvalidLpn to kill) as the owner of `packed`.
  void SetReverse(uint64_t packed, Lpn lpn) {
    reverse_[PpnOf(packed) * sectors_per_page_ + SlotOf(packed)] = lpn + 1;
  }
  /// Points `lpn` at (ppn, slot), killing the slot it held before. That
  /// slot is `lpn`'s rollback target, and keeps its frame, exactly when
  /// this is the first move since the mapping was persisted
  /// (`old_is_target`, RecordDelta's result): a record's target is the
  /// slot its LPN held when the record was made, and every later move
  /// starts from a newer slot.
  void MapSector(Lpn lpn, Ppn ppn, uint32_t slot, bool old_is_target);
  /// Records a program of `lpn` in the delta; returns true when it created
  /// the record, whose rollback target is then `lpn`'s current slot.
  bool RecordDelta(Lpn lpn, SimTime issue, SimTime start);
  /// Flips the sticky degraded flag (idempotent) and emits the trace event
  /// for the transition.
  void EnterDegraded(SimTime now, uint32_t plane, std::string reason);
  /// Makes a log block writable again before the wrapping head re-enters
  /// it: still-live sectors relocate into the main area (FIFO cleaning),
  /// then the block is erased. An erase failure grows a bad block the
  /// append cursor skips.
  Status PrepareLogBlock(SimTime now, uint32_t plane, uint32_t block);

  FlashArray* flash_;
  Options opts_;
  uint32_t sector_size_;
  uint32_t sectors_per_page_;
  uint64_t logical_sectors_;
  uint32_t first_dump_block_;
  /// Log region: blocks [first_log_block_, first_dump_block_) of every
  /// plane. first_log_block_ == first_dump_block_ when no log region is
  /// reserved (legacy layout).
  uint32_t first_log_block_;
  /// Pages in the log region; 0 disables AppendLogPage.
  uint64_t log_pages_total_ = 0;
  /// Global append cursor (page index into the striped log layout: plane =
  /// idx % planes, then pages in block order within the plane). Wraps.
  uint64_t log_head_ = 0;
  /// Dump pages in program order; shrinks when a dump block goes bad.
  std::vector<Ppn> dump_ppns_;
  static uint64_t BlockKey(uint32_t plane, uint32_t block) {
    return (static_cast<uint64_t>(plane) << 32) | block;
  }

  /// Blocks awaiting retirement after a program failure. The vector is the
  /// ordered worklist; the set mirrors it for O(1) IsRetirePending (which
  /// runs once per program retry and per GC victim candidate).
  std::vector<std::pair<uint32_t, uint32_t>> retire_pending_;
  std::unordered_set<uint64_t> retire_pending_set_;

  /// Forward map indexed by LPN, holding Pack(ppn, slot) + 1 so that 0
  /// means unmapped: calloc'd, so entries never written cost no resident
  /// memory. Read and written only through MappingOf / SetMapping.
  std::unique_ptr<uint64_t[], decltype(&std::free)> map_{nullptr,
                                                         &std::free};
  /// Reverse map: which LPN lives in each (ppn, slot), flat-indexed as
  /// ppn * sectors_per_page_ + slot and encoded like map_ (lpn + 1, 0 =
  /// dead, calloc'd). Read and written only through ReverseOf / SetReverse.
  std::unique_ptr<Lpn[], decltype(&std::free)> reverse_{nullptr, &std::free};
  std::unordered_map<Lpn, DeltaRec> delta_;
  /// Side index of delta_ for ForcePersistDeltaIn: BlockKey of each entry's
  /// rollback target -> the entry's LPN. delta_ stays authoritative: after
  /// UnmapIfPointsTo an LPN listed here may have left delta_ or been
  /// re-recorded with another rollback target, so readers re-check it.
  std::unordered_map<uint64_t, std::vector<Lpn>> delta_by_block_;
  std::vector<PlaneAlloc> planes_;
  Stats stats_;

  bool degraded_ = false;
  std::string degraded_reason_;

  Tracer* tracer_ = nullptr;
  /// Registered histograms (null when no registry was supplied).
  Histogram* h_program_ns_ = nullptr;
  Histogram* h_gc_relocation_ns_ = nullptr;
  /// Completion time / sector count of the latest RelocateLiveSectors,
  /// consumed by RunGc for the gc_relocation_ns sample.
  SimTime last_relocation_done_ = 0;
  uint64_t last_relocation_moved_ = 0;
};

}  // namespace durassd

#endif  // DURASSD_SSD_FTL_H_
