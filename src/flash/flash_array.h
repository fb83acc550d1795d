#ifndef DURASSD_FLASH_FLASH_ARRAY_H_
#define DURASSD_FLASH_FLASH_ARRAY_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "flash/fault_model.h"
#include "flash/geometry.h"
#include "flash/sector_store.h"

namespace durassd {

/// State of one physical NAND page.
enum class PageState : uint8_t {
  kFree,     ///< Erased, programmable.
  kValid,    ///< Programmed and referenced by the mapping table.
  kInvalid,  ///< Programmed but superseded; reclaimable by GC.
};

/// The NAND flash array: channels x packages x chips x planes of blocks of
/// pages. Models:
///   - erase-before-program and in-order programming within a block,
///   - per-plane and per-channel occupancy for latency/parallelism,
///   - byte storage by reference: a page holds one SectorStore frame id per
///     sector slot (the zero frame when the slot holds no data), taking its
///     own reference on each frame it is programmed with and dropping them
///     when the block is erased or goes bad, or when the FTL releases a
///     slot nothing can read any more,
///   - torn pages when power is cut mid-program (shorn writes),
///   - per-block wear counters.
///
/// All operations take the caller's virtual issue time and return the
/// completion time; the array never blocks.
class FlashArray {
 public:
  using Frame = SectorStore::Frame;

  struct Options {
    FlashGeometry geometry;
    /// NAND fault injection. All-zero rates (the default) keep the array
    /// bit-for-bit identical to a fault-free build.
    FaultInjector::Options faults{};
    /// Sector slot size: the store's sector size and the FTL's mapping
    /// unit. Must divide the page size.
    uint32_t sector_size = 4 * kKiB;
  };

  explicit FlashArray(Options options);

  FlashArray(const FlashArray&) = delete;
  FlashArray& operator=(const FlashArray&) = delete;

  const FlashGeometry& geometry() const { return opts_.geometry; }
  uint32_t slots_per_page() const { return slots_per_page_; }
  /// The frames every page slot and the SSD's cache hold.
  SectorStore& store() { return store_; }
  const SectorStore& store() const { return store_; }

  /// Reads a physical page. `out` may be nullptr (timing only); otherwise it
  /// receives CopyPage(ppn). Returns the virtual completion time.
  /// A torn page is returned as-is (the half-old half-new bytes); callers
  /// detect it via checksums, exactly like a host.
  ///
  /// Raw NAND bit errors (from the fault injector, scaling with the block's
  /// wear) are reported two ways:
  ///   - `raw_bit_errors != nullptr`: the caller is ECC-aware. `out` gets the
  ///     pristine stored bytes and `*raw_bit_errors` the rolled raw error
  ///     count; the caller decides correct/retry/corrupt (the FTL's job).
  ///   - `raw_bit_errors == nullptr`: the caller reads raw media. Bit flips
  ///     are applied to `out` directly.
  SimTime ReadPage(SimTime now, Ppn ppn, std::string* out,
                   uint32_t* raw_bit_errors = nullptr);

  /// The frame in one sector slot of a page, at no media cost (ReadPage
  /// charges the sense and transfer). A slot that holds no data — free,
  /// failed, rolled back by a power cut, programmed without a frame, or
  /// released — names the zero frame.
  Frame SlotFrame(Ppn ppn, uint32_t slot) const {
    return frames_[ppn * slots_per_page_ + slot];
  }
  /// The stored bytes of a whole page, page_size long, assembled from its
  /// slots (dump replay and the log scan read pages whole).
  void CopyPage(Ppn ppn, std::string* out) const;
  /// Drops a slot's frame once nothing can read it (the FTL's release
  /// rule); the slot then reads as zeros.
  void ReleaseSlot(Ppn ppn, uint32_t slot);

  /// Programs an erased page. Enforces NAND constraints: the page must be
  /// free and must be the next unwritten page of its block (in-order
  /// programming). `done` receives the completion time; `start` (optional)
  /// receives the true cell-program start — after the channel transfer and
  /// any wait for the plane — which is what the torn-write model keys on.
  ///
  /// An injected program failure returns IoError after charging the full
  /// program latency; the page is left unusable (invalid, no data) and the
  /// in-order cursor advances past it, as on real NAND where a failed
  /// program still consumes the page.
  ///
  /// The page's slots take `frames` in order, one reference each (no bytes
  /// are copied); slots past the list hold no data and read as zeros, so an
  /// empty list programs the page (state, wear and timing as usual) with
  /// nothing stored.
  Status ProgramPage(SimTime now, Ppn ppn, std::span<const Frame> frames,
                     SimTime* done, SimTime* start = nullptr);

  /// Two-plane program (Sec. 2.3 chip-level interleaving): programs one page
  /// on each of two sibling planes of the same chip with a single command.
  /// Both page transfers serialize on the channel, then both planes program
  /// concurrently and share one completion time. Page constraints are checked
  /// per page before anything is charged. Injected program failures are
  /// rolled per page (`failed[i]`); the command returns IoError when either
  /// page failed, and the caller re-drives the failed page(s) individually.
  Status ProgramPagesMultiPlane(SimTime now, Ppn ppn0, Ppn ppn1,
                                std::span<const Frame> frames0,
                                std::span<const Frame> frames1, SimTime* done,
                                SimTime* start, bool failed[2]);

  /// Earliest time the plane can accept a new operation, including its
  /// channel: max(plane busy_until, channel busy_until).
  SimTime plane_ready_time(uint32_t plane) const;
  uint32_t ChannelOfPlane(uint32_t plane) const;

  /// Least-busy plane chooser for idle-aware allocation: returns the first
  /// cell-idle plane scanning round-robin from an internal cursor (transfer
  /// occupancy on the channel is ignored — it is two orders of magnitude
  /// cheaper than tPROG and skipping over it de-stripes allocation), or the
  /// plane with the minimal ready time (plane AND channel availability)
  /// when every plane is programming. The cursor keeps allocation
  /// deterministic and striped when everything is idle.
  /// `group` > 1 picks the first plane of the best aligned group of
  /// consecutive planes (e.g. group=2 chooses a chip for a multi-plane
  /// program); the group's ready time is the max over its members.
  uint32_t NextIdlePlane(SimTime now, uint32_t group = 1);

  /// Erases a whole block, returning all its pages to kFree. `done` (if
  /// non-null) receives the completion time.
  ///
  /// An injected erase failure grows a bad block: every page becomes
  /// invalid, the block refuses further programs/erases, and IoError is
  /// returned. The block stays bad across power cycles.
  Status EraseBlock(SimTime now, uint32_t plane, uint32_t block,
                    SimTime* done = nullptr);

  /// Marks a block bad at the FTL's request (e.g. after a program failure,
  /// once its live data has been relocated). Pages become invalid and the
  /// block is excluded from further use.
  void RetireBlock(uint32_t plane, uint32_t block);

  bool is_bad_block(uint32_t plane, uint32_t block) const {
    return BlockAt(plane, block).bad;
  }

  FaultInjector& fault_injector() { return faults_; }

  /// Marks a valid page invalid (superseded); bookkeeping only, free of cost.
  void MarkInvalid(Ppn ppn);

  /// Reverses MarkInvalid when a power-cut rollback resurrects the persisted
  /// mapping of a superseded page (the FTL's lost-write model).
  void RevalidatePage(Ppn ppn);

  PageState page_state(Ppn ppn) const { return states_[ppn]; }
  bool IsTorn(Ppn ppn) const;
  uint32_t erase_count(uint32_t plane, uint32_t block) const;
  uint32_t valid_pages_in_block(uint32_t plane, uint32_t block) const;
  uint32_t next_program_page(uint32_t plane, uint32_t block) const;

  /// Whether a cell program starting at `start` had begun when power is cut
  /// at `t`. The one definition PowerCut and the FTL's torn-write rollback
  /// share: a program that would start exactly at the cut never began.
  static bool ProgramStarted(SimTime start, SimTime t) { return start < t; }

  /// Cuts power at time `t` and ends the power session: the array starts
  /// the next one idle. Any program still in flight at `t` leaves its page
  /// torn (only the first quarter of the new bytes survive, in fresh
  /// frames: a tear never writes into a frame another holder references);
  /// any program not yet begun (ProgramStarted) is rolled back to kFree.
  /// In-flight erases leave the block in an unusable state until re-erased.
  /// An SSD that runs work on capacitor power (the dump) cuts the array
  /// after it, so that work does not carry into the next session either.
  void PowerCut(SimTime t);

  /// Declares all in-flight operations safely completed: the capacitor
  /// runs them to completion (Sec. 3.4.1), or recovery ran under its
  /// protection (Sec. 3.4.2: capacitors are recharged before recovery so a
  /// nested power failure cannot shear the replay).
  void QuiesceInFlight() {
    session_.inflight_programs.clear();
    session_.inflight_erases.clear();
  }

  struct Stats {
    uint64_t reads = 0;
    uint64_t programs = 0;
    uint64_t multi_plane_programs = 0;  ///< Two-plane commands (2 pages each).
    uint64_t erases = 0;
    uint64_t torn_pages = 0;
    uint64_t program_fails = 0;  ///< Injected page-program failures.
    uint64_t erase_fails = 0;    ///< Injected block-erase failures.
    uint64_t bad_blocks = 0;     ///< Grown bad blocks (erase-fail + retired).
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Block {
    uint32_t erase_count = 0;
    uint32_t next_page = 0;   ///< In-order programming cursor.
    uint32_t valid_count = 0;
    bool bad = false;         ///< Grown bad block; permanently out of service.
  };
  struct InFlightProgram {
    Ppn ppn;
    SimTime start;
    SimTime done;
  };
  struct InFlightErase {
    uint32_t plane;
    uint32_t block;
    SimTime start;
    SimTime done;
  };

  /// Everything a power cycle discards: the NAND operations in flight and
  /// the reservations of the dies and channels. PowerCut replaces it whole.
  struct Session {
    explicit Session(const FlashGeometry& g)
        : plane_busy(g.total_planes(), 0), channel_busy(g.channels, 0) {}
    std::vector<SimTime> plane_busy;    ///< Per plane: cells busy until.
    std::vector<SimTime> channel_busy;  ///< Per channel: busy until.
    std::vector<InFlightProgram> inflight_programs;
    std::vector<InFlightErase> inflight_erases;
    /// Round-robin tie-break cursor for NextIdlePlane.
    uint32_t alloc_cursor = 0;
    SimTime max_seen_time = 0;
  };

  Block& BlockAt(uint32_t plane, uint32_t block) {
    return blocks_[plane][block];
  }
  const Block& BlockAt(uint32_t plane, uint32_t block) const {
    return blocks_[plane][block];
  }
  /// Reserves the channel for one page transfer starting no earlier than t.
  SimTime ReserveChannel(uint32_t channel, SimTime t);
  /// Shared validation for ProgramPage / ProgramPagesMultiPlane: NAND
  /// constraints that must hold before any time is charged.
  Status CheckProgrammable(Ppn ppn, std::span<const Frame> frames) const;
  /// Commits one programmed page (fault roll, state/frame update, in-flight
  /// record) given its program window. Returns false on an injected
  /// program failure.
  bool CommitProgram(Ppn ppn, std::span<const Frame> frames,
                     SimTime prog_start, SimTime prog_done);
  /// Releases every slot of a page.
  void DropPageData(Ppn ppn);
  /// Drops a block's stored bytes (erase, bad block, interrupted erase).
  void DropBlockData(uint32_t plane, uint32_t block);
  /// Keeps only the first quarter of a page's bytes (a shorn program).
  void TearPage(Ppn ppn);
  void PruneInFlight(SimTime now);
  /// Shared tail of EraseBlock-failure and RetireBlock: poisons every page
  /// and takes the block out of service.
  void MarkBad(uint32_t plane, uint32_t block);

  // Every member but session_ crosses a power cut: the config, what is on
  // NAND, or a statistic.
  Options opts_;
  /// Block table, per plane: wear, program cursors and bad marks (on NAND).
  std::vector<std::vector<Block>> blocks_;
  std::vector<PageState> states_;  ///< On NAND, as is torn_.
  std::vector<bool> torn_;
  SectorStore store_;  ///< The pages' bytes (on NAND), the cache's too.
  uint32_t slots_per_page_;  ///< Derived from the config.
  /// Frame of every (page, slot), on NAND, flat-indexed as ppn *
  /// slots_per_page_ + slot: calloc'd, so slots never programmed cost no
  /// resident memory.
  std::unique_ptr<Frame[], decltype(&std::free)> frames_{nullptr,
                                                          &std::free};
  Session session_;
  Stats stats_;
  FaultInjector faults_;  ///< Its rolls follow the media, not the power.
};

}  // namespace durassd

#endif  // DURASSD_FLASH_FLASH_ARRAY_H_
