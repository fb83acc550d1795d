#ifndef DURASSD_FLASH_FLASH_ARRAY_H_
#define DURASSD_FLASH_FLASH_ARRAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "flash/fault_model.h"
#include "flash/geometry.h"

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
///   - byte storage of exactly what each program is handed: one flat buffer
///     per block, allocated by its first program with a non-empty image and
///     freed when the block is erased or goes bad, plus a per-page has-data
///     bit (a program with an empty image stores nothing),
///   - torn pages when power is cut mid-program (shorn writes),
///   - per-block wear counters.
///
/// All operations take the caller's virtual issue time and return the
/// completion time; the array never blocks.
class FlashArray {
 public:
  struct Options {
    FlashGeometry geometry;
    /// NAND fault injection. All-zero rates (the default) keep the array
    /// bit-for-bit identical to a fault-free build.
    FaultInjector::Options faults{};
  };

  explicit FlashArray(Options options);

  FlashArray(const FlashArray&) = delete;
  FlashArray& operator=(const FlashArray&) = delete;

  const FlashGeometry& geometry() const { return opts_.geometry; }

  /// Reads a physical page. `out` may be nullptr (timing only); otherwise it
  /// receives a copy of PageView(ppn). Returns the virtual completion time.
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

  /// The stored bytes of a physical page, page_size long, at no media cost
  /// (ReadPage charges the sense and transfer). A page that holds no data —
  /// free, failed, rolled back by a power cut, or programmed with an empty
  /// image — reads as zeros. The view stays valid until the page's block is
  /// erased or retired, or power is cut.
  Slice PageView(Ppn ppn) const;
  /// True iff the page holds programmed bytes (see PageView).
  bool HasData(Ppn ppn) const { return has_data_[ppn]; }

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
  /// The page image is the concatenation of `parts` (a gather list, so
  /// sectors are copied once, straight into the page); the rest of the page
  /// reads as zeros. An empty image stores nothing: the page is programmed
  /// (state, wear and timing as usual) but holds no data.
  Status ProgramPage(SimTime now, Ppn ppn, std::span<const Slice> parts,
                     SimTime* done, SimTime* start = nullptr);
  Status ProgramPage(SimTime now, Ppn ppn, Slice data, SimTime* done,
                     SimTime* start = nullptr) {
    return ProgramPage(now, ppn, std::span<const Slice>(&data, 1), done,
                       start);
  }

  /// Two-plane program (Sec. 2.3 chip-level interleaving): programs one page
  /// on each of two sibling planes of the same chip with a single command.
  /// Both page transfers serialize on the channel, then both planes program
  /// concurrently and share one completion time. Page constraints are checked
  /// per page before anything is charged. Injected program failures are
  /// rolled per page (`failed[i]`); the command returns IoError when either
  /// page failed, and the caller re-drives the failed page(s) individually.
  Status ProgramPagesMultiPlane(SimTime now, Ppn ppn0, Ppn ppn1,
                                std::span<const Slice> parts0,
                                std::span<const Slice> parts1, SimTime* done,
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

  /// Cuts power at time `t`. Any program still in flight at `t` leaves its
  /// page torn (only the first quarter of the new bytes survive); any
  /// program not yet begun (ProgramStarted) is rolled back to kFree.
  /// In-flight erases leave the block in an unusable state until re-erased.
  void PowerCut(SimTime t);
  /// Collapses plane and channel reservations: after power is restored the
  /// array starts idle. PowerCut ends with it; the SSD calls it again when
  /// it ends a power session, clean or cut, so NAND operations issued after
  /// the cut (the capacitor dump) do not carry into the next session.
  void ResetReservations();

  /// Declares all in-flight operations safely completed. Used when recovery
  /// runs under capacitor protection (Sec. 3.4.2: capacitors are recharged
  /// before recovery so a nested power failure cannot shear the replay).
  void QuiesceInFlight() {
    inflight_programs_.clear();
    inflight_erases_.clear();
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
    /// pages_per_block * page_size bytes, left uninitialized: only pages
    /// whose has_data_ bit is set hold meaningful bytes. Null until the
    /// block's first program with a non-empty image; freed by erase and by
    /// MarkBad.
    std::unique_ptr<char[]> bytes;
  };
  struct Plane {
    SimTime busy_until = 0;
    std::vector<Block> blocks;
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

  Block& BlockAt(uint32_t plane, uint32_t block) {
    return planes_[plane].blocks[block];
  }
  const Block& BlockAt(uint32_t plane, uint32_t block) const {
    return planes_[plane].blocks[block];
  }
  /// Reserves the channel for one page transfer starting no earlier than t.
  SimTime ReserveChannel(uint32_t channel, SimTime t);
  /// Shared validation for ProgramPage / ProgramPagesMultiPlane: NAND
  /// constraints that must hold before any time is charged.
  Status CheckProgrammable(Ppn ppn, std::span<const Slice> parts) const;
  /// Commits one programmed page (fault roll, state/data update, in-flight
  /// record) given its program window. Returns false on an injected
  /// program failure.
  bool CommitProgram(Ppn ppn, std::span<const Slice> parts, SimTime prog_start,
                     SimTime prog_done);
  /// Drops a block's stored bytes (erase, bad block, interrupted erase).
  void DropBlockData(uint32_t plane, uint32_t block);
  /// Start of `ppn`'s bytes in `block`'s buffer, which must be allocated.
  char* PageBytes(const Block& block, Ppn ppn) const {
    return block.bytes.get() +
           static_cast<size_t>(opts_.geometry.PageOf(ppn)) *
               opts_.geometry.page_size;
  }
  void PruneInFlight(SimTime now);
  /// Shared tail of EraseBlock-failure and RetireBlock: poisons every page
  /// and takes the block out of service.
  void MarkBad(uint32_t plane, uint32_t block);

  Options opts_;
  std::vector<Plane> planes_;
  std::vector<SimTime> channel_busy_;
  std::vector<PageState> states_;
  std::vector<bool> torn_;
  /// Per page: the block buffer holds this page's programmed bytes.
  std::vector<bool> has_data_;
  /// PageView of a page without data.
  std::string zero_page_;
  std::vector<InFlightProgram> inflight_programs_;
  std::vector<InFlightErase> inflight_erases_;
  /// Round-robin tie-break cursor for NextIdlePlane.
  uint32_t alloc_cursor_ = 0;
  SimTime max_seen_time_ = 0;
  Stats stats_;
  FaultInjector faults_;
};

}  // namespace durassd

#endif  // DURASSD_FLASH_FLASH_ARRAY_H_
