#include "flash/flash_array.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <new>

namespace durassd {

FlashArray::FlashArray(Options options)
    : opts_(std::move(options)),
      store_(opts_.sector_size),
      slots_per_page_(opts_.geometry.page_size / opts_.sector_size),
      session_(opts_.geometry),
      faults_(opts_.faults) {
  const FlashGeometry& g = opts_.geometry;
  assert(g.page_size % opts_.sector_size == 0);
  blocks_.assign(g.total_planes(), std::vector<Block>(g.blocks_per_plane));
  states_.assign(g.total_pages(), PageState::kFree);
  torn_.assign(g.total_pages(), false);
  frames_.reset(static_cast<Frame*>(
      std::calloc(g.total_pages() * slots_per_page_, sizeof(Frame))));
  if (frames_ == nullptr) throw std::bad_alloc();
}

SimTime FlashArray::ReserveChannel(uint32_t channel, SimTime t) {
  SimTime& busy = session_.channel_busy[channel];
  busy = std::max(t, busy) + opts_.geometry.channel_transfer_time();
  return busy;
}

SimTime FlashArray::ReadPage(SimTime now, Ppn ppn, std::string* out,
                             uint32_t* raw_bit_errors) {
  const FlashGeometry& g = opts_.geometry;
  session_.max_seen_time = std::max(session_.max_seen_time, now);
  stats_.reads++;

  SimTime& plane_busy = session_.plane_busy[g.PlaneOf(ppn)];
  // Cell-array sense, then transfer the page register over the channel.
  const SimTime sense_start = std::max(now, plane_busy);
  const SimTime sense_done = sense_start + g.read_latency;
  plane_busy = sense_done;
  const SimTime done = ReserveChannel(g.ChannelOf(ppn), sense_done);

  if (out != nullptr) CopyPage(ppn, out);
  if (raw_bit_errors != nullptr) *raw_bit_errors = 0;
  if (faults_.enabled()) {
    const uint32_t raw = faults_.OnRead(
        ppn, BlockAt(g.PlaneOf(ppn), g.BlockOf(ppn)).erase_count);
    if (raw_bit_errors != nullptr) {
      // ECC-aware caller: report the raw error count, keep `out` pristine.
      *raw_bit_errors = raw;
    } else if (raw > 0 && out != nullptr) {
      // Raw-media caller: the flips land in the returned bytes.
      faults_.CorruptPage(out, raw);
    }
  }
  return done;
}

void FlashArray::CopyPage(Ppn ppn, std::string* out) const {
  out->clear();
  out->reserve(opts_.geometry.page_size);
  for (uint32_t s = 0; s < slots_per_page_; ++s) {
    store_.AppendSector(SlotFrame(ppn, s), out);
  }
}

void FlashArray::ReleaseSlot(Ppn ppn, uint32_t slot) {
  Frame& frame = frames_[ppn * slots_per_page_ + slot];
  store_.Release(frame);
  frame = SectorStore::kZeroFrame;
}

void FlashArray::DropPageData(Ppn ppn) {
  for (uint32_t s = 0; s < slots_per_page_; ++s) ReleaseSlot(ppn, s);
}

void FlashArray::TearPage(Ppn ppn) {
  // Page bytes [0, page_size / 4) survive. A slot wholly past them loses
  // its frame; the slot they end inside gets a fresh frame with its
  // surviving prefix (the rest reads as zeros), so the frame it held —
  // possibly shared with the cache or a GC source page — stays intact.
  const uint32_t sector = opts_.sector_size;
  const uint32_t kept = opts_.geometry.page_size / 4;
  for (uint32_t s = 0; s < slots_per_page_; ++s) {
    const uint32_t begin = s * sector;
    if (begin + sector <= kept) continue;
    Frame& frame = frames_[ppn * slots_per_page_ + s];
    Frame torn = SectorStore::kZeroFrame;
    if (begin < kept) {
      const Slice stored = store_.Stored(frame);
      torn = store_.Put(
          Slice(stored.data(), std::min<size_t>(stored.size(), kept - begin)));
    }
    store_.Release(frame);
    frame = torn;
  }
}

Status FlashArray::CheckProgrammable(Ppn ppn,
                                     std::span<const Frame> frames) const {
  const FlashGeometry& g = opts_.geometry;
  if (ppn >= states_.size()) {
    return Status::InvalidArgument("ppn out of range");
  }
  if (states_[ppn] != PageState::kFree) {
    return Status::IoError("program to non-erased page");
  }
  const Block& block = BlockAt(g.PlaneOf(ppn), g.BlockOf(ppn));
  if (block.bad) {
    return Status::IoError("program to bad block");
  }
  if (g.PageOf(ppn) != block.next_page) {
    return Status::IoError("out-of-order program within block");
  }
  if (frames.size() > slots_per_page_) {
    return Status::InvalidArgument("data larger than page");
  }
  return Status::OK();
}

bool FlashArray::CommitProgram(Ppn ppn, std::span<const Frame> frames,
                               SimTime prog_start, SimTime prog_done) {
  const FlashGeometry& g = opts_.geometry;
  Block& block = BlockAt(g.PlaneOf(ppn), g.BlockOf(ppn));
  if (faults_.enabled() && faults_.OnProgram(ppn)) {
    // The die reports program-status fail after the full program time. The
    // page is consumed (in-order cursor advances) but holds nothing usable;
    // the FTL must retry elsewhere and retire the block.
    stats_.program_fails++;
    states_[ppn] = PageState::kInvalid;
    torn_[ppn] = true;
    block.next_page++;
    return false;
  }
  states_[ppn] = PageState::kValid;
  torn_[ppn] = false;
  block.next_page++;
  block.valid_count++;
  // A free page's slots hold no frames (erase and a never-started program
  // release them), so the page simply takes its references.
  Frame* const slots = &frames_[ppn * slots_per_page_];
  for (size_t s = 0; s < frames.size(); ++s) {
    store_.Ref(frames[s]);
    slots[s] = frames[s];
  }
  session_.inflight_programs.push_back({ppn, prog_start, prog_done});
  return true;
}

Status FlashArray::ProgramPage(SimTime now, Ppn ppn,
                               std::span<const Frame> frames, SimTime* done,
                               SimTime* start) {
  const FlashGeometry& g = opts_.geometry;
  session_.max_seen_time = std::max(session_.max_seen_time, now);
  PruneInFlight(now);
  DURASSD_RETURN_IF_ERROR(CheckProgrammable(ppn, frames));

  stats_.programs++;
  SimTime& plane_busy = session_.plane_busy[g.PlaneOf(ppn)];
  // Transfer host->page-register over the channel, then program the cells.
  const SimTime xfer_done = ReserveChannel(g.ChannelOf(ppn), now);
  const SimTime prog_start = std::max(xfer_done, plane_busy);
  const SimTime prog_done = prog_start + g.program_latency;
  plane_busy = prog_done;
  if (start != nullptr) *start = prog_start;
  *done = prog_done;

  if (!CommitProgram(ppn, frames, prog_start, prog_done)) {
    return Status::IoError("program failed");
  }
  return Status::OK();
}

Status FlashArray::ProgramPagesMultiPlane(SimTime now, Ppn ppn0, Ppn ppn1,
                                          std::span<const Frame> frames0,
                                          std::span<const Frame> frames1,
                                          SimTime* done, SimTime* start,
                                          bool failed[2]) {
  const FlashGeometry& g = opts_.geometry;
  session_.max_seen_time = std::max(session_.max_seen_time, now);
  PruneInFlight(now);
  failed[0] = failed[1] = false;

  const uint32_t p0 = g.PlaneOf(ppn0);
  const uint32_t p1 = g.PlaneOf(ppn1);
  if (p0 == p1 || p0 / g.planes_per_chip != p1 / g.planes_per_chip) {
    return Status::InvalidArgument(
        "multi-plane program requires distinct sibling planes of one chip");
  }
  DURASSD_RETURN_IF_ERROR(CheckProgrammable(ppn0, frames0));
  DURASSD_RETURN_IF_ERROR(CheckProgrammable(ppn1, frames1));

  stats_.programs += 2;
  stats_.multi_plane_programs++;
  // Both page registers load over the (shared) channel back to back, then
  // the single program command drives both planes' cells concurrently: one
  // tPROG window, two pages.
  const uint32_t channel = g.ChannelOf(ppn0);
  const SimTime xfer0 = ReserveChannel(channel, now);
  const SimTime xfer1 = ReserveChannel(channel, xfer0);
  std::vector<SimTime>& plane_busy = session_.plane_busy;
  const SimTime prog_start =
      std::max(xfer1, std::max(plane_busy[p0], plane_busy[p1]));
  const SimTime prog_done = prog_start + g.program_latency;
  plane_busy[p0] = prog_done;
  plane_busy[p1] = prog_done;
  if (start != nullptr) *start = prog_start;
  *done = prog_done;

  // Program-status is reported (and fault-rolled) per plane, like real
  // multi-plane NAND: one plane can fail while its sibling succeeds.
  failed[0] = !CommitProgram(ppn0, frames0, prog_start, prog_done);
  failed[1] = !CommitProgram(ppn1, frames1, prog_start, prog_done);
  if (failed[0] || failed[1]) {
    return Status::IoError("multi-plane program failed");
  }
  return Status::OK();
}

uint32_t FlashArray::ChannelOfPlane(uint32_t plane) const {
  const FlashGeometry& g = opts_.geometry;
  const uint32_t planes_per_channel =
      g.packages_per_channel * g.chips_per_package * g.planes_per_chip;
  return plane / planes_per_channel;
}

SimTime FlashArray::plane_ready_time(uint32_t plane) const {
  return std::max(session_.plane_busy[plane],
                  session_.channel_busy[ChannelOfPlane(plane)]);
}

uint32_t FlashArray::NextIdlePlane(SimTime now, uint32_t group) {
  const std::vector<SimTime>& plane_busy = session_.plane_busy;
  const uint32_t n = static_cast<uint32_t>(plane_busy.size());
  if (group == 0 || group > n) group = 1;
  const uint32_t slots = n / group;
  const uint32_t first = (session_.alloc_cursor / group) % slots;
  uint32_t best_slot = first;
  SimTime best_ready = std::numeric_limits<SimTime>::max();
  for (uint32_t i = 0; i < slots; ++i) {
    const uint32_t slot = (first + i) % slots;
    SimTime cell_busy = 0;
    SimTime ready = 0;
    for (uint32_t j = 0; j < group; ++j) {
      cell_busy = std::max(cell_busy, plane_busy[slot * group + j]);
      ready = std::max(ready, plane_ready_time(slot * group + j));
    }
    if (cell_busy <= now) {
      // Cell-idle: the first such slot from the cursor wins — the
      // round-robin striping tie-break. Channel occupancy is deliberately
      // ignored here: a pending transfer costs tens of microseconds while
      // a program occupies the cells for tPROG, and skipping a whole
      // channel's planes over a transfer makes consecutive batches cluster
      // onto a near-constant plane set (the cursor barely advances), which
      // concentrates freshly written — soon re-read — data on exactly the
      // planes the next batch keeps busy.
      best_slot = slot;
      break;
    }
    // No cell-idle slot: fall back to the earliest actual availability,
    // channel wait included.
    if (ready < best_ready) {
      best_slot = slot;
      best_ready = ready;
    }
  }
  session_.alloc_cursor = ((best_slot + 1) * group) % n;
  return best_slot * group;
}

Status FlashArray::EraseBlock(SimTime now, uint32_t plane_idx,
                              uint32_t block_idx, SimTime* done_out) {
  const FlashGeometry& g = opts_.geometry;
  session_.max_seen_time = std::max(session_.max_seen_time, now);
  PruneInFlight(now);

  Block& block = BlockAt(plane_idx, block_idx);
  if (block.bad) {
    if (done_out != nullptr) *done_out = now;
    return Status::IoError("erase of bad block");
  }
  stats_.erases++;
  SimTime& plane_busy = session_.plane_busy[plane_idx];
  const SimTime start = std::max(now, plane_busy);
  const SimTime done = start + g.erase_latency;
  plane_busy = done;
  if (done_out != nullptr) *done_out = done;

  if (faults_.enabled() && faults_.OnErase(plane_idx, block_idx)) {
    // Erase-status fail: the block becomes a grown bad block. Its contents
    // are indeterminate, so nothing may trust or reuse it.
    stats_.erase_fails++;
    block.erase_count++;  // The failed cycle still stressed the cells.
    MarkBad(plane_idx, block_idx);
    return Status::IoError("erase failed");
  }

  const Ppn first = g.MakePpn(plane_idx, block_idx, 0);
  for (uint32_t p = 0; p < g.pages_per_block; ++p) {
    states_[first + p] = PageState::kFree;
    torn_[first + p] = false;
  }
  DropBlockData(plane_idx, block_idx);
  block.erase_count++;
  block.next_page = 0;
  block.valid_count = 0;
  session_.inflight_erases.push_back({plane_idx, block_idx, start, done});
  return Status::OK();
}

void FlashArray::MarkBad(uint32_t plane_idx, uint32_t block_idx) {
  const FlashGeometry& g = opts_.geometry;
  Block& block = BlockAt(plane_idx, block_idx);
  block.bad = true;
  block.valid_count = 0;
  block.next_page = g.pages_per_block;  // No page is programmable.
  stats_.bad_blocks++;
  const Ppn first = g.MakePpn(plane_idx, block_idx, 0);
  for (uint32_t p = 0; p < g.pages_per_block; ++p) {
    states_[first + p] = PageState::kInvalid;
    torn_[first + p] = true;
  }
  DropBlockData(plane_idx, block_idx);
}

void FlashArray::DropBlockData(uint32_t plane_idx, uint32_t block_idx) {
  const FlashGeometry& g = opts_.geometry;
  const Ppn first = g.MakePpn(plane_idx, block_idx, 0);
  for (uint32_t p = 0; p < g.pages_per_block; ++p) DropPageData(first + p);
}

void FlashArray::RetireBlock(uint32_t plane_idx, uint32_t block_idx) {
  if (BlockAt(plane_idx, block_idx).bad) return;
  MarkBad(plane_idx, block_idx);
}

void FlashArray::MarkInvalid(Ppn ppn) {
  if (states_[ppn] == PageState::kValid) {
    states_[ppn] = PageState::kInvalid;
    const FlashGeometry& g = opts_.geometry;
    Block& block = BlockAt(g.PlaneOf(ppn), g.BlockOf(ppn));
    if (block.valid_count > 0) block.valid_count--;
  }
}

void FlashArray::RevalidatePage(Ppn ppn) {
  if (states_[ppn] == PageState::kInvalid) {
    states_[ppn] = PageState::kValid;
    const FlashGeometry& g = opts_.geometry;
    BlockAt(g.PlaneOf(ppn), g.BlockOf(ppn)).valid_count++;
  }
}

bool FlashArray::IsTorn(Ppn ppn) const { return torn_[ppn]; }

uint32_t FlashArray::erase_count(uint32_t plane, uint32_t block) const {
  return BlockAt(plane, block).erase_count;
}

uint32_t FlashArray::valid_pages_in_block(uint32_t plane,
                                          uint32_t block) const {
  return BlockAt(plane, block).valid_count;
}

uint32_t FlashArray::next_program_page(uint32_t plane, uint32_t block) const {
  return BlockAt(plane, block).next_page;
}

void FlashArray::PruneInFlight(SimTime now) {
  // Keep the in-flight lists short: entries whose completion precedes every
  // possible future power-cut instant (<= max_seen_time) can never be torn.
  const SimTime seen = session_.max_seen_time;
  if (session_.inflight_programs.size() > 4096) {
    std::erase_if(session_.inflight_programs,
                  [seen](const InFlightProgram& p) { return p.done <= seen; });
  }
  if (session_.inflight_erases.size() > 1024) {
    std::erase_if(session_.inflight_erases,
                  [seen](const InFlightErase& e) { return e.done <= seen; });
  }
  (void)now;
}

void FlashArray::PowerCut(SimTime t) {
  const FlashGeometry& g = opts_.geometry;
  for (const InFlightProgram& p : session_.inflight_programs) {
    if (p.done <= t) continue;  // Finished before the cut.
    Block& block = BlockAt(g.PlaneOf(p.ppn), g.BlockOf(p.ppn));
    if (!ProgramStarted(p.start, t)) {
      // Never started: the page is still erased.
      states_[p.ppn] = PageState::kFree;
      DropPageData(p.ppn);
      if (block.valid_count > 0) block.valid_count--;
      // The in-order cursor stays where it is; the FTL will treat this
      // block's remaining pages as unusable until erased, which is what a
      // real controller does after an unclean shutdown.
    } else {
      // Interrupted mid-program: a shorn write. Cells are programmed in
      // interleaved passes, so only a prefix (about a quarter) of the page
      // holds trustworthy data; every logical sector sharing the page is
      // torn. The rest reads as erased.
      torn_[p.ppn] = true;
      stats_.torn_pages++;
      TearPage(p.ppn);
    }
  }

  for (const InFlightErase& e : session_.inflight_erases) {
    if (e.done <= t) continue;
    // An interrupted erase leaves the block with indeterminate contents;
    // mark every page invalid (and torn) so nothing trusts it until a clean
    // re-erase.
    Block& block = BlockAt(e.plane, e.block);
    const Ppn first = g.MakePpn(e.plane, e.block, 0);
    for (uint32_t p = 0; p < g.pages_per_block; ++p) {
      states_[first + p] = PageState::kInvalid;
      torn_[first + p] = true;
    }
    DropBlockData(e.plane, e.block);
    block.valid_count = 0;
    block.next_page = g.pages_per_block;  // Unusable until erased again.
  }
  session_ = Session(g);
}

}  // namespace durassd
