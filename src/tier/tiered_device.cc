#include "tier/tiered_device.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"

namespace durassd {
namespace {

/// Journal page layout (one flash sector):
///   magic u32 | type u8 | seq u64 | group u64 | idx u32 | of u32 |
///   count u32 | count x (op u8, slot u32, cap_lpn u64) | crc32c u32
/// The CRC seals everything before it; the rest of the sector is zero.
constexpr uint32_t kMapMagic = 0x7E1ECA5Eu;
constexpr size_t kPageHeaderBytes = 4 + 1 + 8 + 8 + 4 + 4 + 4;
constexpr size_t kEntryBytes = 1 + 4 + 8;

/// A read stream whose consecutive-LBA run reaches this many sectors is a
/// scan (admission bypass until the run breaks).
constexpr uint64_t kSeqRunSectors = 64;
/// Idle opportunism: when the host has been quiet this long and at least
/// kDestageIdleMin sectors are dirty, a round is issued at the idle start so
/// the capacity tier's quiet time is used.
constexpr SimTime kDestageIdle = 2 * kMillisecond;
constexpr uint64_t kDestageIdleMin = 8;
/// Free-slot low-water mark: allocation refills the free pool by
/// batch-invalidating clean victims (one journal write for the batch).
constexpr size_t kFreeReserveSlots = 16;
/// Clean victims invalidated per refill round.
constexpr size_t kEvictBatch = 32;

}  // namespace

uint32_t TieredDevice::EntriesPerPage() const {
  return static_cast<uint32_t>(
      (cfg_.flash.sector_size - kPageHeaderBytes - 4) / kEntryBytes);
}

TieredDevice::TieredDevice(TieredConfig config) : cfg_(std::move(config)) {
  // The commit-point semantics (journal ack implies data acks; acked
  // commands atomic + durable) require the durable ordered write cache.
  // Both members store bytes: recovery reads the journal back from flash,
  // and a destage moves real sectors to the capacity tier.
  cfg_.flash.durable_cache = true;
  cfg_.flash.ordered_queue = true;
  cfg_.flash.cache_enabled = true;
  cfg_.flash.store_data = true;
  cfg_.capacity_hdd.store_data = true;
  cfg_.capacity_hdd.sector_size = cfg_.flash.sector_size;

  flash_ = std::make_unique<SsdDevice>(cfg_.flash);
  capacity_ = std::make_unique<HddDevice>(cfg_.capacity_hdd);
  capacity_sectors_ = capacity_->num_sectors();

  // Size the cache and the map ring. The ring must hold two full
  // checkpoints plus the delta window between them with slack, so the
  // writer can never lap the live window (see DESIGN.md §13).
  const uint64_t flash_sectors = flash_->num_sectors();
  const uint32_t epp = EntriesPerPage();
  const double pct = std::clamp(cfg_.flash_pct, 0.01, 100.0);
  uint64_t want = static_cast<uint64_t>(
      pct / 100.0 * static_cast<double>(capacity_sectors_));
  want = std::max<uint64_t>(want, 16);
  uint64_t slots = std::min(want, flash_sectors > 64 ? flash_sectors - 64 : 1);
  ckpt_pages_ = static_cast<uint32_t>((slots + epp - 1) / epp);
  if (ckpt_pages_ == 0) ckpt_pages_ = 1;
  map_pages_ = static_cast<uint32_t>(
      std::min<uint64_t>(4 * ckpt_pages_ + 16, flash_sectors / 2));
  if (map_pages_ < 8) map_pages_ = 8;
  // Clamp the slot count to what the chosen ring can checkpoint and what
  // the flash tier has left after the ring.
  const uint64_t ring_max_slots =
      map_pages_ > 20 ? (static_cast<uint64_t>(map_pages_) - 16) / 4 * epp
                      : epp;
  slots = std::min({slots, ring_max_slots, flash_sectors - map_pages_});
  if (slots == 0) slots = 1;
  ckpt_pages_ = static_cast<uint32_t>((slots + epp - 1) / epp);
  if (ckpt_pages_ == 0) ckpt_pages_ = 1;
  ckpt_interval_ =
      std::max<uint32_t>(4, (map_pages_ - 2 * ckpt_pages_) / 2);

  slots_.assign(static_cast<size_t>(slots), Slot{});
  RebuildFreeList();

  // Seed the ring with an empty checkpoint so recovery always finds a
  // complete base, even after a cut on a freshly-deployed device.
  Status st;
  SimTime done = 0;
  WriteCheckpoint(0, &done, &st);
  assert(st.ok());
}

void TieredDevice::RebuildFreeList() {
  free_slots_.clear();
  for (size_t s = slots_.size(); s-- > 0;) {
    if (!slots_[s].valid) free_slots_.push_back(static_cast<uint32_t>(s));
  }
}

// ---------------------------------------------------------------------------
// Journal encode/decode
// ---------------------------------------------------------------------------

std::string TieredDevice::EncodePage(const MapPage& p) const {
  std::string out;
  out.reserve(cfg_.flash.sector_size);
  PutFixed32(&out, kMapMagic);
  out.push_back(p.is_checkpoint ? '\1' : '\0');
  PutFixed64(&out, p.seq);
  PutFixed64(&out, p.group);
  PutFixed32(&out, p.idx);
  PutFixed32(&out, p.of);
  PutFixed32(&out, static_cast<uint32_t>(p.deltas.size()));
  for (const MapDelta& d : p.deltas) {
    out.push_back(static_cast<char>(d.op));
    PutFixed32(&out, d.slot);
    PutFixed64(&out, d.cap_lpn);
  }
  PutFixed32(&out, Crc32c(out.data(), out.size()));
  out.resize(cfg_.flash.sector_size, '\0');
  return out;
}

bool TieredDevice::DecodePage(Slice raw, MapPage* out) const {
  if (raw.size() < kPageHeaderBytes + 4) return false;
  const char* p = raw.data();
  if (DecodeFixed32(p) != kMapMagic) return false;
  const uint32_t count = DecodeFixed32(p + 29);
  const size_t used = kPageHeaderBytes + static_cast<size_t>(count) * kEntryBytes;
  if (used + 4 > raw.size()) return false;
  if (DecodeFixed32(p + used) != Crc32c(p, used)) return false;
  out->valid = true;
  out->is_checkpoint = p[4] != '\0';
  out->seq = DecodeFixed64(p + 5);
  out->group = DecodeFixed64(p + 13);
  out->idx = DecodeFixed32(p + 21);
  out->of = DecodeFixed32(p + 25);
  out->deltas.clear();
  out->deltas.reserve(count);
  const char* e = p + kPageHeaderBytes;
  for (uint32_t i = 0; i < count; ++i, e += kEntryBytes) {
    MapDelta d;
    d.op = static_cast<uint8_t>(e[0]);
    d.slot = DecodeFixed32(e + 1);
    d.cap_lpn = DecodeFixed64(e + 5);
    out->deltas.push_back(d);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Journal writer
// ---------------------------------------------------------------------------

SimTime TieredDevice::WriteOpenPage(SimTime t, Status* st) {
  MapPage p;
  p.valid = true;
  p.is_checkpoint = false;
  p.seq = map_seq_;
  p.deltas = open_deltas_;
  const Result r = flash_->Write(t, map_ring_pos_, EncodePage(p));
  if (!r.status.ok()) *st = r.status;
  return r.done;
}

void TieredDevice::CloseOpenPage(SimTime t, SimTime* done, Status* st) {
  map_ring_pos_ = (map_ring_pos_ + 1) % map_pages_;
  ++map_seq_;
  open_deltas_.clear();
  ++closed_since_ckpt_;
  if (closed_since_ckpt_ >= ckpt_interval_) {
    WriteCheckpoint(std::max(t, *done), done, st);
  }
}

void TieredDevice::WriteCheckpoint(SimTime t, SimTime* done, Status* st) {
  std::vector<MapDelta> entries;
  entries.reserve(dir_.size());
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].valid) continue;
    entries.push_back({slots_[s].dirty ? kOpMapDirty : kOpMapClean, s,
                       slots_[s].cap_lpn});
  }
  const uint32_t epp = EntriesPerPage();
  const uint32_t of = std::max<uint32_t>(
      1, static_cast<uint32_t>((entries.size() + epp - 1) / epp));
  const uint64_t group = map_seq_;
  SimTime when = t;
  for (uint32_t i = 0; i < of; ++i) {
    MapPage p;
    p.valid = true;
    p.is_checkpoint = true;
    p.seq = map_seq_++;
    p.group = group;
    p.idx = i;
    p.of = of;
    const size_t lo = static_cast<size_t>(i) * epp;
    const size_t hi = std::min(entries.size(), lo + epp);
    if (lo < hi) p.deltas.assign(entries.begin() + lo, entries.begin() + hi);
    const Result r = flash_->Write(when, map_ring_pos_, EncodePage(p));
    if (!r.status.ok()) {
      *st = r.status;
      return;
    }
    *done = std::max(*done, r.done);
    map_ring_pos_ = (map_ring_pos_ + 1) % map_pages_;
  }
  open_deltas_.clear();
  closed_since_ckpt_ = 0;
  ++stats_.map_checkpoints;
}

SimTime TieredDevice::AppendMapDeltas(SimTime t,
                                      const std::vector<MapDelta>& deltas,
                                      Status* st) {
  if (deltas.empty()) return t;
  const size_t cap = EntriesPerPage();
  SimTime done = t;
  size_t i = 0;
  while (i < deltas.size() && st->ok()) {
    const size_t remaining = deltas.size() - i;
    // A delta batch that fits one page must land in ONE page write — that
    // write is the command's atomic commit point. Oversized batches chunk
    // (and are atomic per chunk; host commands never get near the limit).
    if (open_deltas_.size() >= cap ||
        (i == 0 && remaining <= cap &&
         open_deltas_.size() + remaining > cap)) {
      CloseOpenPage(t, &done, st);
      if (!st->ok()) break;
    }
    const size_t take = std::min(remaining, cap - open_deltas_.size());
    open_deltas_.insert(open_deltas_.end(), deltas.begin() + i,
                        deltas.begin() + i + take);
    i += take;
    done = std::max(done, WriteOpenPage(std::max(t, done), st));
  }
  return done;
}

// ---------------------------------------------------------------------------
// Allocation / eviction / destage
// ---------------------------------------------------------------------------

void TieredDevice::EnsureFreeSlots(SimTime t, size_t want, bool allow_destage,
                                   Status* st) {
  while (free_slots_.size() < want && st->ok()) {
    // Clock sweep (second chance) for a batch of clean victims. Each victim
    // is invalidated as it is picked: the sweep may lap the clock, and a
    // slot picked twice would be freed twice and handed to two LBAs.
    std::vector<MapDelta> deltas;
    const size_t nslots = slots_.size();
    for (size_t scanned = 0;
         deltas.size() < kEvictBatch && scanned < 2 * nslots; ++scanned) {
      const uint32_t s = clock_hand_;
      clock_hand_ = (clock_hand_ + 1) % static_cast<uint32_t>(nslots);
      Slot& sl = slots_[s];
      if (!sl.valid || sl.dirty) continue;
      if (sl.ref) {
        sl.ref = false;
        continue;
      }
      deltas.push_back({kOpInvalidate, s, sl.cap_lpn});
      dir_.erase(sl.cap_lpn);
      sl = Slot{};
      free_slots_.push_back(s);
      ++stats_.evictions;
    }
    if (deltas.empty()) {
      // Everything is dirty (or invalid): only a destage round can mint
      // clean victims.
      if (!allow_destage || dirty_count_ == 0) return;
      DestageRound(t, cfg_.destage_batch, st);
      continue;
    }
    // The batch invalidation is journaled BEFORE any reuse: a reused
    // slot's data write is submitted after this page write, so the ordered
    // flash queue guarantees a cut can never leave new bytes under a
    // surviving old mapping.
    AppendMapDeltas(t, deltas, st);
  }
}

bool TieredDevice::AcquireSlot(SimTime t, uint32_t* slot, Status* st) {
  if (free_slots_.empty()) {
    EnsureFreeSlots(t, kFreeReserveSlots, /*allow_destage=*/true, st);
  } else if (free_slots_.size() < kFreeReserveSlots) {
    EnsureFreeSlots(t, kFreeReserveSlots, /*allow_destage=*/false, st);
  }
  if (!st->ok() || free_slots_.empty()) return false;
  *slot = free_slots_.back();
  free_slots_.pop_back();
  return true;
}

SimTime TieredDevice::DestageRound(SimTime t, uint32_t max_victims,
                                   Status* st) {
  if (dirty_count_ == 0 || max_victims == 0) return t;
  // Victim selection: an LBA-order sweep from the cursor (elevator-style),
  // wrapping once. dir_ is a sorted map, so this is a cheap ordered walk.
  std::vector<std::pair<Lpn, uint32_t>> victims;
  auto it = dir_.lower_bound(destage_cursor_);
  for (size_t examined = 0;
       victims.size() < max_victims && examined < dir_.size(); ++examined) {
    if (it == dir_.end()) it = dir_.begin();
    if (slots_[it->second].dirty) victims.emplace_back(it->first, it->second);
    ++it;
  }
  if (victims.empty()) return t;
  destage_cursor_ = victims.back().first + 1;
  std::sort(victims.begin(), victims.end());

  // Phase 1: pull victim bytes off the flash tier.
  std::vector<std::string> bytes(victims.size());
  SimTime tr = t;
  for (size_t i = 0; i < victims.size(); ++i) {
    const Result r =
        flash_->Read(t, SlotDataLpn(victims[i].second), 1, &bytes[i]);
    if (!r.status.ok()) {
      *st = r.status;
      return tr;
    }
    tr = std::max(tr, r.done);
  }

  // Phase 2: coalesce into contiguous runs — the capacity tier sees a few
  // large sorted writes, not per-page random ones.
  SimTime tw = tr;
  size_t i = 0;
  while (i < victims.size()) {
    size_t j = i + 1;
    while (j < victims.size() && victims[j].first == victims[j - 1].first + 1) {
      ++j;
    }
    std::string run_buf;
    run_buf.reserve((j - i) * cfg_.flash.sector_size);
    for (size_t k = i; k < j; ++k) run_buf.append(bytes[k]);
    const Result r = capacity_->Write(tr, victims[i].first, run_buf);
    if (!r.status.ok()) {
      *st = r.status;
      return tw;
    }
    tw = std::max(tw, r.done);
    ++stats_.destage_runs;
    i = j;
  }

  // Phase 3: the capacity tier's cache is volatile — only a completed
  // FLUSH makes the copies durable, and only then may the journal mark
  // the slots clean. A cut in between merely re-destages.
  const Result f = capacity_->Flush(tw);
  if (!f.status.ok()) {
    *st = f.status;
    return tw;
  }
  std::vector<MapDelta> deltas;
  deltas.reserve(victims.size());
  for (const auto& [lpn, slot] : victims) {
    slots_[slot].dirty = false;
    --dirty_count_;
    deltas.push_back({kOpMarkClean, slot, lpn});
  }
  const SimTime tj = AppendMapDeltas(f.done, deltas, st);
  ++stats_.destage_batches;
  stats_.destage_sectors += victims.size();
  return tj;
}

void TieredDevice::MaybeDestage(SimTime now) {
  // Idle opportunism: the gap that just ended belonged to the devices —
  // issue the round at the idle start so it used quiet capacity time.
  if (dirty_count_ >= kDestageIdleMin && last_activity_ > 0 &&
      now > last_activity_ && now - last_activity_ >= kDestageIdle) {
    Status st;
    DestageRound(last_activity_, cfg_.destage_batch, &st);
  }
}

// ---------------------------------------------------------------------------
// Command execution
// ---------------------------------------------------------------------------

BlockDevice::Result TieredDevice::Execute(SimTime t, const Command& cmd) {
  MaybeDestage(t);

  Result r;
  switch (cmd.op) {
    case Command::Op::kWrite:
      r = DoWrite(t, cmd.lpn, cmd.data);
      break;
    case Command::Op::kRead:
      r = DoRead(t, cmd.lpn, cmd.nsec, cmd.out);
      break;
    default:
      // FLUSH. No native barrier: acked writes are already durable, so an
      // ordering point degenerates to the (cheap) flash drain, and BARRIER
      // arrives here as FLUSH.
      r = DoFlush(t);
      break;
  }
  if (r.status.ok()) last_activity_ = std::max(last_activity_, r.done);
  return r;
}

BlockDevice::Result TieredDevice::DoWrite(SimTime now, Lpn lpn, Slice data) {
  const uint32_t nsec =
      static_cast<uint32_t>(data.size() / cfg_.flash.sector_size);
  ++stats_.host_writes;
  stats_.host_written_sectors += nsec;

  // Remap-always: every sector goes to a FRESH slot; the old slot (and its
  // bytes) stay untouched until the journal's commit point supersedes
  // them, which is what makes the whole command atomic.
  Status st;
  std::vector<uint32_t> placed;
  placed.reserve(nsec);
  SimTime data_done = now;
  for (uint32_t i = 0; i < nsec; ++i) {
    uint32_t slot = 0;
    if (!AcquireSlot(now, &slot, &st)) {
      for (const uint32_t s : placed) free_slots_.push_back(s);
      return {st.ok() ? Status::ResourceExhausted("no cache slot") : st, now};
    }
    const Slice sector(
        data.data() + static_cast<size_t>(i) * cfg_.flash.sector_size,
        cfg_.flash.sector_size);
    const Result dr = flash_->Write(now, SlotDataLpn(slot), sector);
    if (!dr.status.ok()) {
      free_slots_.push_back(slot);
      for (const uint32_t s : placed) free_slots_.push_back(s);
      return {dr.status, dr.done};
    }
    data_done = std::max(data_done, dr.done);
    placed.push_back(slot);
  }

  // Commit: in-memory remap plus the journal delta batch [invalidate old,
  // map new dirty]. Data writes precede the journal write in the ordered
  // flash queue, so journal-acked implies data-acked.
  std::vector<MapDelta> deltas;
  deltas.reserve(2 * nsec);
  for (uint32_t i = 0; i < nsec; ++i) {
    const Lpn l = lpn + i;
    const uint32_t ns = placed[i];
    auto it = dir_.find(l);
    if (it != dir_.end()) {
      const uint32_t old = it->second;
      deltas.push_back({kOpInvalidate, old, l});
      if (slots_[old].dirty) --dirty_count_;
      slots_[old] = Slot{};
      free_slots_.push_back(old);
      dir_.erase(it);
    }
    deltas.push_back({kOpMapDirty, ns, l});
    slots_[ns] = Slot{l, true, true, true};
    dir_[l] = ns;
    ++dirty_count_;
  }
  const SimTime jdone = AppendMapDeltas(now, deltas, &st);
  if (!st.ok()) return {st, jdone};
  const SimTime ack = std::max(data_done, jdone);

  // Batch-threshold trigger: drain a sorted group once enough is dirty.
  // The round extends member timelines (realistic interference for later
  // commands) but never this command's already-computed ack.
  if (dirty_count_ >= cfg_.destage_batch) {
    Status dst;
    DestageRound(ack, cfg_.destage_batch, &dst);
  }
  return {Status::OK(), ack};
}

BlockDevice::Result TieredDevice::DoRead(SimTime now, Lpn lpn, uint32_t nsec,
                                         std::string* out) {
  ++stats_.host_reads;
  stats_.host_read_sectors += nsec;

  // Sequential-scan detection: a run of back-to-back LBAs long enough to
  // look like a backup/table scan stops polluting the cache.
  bool scan = false;
  if (cfg_.admission == TieredConfig::Admission::kBypassSequential) {
    seq_run_ = (lpn == seq_last_end_) ? seq_run_ + nsec : nsec;
    seq_last_end_ = lpn + nsec;
    scan = seq_run_ >= kSeqRunSectors;
  }
  const bool admit_misses = !scan;

  if (out != nullptr) {
    out->clear();
    out->reserve(static_cast<size_t>(nsec) * cfg_.flash.sector_size);
  }

  struct MissRun {
    Lpn lpn;
    uint32_t nsec;
    std::string bytes;  ///< Capacity bytes (read or admitted misses).
  };
  std::vector<MissRun> misses;
  SimTime done = now;
  uint32_t i = 0;
  while (i < nsec) {
    const Lpn l = lpn + i;
    auto it = dir_.find(l);
    if (it != dir_.end()) {
      // Hit run: extend while the mapping stays slot-contiguous so one
      // flash command covers it.
      const uint32_t start_slot = it->second;
      slots_[start_slot].ref = true;
      uint32_t run = 1;
      while (i + run < nsec) {
        auto jt = dir_.find(l + run);
        if (jt == dir_.end() || jt->second != start_slot + run) break;
        slots_[jt->second].ref = true;
        ++run;
      }
      std::string tmp;
      const Result r = flash_->Read(now, SlotDataLpn(start_slot), run,
                                    out != nullptr ? &tmp : nullptr);
      if (!r.status.ok()) return {r.status, r.done};
      if (out != nullptr) out->append(tmp);
      done = std::max(done, r.done);
      stats_.tier_read_hits += run;
      i += run;
    } else {
      uint32_t run = 1;
      while (i + run < nsec && dir_.find(l + run) == dir_.end()) ++run;
      MissRun mr{l, run, {}};
      std::string* dst = nullptr;
      if (out != nullptr || admit_misses) dst = &mr.bytes;
      const Result r = capacity_->Read(now, l, run, dst);
      if (!r.status.ok()) return {r.status, r.done};
      if (out != nullptr) out->append(mr.bytes);
      done = std::max(done, r.done);
      stats_.tier_read_misses += run;
      if (admit_misses) {
        misses.push_back(std::move(mr));
      } else {
        stats_.bypassed_sectors += run;
      }
      i += run;
    }
  }

  // Admission: populate the cache from the fetched bytes once they are
  // available (at `done`). Never force a destage on the read path — when
  // the free pool and clean victims run out, the miss just stays cold.
  // Data write first, journal (kOpMapClean) after: a cut in between
  // leaves the slot unmapped, which is merely a cold sector.
  if (!misses.empty()) {
    Status st;
    std::vector<MapDelta> deltas;
    bool full = false;
    for (const MissRun& mr : misses) {
      for (uint32_t k = 0; k < mr.nsec && !full; ++k) {
        if (free_slots_.empty()) {
          EnsureFreeSlots(done, kFreeReserveSlots, /*allow_destage=*/false,
                          &st);
          if (!st.ok() || free_slots_.empty()) {
            full = true;
            break;
          }
        }
        const uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        const Slice sector(
            mr.bytes.data() + static_cast<size_t>(k) * cfg_.flash.sector_size,
            cfg_.flash.sector_size);
        const Result wr = flash_->Write(done, SlotDataLpn(slot), sector);
        if (!wr.status.ok()) {
          free_slots_.push_back(slot);
          full = true;
          break;
        }
        const Lpn l = mr.lpn + k;
        deltas.push_back({kOpMapClean, slot, l});
        slots_[slot] = Slot{l, true, false, true};
        dir_[l] = slot;
        ++stats_.admitted_sectors;
      }
    }
    if (!deltas.empty()) AppendMapDeltas(done, deltas, &st);
  }
  return {Status::OK(), done};
}

BlockDevice::Result TieredDevice::DoFlush(SimTime now) {
  ++stats_.flushes;
  // Acked data is already durable on the flash tier (cache + journal are
  // capacitor-protected); FLUSH only drains the flash tier's own state.
  return flash_->Flush(now);
}

// ---------------------------------------------------------------------------
// Power events & recovery
// ---------------------------------------------------------------------------

void TieredDevice::PowerCut(SimTime t) {
  if (!CutPower(t)) return;
  flash_->PowerCut(t);
  capacity_->PowerCut(t);
}

void TieredDevice::ApplyDelta(const MapDelta& d) {
  if (d.slot >= slots_.size()) return;
  switch (d.op) {
    case kOpInvalidate: {
      Slot& sl = slots_[d.slot];
      if (sl.valid) {
        auto it = dir_.find(sl.cap_lpn);
        if (it != dir_.end() && it->second == d.slot) dir_.erase(it);
        sl = Slot{};
      }
      break;
    }
    case kOpMapDirty:
    case kOpMapClean: {
      Slot& sl = slots_[d.slot];
      if (sl.valid) {
        auto it = dir_.find(sl.cap_lpn);
        if (it != dir_.end() && it->second == d.slot) dir_.erase(it);
      }
      auto other = dir_.find(d.cap_lpn);
      if (other != dir_.end() && other->second != d.slot) {
        slots_[other->second] = Slot{};
        dir_.erase(other);
      }
      sl = Slot{d.cap_lpn, true, d.op == kOpMapDirty, false};
      dir_[d.cap_lpn] = d.slot;
      break;
    }
    case kOpMarkClean: {
      Slot& sl = slots_[d.slot];
      if (sl.valid && sl.cap_lpn == d.cap_lpn) sl.dirty = false;
      break;
    }
    default:
      break;
  }
}

SimTime TieredDevice::RecoverDirectory(SimTime t) {
  // Scan the whole ring: each page is read back and CRC validated.
  std::vector<std::pair<uint32_t, MapPage>> pages;
  SimTime done = t;
  std::string buf;
  for (uint32_t p = 0; p < map_pages_; ++p) {
    const Result r = flash_->Read(t, p, 1, &buf);
    if (!r.status.ok()) continue;
    done = std::max(done, r.done);
    MapPage mp;
    if (DecodePage(Slice(buf), &mp)) pages.emplace_back(p, std::move(mp));
  }

  // Newest complete checkpoint group (group id = seq of fragment 0, so
  // the largest complete group id is the newest checkpoint).
  std::map<uint64_t, std::map<uint32_t, const MapPage*>> groups;
  for (const auto& [pos, p] : pages) {
    if (p.is_checkpoint) groups[p.group][p.idx] = &p;
  }
  const std::map<uint32_t, const MapPage*>* best = nullptr;
  for (auto it = groups.rbegin(); it != groups.rend(); ++it) {
    const uint32_t of = it->second.begin()->second->of;
    if (it->second.size() == of) {
      bool complete = true;
      for (uint32_t i = 0; i < of; ++i) {
        if (it->second.find(i) == it->second.end()) {
          complete = false;
          break;
        }
      }
      if (complete) {
        best = &it->second;
        break;
      }
    }
  }

  dir_.clear();
  std::fill(slots_.begin(), slots_.end(), Slot{});
  uint64_t base_seq = 0;
  if (best != nullptr) {
    for (const auto& [idx, p] : *best) {
      for (const MapDelta& d : p->deltas) ApplyDelta(d);
      base_seq = std::max(base_seq, p->seq);
    }
  }
  // Delta pages newer than the checkpoint, ascending seq. The ring writer
  // never laps the live window and the flash rollback loses suffixes only,
  // so the surviving post-checkpoint deltas are gap-free.
  std::vector<const MapPage*> deltas;
  for (const auto& [pos, p] : pages) {
    if (!p.is_checkpoint && p.seq > base_seq) deltas.push_back(&p);
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const MapPage* a, const MapPage* b) { return a->seq < b->seq; });
  for (const MapPage* p : deltas) {
    for (const MapDelta& d : p->deltas) ApplyDelta(d);
  }

  // Reset the writer past the newest surviving page.
  uint64_t max_seq = best != nullptr ? base_seq : 0;
  uint32_t max_pos = map_pages_ - 1;  // Fresh device: open page starts at 0.
  for (const auto& [pos, p] : pages) {
    if (p.seq >= max_seq) {
      max_seq = p.seq;
      max_pos = pos;
    }
  }
  map_seq_ = max_seq + 1;
  map_ring_pos_ = (max_pos + 1) % map_pages_;
  open_deltas_.clear();
  closed_since_ckpt_ = deltas.size();

  dirty_count_ = 0;
  stats_.recovered_entries = 0;
  for (const Slot& sl : slots_) {
    if (!sl.valid) continue;
    ++stats_.recovered_entries;
    if (sl.dirty) ++dirty_count_;
  }
  RebuildFreeList();
  clock_hand_ = 0;
  destage_cursor_ = 0;
  return done;
}

SimTime TieredDevice::DropDirectory(SimTime t, Status* st) {
  // Cold-start conversion: dirty data must still reach the capacity tier
  // (correctness is not optional — only warmth is), then the directory is
  // dropped via a fresh empty checkpoint.
  while (dirty_count_ > 0 && st->ok()) {
    t = DestageRound(t, cfg_.destage_batch, st);
  }
  if (!st->ok()) return t;
  dir_.clear();
  std::fill(slots_.begin(), slots_.end(), Slot{});
  dirty_count_ = 0;
  RebuildFreeList();
  clock_hand_ = 0;
  SimTime done = t;
  WriteCheckpoint(t, &done, st);
  ++stats_.cold_resets;
  return done;
}

SimTime TieredDevice::PowerOn() {
  if (!RestorePower()) return 0;
  SimTime dur = std::max(flash_->PowerOn(), capacity_->PowerOn());
  SimTime t = RecoverDirectory(dur);
  if (!cfg_.warm_recovery) {
    Status st;
    t = DropDirectory(t, &st);
  }
  seq_last_end_ = kInvalidLpn;
  seq_run_ = 0;
  last_activity_ = t;
  last_recovery_duration_ = t;
  return t;
}

Status TieredDevice::Shutdown(SimTime now) {
  if (!powered()) return Status::DeviceOffline();
  Status st;
  SimTime t = now;
  while (dirty_count_ > 0 && st.ok()) {
    t = DestageRound(t, cfg_.destage_batch, &st);
  }
  if (!st.ok()) return st;
  const Result f = capacity_->Flush(t);
  if (!f.status.ok()) return f.status;
  t = std::max(t, f.done);
  const Status fs = flash_->Shutdown(t);
  if (!fs.ok()) return fs;
  capacity_->PowerCut(t);  // Cache flushed, nothing in flight: clean off.
  ShutOff();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<TieredDevice> MakeTieredDevice(TieredConfig cfg) {
  return std::make_unique<TieredDevice>(std::move(cfg));
}

}  // namespace durassd
