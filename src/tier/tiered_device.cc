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

  session_ = Session(static_cast<size_t>(slots));

  // Seed the ring with an empty checkpoint so recovery always finds a
  // complete base, even after a cut on a freshly-deployed device.
  Status st;
  SimTime done = 0;
  WriteCheckpoint(0, &done, &st);
  assert(st.ok());
}

void TieredDevice::Directory::DeriveFromSlots() {
  free_slots.clear();
  dirty_count = 0;
  for (size_t s = slots.size(); s-- > 0;) {
    if (!slots[s].valid) free_slots.push_back(static_cast<uint32_t>(s));
    if (slots[s].dirty) ++dirty_count;  // Only a valid slot is dirty.
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
  p.seq = session_.map_seq;
  p.deltas = session_.open_deltas;
  const Result r = flash_->Write(t, session_.map_ring_pos, EncodePage(p));
  if (!r.status.ok()) *st = r.status;
  return r.done;
}

void TieredDevice::CloseOpenPage(SimTime t, SimTime* done, Status* st) {
  session_.map_ring_pos = (session_.map_ring_pos + 1) % map_pages_;
  ++session_.map_seq;
  session_.open_deltas.clear();
  ++session_.closed_since_ckpt;
  if (session_.closed_since_ckpt >= ckpt_interval_) {
    WriteCheckpoint(std::max(t, *done), done, st);
  }
}

void TieredDevice::WriteCheckpoint(SimTime t, SimTime* done, Status* st) {
  const Directory& dir = session_.dir;
  std::vector<MapDelta> entries;
  entries.reserve(dir.map.size());
  for (uint32_t s = 0; s < dir.slots.size(); ++s) {
    const Slot& sl = dir.slots[s];
    if (!sl.valid) continue;
    entries.push_back({sl.dirty ? kOpMapDirty : kOpMapClean, s, sl.cap_lpn});
  }
  const uint32_t epp = EntriesPerPage();
  const uint32_t of = std::max<uint32_t>(
      1, static_cast<uint32_t>((entries.size() + epp - 1) / epp));
  const uint64_t group = session_.map_seq;
  SimTime when = t;
  for (uint32_t i = 0; i < of; ++i) {
    MapPage p;
    p.valid = true;
    p.is_checkpoint = true;
    p.seq = session_.map_seq++;
    p.group = group;
    p.idx = i;
    p.of = of;
    const size_t lo = static_cast<size_t>(i) * epp;
    const size_t hi = std::min(entries.size(), lo + epp);
    if (lo < hi) p.deltas.assign(entries.begin() + lo, entries.begin() + hi);
    const Result r = flash_->Write(when, session_.map_ring_pos, EncodePage(p));
    if (!r.status.ok()) {
      *st = r.status;
      return;
    }
    *done = std::max(*done, r.done);
    session_.map_ring_pos = (session_.map_ring_pos + 1) % map_pages_;
  }
  session_.open_deltas.clear();
  session_.closed_since_ckpt = 0;
  ++stats_.map_checkpoints;
}

SimTime TieredDevice::AppendMapDeltas(SimTime t,
                                      const std::vector<MapDelta>& deltas,
                                      Status* st) {
  if (deltas.empty()) return t;
  const size_t cap = EntriesPerPage();
  std::vector<MapDelta>& open = session_.open_deltas;
  SimTime done = t;
  size_t i = 0;
  while (i < deltas.size() && st->ok()) {
    const size_t remaining = deltas.size() - i;
    // A delta batch that fits one page must land in ONE page write — that
    // write is the command's atomic commit point. Oversized batches chunk
    // (and are atomic per chunk; host commands never get near the limit).
    if (open.size() >= cap ||
        (i == 0 && remaining <= cap && open.size() + remaining > cap)) {
      CloseOpenPage(t, &done, st);
      if (!st->ok()) break;
    }
    const size_t take = std::min(remaining, cap - open.size());
    open.insert(open.end(), deltas.begin() + i, deltas.begin() + i + take);
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
  Directory& dir = session_.dir;
  while (dir.free_slots.size() < want && st->ok()) {
    // Clock sweep (second chance) for a batch of clean victims. Each victim
    // is invalidated as it is picked: the sweep may lap the clock, and a
    // slot picked twice would be freed twice and handed to two LBAs.
    std::vector<MapDelta> deltas;
    const size_t nslots = dir.slots.size();
    for (size_t scanned = 0;
         deltas.size() < kEvictBatch && scanned < 2 * nslots; ++scanned) {
      const uint32_t s = dir.clock_hand;
      dir.clock_hand = (dir.clock_hand + 1) % static_cast<uint32_t>(nslots);
      Slot& sl = dir.slots[s];
      if (!sl.valid || sl.dirty) continue;
      if (sl.ref) {
        sl.ref = false;
        continue;
      }
      deltas.push_back({kOpInvalidate, s, sl.cap_lpn});
      dir.map.erase(sl.cap_lpn);
      sl = Slot{};
      dir.free_slots.push_back(s);
      ++stats_.evictions;
    }
    if (deltas.empty()) {
      // Everything is dirty (or invalid): only a destage round can mint
      // clean victims.
      if (!allow_destage || dir.dirty_count == 0) return;
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
  std::vector<uint32_t>& free_slots = session_.dir.free_slots;
  if (free_slots.empty()) {
    EnsureFreeSlots(t, kFreeReserveSlots, /*allow_destage=*/true, st);
  } else if (free_slots.size() < kFreeReserveSlots) {
    EnsureFreeSlots(t, kFreeReserveSlots, /*allow_destage=*/false, st);
  }
  if (!st->ok() || free_slots.empty()) return false;
  *slot = free_slots.back();
  free_slots.pop_back();
  return true;
}

SimTime TieredDevice::DestageRound(SimTime t, uint32_t max_victims,
                                   Status* st) {
  Directory& dir = session_.dir;
  if (dir.dirty_count == 0 || max_victims == 0) return t;
  // Victim selection: an LBA-order sweep from the cursor (elevator-style),
  // wrapping once. The map is sorted, so this is a cheap ordered walk.
  std::vector<std::pair<Lpn, uint32_t>> victims;
  auto it = dir.map.lower_bound(dir.destage_cursor);
  for (size_t examined = 0;
       victims.size() < max_victims && examined < dir.map.size(); ++examined) {
    if (it == dir.map.end()) it = dir.map.begin();
    if (dir.slots[it->second].dirty) {
      victims.emplace_back(it->first, it->second);
    }
    ++it;
  }
  if (victims.empty()) return t;
  dir.destage_cursor = victims.back().first + 1;
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
    dir.slots[slot].dirty = false;
    --dir.dirty_count;
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
  const SimTime last = session_.last_activity;
  if (session_.dir.dirty_count >= kDestageIdleMin && last > 0 && now > last &&
      now - last >= kDestageIdle) {
    Status st;
    DestageRound(last, cfg_.destage_batch, &st);
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
  if (r.status.ok()) {
    session_.last_activity = std::max(session_.last_activity, r.done);
  }
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
  Directory& dir = session_.dir;
  Status st;
  std::vector<uint32_t> placed;
  placed.reserve(nsec);
  SimTime data_done = now;
  for (uint32_t i = 0; i < nsec; ++i) {
    uint32_t slot = 0;
    if (!AcquireSlot(now, &slot, &st)) {
      for (const uint32_t s : placed) dir.free_slots.push_back(s);
      return {st.ok() ? Status::ResourceExhausted("no cache slot") : st, now};
    }
    const Slice sector(
        data.data() + static_cast<size_t>(i) * cfg_.flash.sector_size,
        cfg_.flash.sector_size);
    const Result dr = flash_->Write(now, SlotDataLpn(slot), sector);
    if (!dr.status.ok()) {
      dir.free_slots.push_back(slot);
      for (const uint32_t s : placed) dir.free_slots.push_back(s);
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
    auto it = dir.map.find(l);
    if (it != dir.map.end()) {
      const uint32_t old = it->second;
      deltas.push_back({kOpInvalidate, old, l});
      if (dir.slots[old].dirty) --dir.dirty_count;
      dir.slots[old] = Slot{};
      dir.free_slots.push_back(old);
      dir.map.erase(it);
    }
    deltas.push_back({kOpMapDirty, ns, l});
    dir.slots[ns] = Slot{l, true, true, true};
    dir.map[l] = ns;
    ++dir.dirty_count;
  }
  const SimTime jdone = AppendMapDeltas(now, deltas, &st);
  if (!st.ok()) return {st, jdone};
  const SimTime ack = std::max(data_done, jdone);

  // Batch-threshold trigger: drain a sorted group once enough is dirty.
  // The round extends member timelines (realistic interference for later
  // commands) but never this command's already-computed ack.
  if (dir.dirty_count >= cfg_.destage_batch) {
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
    uint64_t& run = session_.seq_run;
    run = (lpn == session_.seq_last_end) ? run + nsec : nsec;
    session_.seq_last_end = lpn + nsec;
    scan = run >= kSeqRunSectors;
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
  Directory& dir = session_.dir;
  std::vector<MissRun> misses;
  SimTime done = now;
  uint32_t i = 0;
  while (i < nsec) {
    const Lpn l = lpn + i;
    auto it = dir.map.find(l);
    if (it != dir.map.end()) {
      // Hit run: extend while the mapping stays slot-contiguous so one
      // flash command covers it.
      const uint32_t start_slot = it->second;
      dir.slots[start_slot].ref = true;
      uint32_t run = 1;
      while (i + run < nsec) {
        auto jt = dir.map.find(l + run);
        if (jt == dir.map.end() || jt->second != start_slot + run) break;
        dir.slots[jt->second].ref = true;
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
      while (i + run < nsec && dir.map.find(l + run) == dir.map.end()) ++run;
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
        if (dir.free_slots.empty()) {
          EnsureFreeSlots(done, kFreeReserveSlots, /*allow_destage=*/false,
                          &st);
          if (!st.ok() || dir.free_slots.empty()) {
            full = true;
            break;
          }
        }
        const uint32_t slot = dir.free_slots.back();
        dir.free_slots.pop_back();
        const Slice sector(
            mr.bytes.data() + static_cast<size_t>(k) * cfg_.flash.sector_size,
            cfg_.flash.sector_size);
        const Result wr = flash_->Write(done, SlotDataLpn(slot), sector);
        if (!wr.status.ok()) {
          dir.free_slots.push_back(slot);
          full = true;
          break;
        }
        const Lpn l = mr.lpn + k;
        deltas.push_back({kOpMapClean, slot, l});
        dir.slots[slot] = Slot{l, true, false, true};
        dir.map[l] = slot;
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
  Directory& dir = session_.dir;
  if (d.slot >= dir.slots.size()) return;
  switch (d.op) {
    case kOpInvalidate: {
      Slot& sl = dir.slots[d.slot];
      if (sl.valid) {
        auto it = dir.map.find(sl.cap_lpn);
        if (it != dir.map.end() && it->second == d.slot) dir.map.erase(it);
        sl = Slot{};
      }
      break;
    }
    case kOpMapDirty:
    case kOpMapClean: {
      Slot& sl = dir.slots[d.slot];
      if (sl.valid) {
        auto it = dir.map.find(sl.cap_lpn);
        if (it != dir.map.end() && it->second == d.slot) dir.map.erase(it);
      }
      auto other = dir.map.find(d.cap_lpn);
      if (other != dir.map.end() && other->second != d.slot) {
        dir.slots[other->second] = Slot{};
        dir.map.erase(other);
      }
      sl = Slot{d.cap_lpn, true, d.op == kOpMapDirty, false};
      dir.map[d.cap_lpn] = d.slot;
      break;
    }
    case kOpMarkClean: {
      Slot& sl = dir.slots[d.slot];
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

  // PowerOn handed this scan a fresh session: the journal alone fills it.
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

  // Place the writer past the newest surviving page.
  uint64_t max_seq = best != nullptr ? base_seq : 0;
  uint32_t max_pos = map_pages_ - 1;  // Fresh device: open page starts at 0.
  for (const auto& [pos, p] : pages) {
    if (p.seq >= max_seq) {
      max_seq = p.seq;
      max_pos = pos;
    }
  }
  session_.map_seq = max_seq + 1;
  session_.map_ring_pos = (max_pos + 1) % map_pages_;
  session_.closed_since_ckpt = deltas.size();

  Directory& dir = session_.dir;
  dir.DeriveFromSlots();
  stats_.recovered_entries = dir.slots.size() - dir.free_slots.size();
  return done;
}

SimTime TieredDevice::DropDirectory(SimTime t, Status* st) {
  // Cold-start conversion: dirty data must still reach the capacity tier
  // (correctness is not optional — only warmth is), then the directory is
  // dropped via a fresh empty checkpoint.
  while (session_.dir.dirty_count > 0 && st->ok()) {
    t = DestageRound(t, cfg_.destage_batch, st);
  }
  if (!st->ok()) return t;
  // Only the directory goes: the checkpoint lands at the writer's cursor.
  session_.dir = Directory(session_.dir.slots.size());
  SimTime done = t;
  WriteCheckpoint(t, &done, st);
  ++stats_.cold_resets;
  return done;
}

SimTime TieredDevice::PowerOn() {
  if (!RestorePower()) return 0;
  SimTime dur = std::max(flash_->PowerOn(), capacity_->PowerOn());
  session_ = Session(session_.dir.slots.size());
  SimTime t = RecoverDirectory(dur);
  if (!cfg_.warm_recovery) {
    Status st;
    t = DropDirectory(t, &st);
  }
  last_recovery_duration_ = t;
  return t;
}

Status TieredDevice::Shutdown(SimTime now) {
  if (!powered()) return Status::OK();
  Status st;
  SimTime t = now;
  while (session_.dir.dirty_count > 0 && st.ok()) {
    t = DestageRound(t, cfg_.destage_batch, &st);
  }
  if (!st.ok()) return st;
  const Result f = capacity_->Flush(t);
  if (!f.status.ok()) return f.status;
  t = std::max(t, f.done);
  const Status fs = flash_->Shutdown(t);
  if (!fs.ok()) return fs;
  capacity_->PowerCut(t);  // Cache flushed, nothing in flight: clean off.
  ShutOff(t);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<TieredDevice> MakeTieredDevice(TieredConfig cfg) {
  return std::make_unique<TieredDevice>(std::move(cfg));
}

}  // namespace durassd
