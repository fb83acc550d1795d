#include "ssd/ssd_device.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"

namespace durassd {

namespace {
constexpr uint32_t kDumpMagic = 0xD0D0CAFE;
constexpr uint32_t kDumpEntryMagic = 0xD0D0BEEF;
constexpr SimTime kFlushEmptyOverhead = 100 * kMicrosecond;
constexpr SimTime kCleanBootTime = 1 * kMillisecond;
constexpr SimTime kVolatileRecoveryScan = 50 * kMillisecond;

// Calibration every preset shares (the presets vary the write-side costs).
/// NCQ depth (SATA: 31/32 outstanding commands).
constexpr uint32_t kNcqDepth = 32;
/// SATA 3.0-class read transfer rate: ~550 MB/s effective.
constexpr double kBusReadBytesPerNs = 0.55;
/// Firmware cost of a command: its base plus this much per extra sector.
constexpr SimTime kFwWritePerExtraSector = 50 * kMicrosecond;
constexpr SimTime kFwReadBase = 4 * kMicrosecond;
constexpr SimTime kFwReadPerExtraSector = 2 * kMicrosecond;
/// Mapping entries that fit one NAND journal page when persisting.
constexpr size_t kMappingEntriesPerPage = 1024;
/// The firmware checkpoints its mapping journal on its own once this many
/// entries are dirty, like real controllers do; only writes after the last
/// internal checkpoint are at risk on a volatile device.
constexpr size_t kMappingAutopersistThreshold = 65536;
/// Pending sectors are destaged when the next host command arrives this
/// long after the last one joined (the device exploits its own idle time).
constexpr SimTime kDestageIdle = 1 * kMillisecond;

/// Log segment header (one NAND page): magic u32 | seq u64 | count u32 |
/// count x (payload crc32c u32, lpn u64) | header crc32c u32.
constexpr uint32_t kLogSegmentMagic = 0xD0D01065;
constexpr size_t kSegmentPrefixBytes = 4 + 8 + 4;
constexpr size_t kSegmentEntryBytes = 4 + 8;

/// Blocks per plane reserved as the log region: max(2, blocks_per_plane /
/// 8) when the device runs log-structured destage (which needs an enabled
/// durable cache), else none. Never eats into the dump area or the last
/// few main-area blocks.
uint32_t LogBlocksPerPlane(const SsdConfig& cfg) {
  if (cfg.destage_mode != SsdConfig::DestageMode::kLogStructured ||
      !cfg.cache_enabled || !cfg.durable_cache) {
    return 0;
  }
  const uint32_t blocks = cfg.geometry.blocks_per_plane;
  const uint32_t ceiling = blocks > cfg.dump_blocks_per_plane + 4
                               ? blocks - cfg.dump_blocks_per_plane - 4
                               : 0;
  return std::min(std::max(2u, blocks / 8), ceiling);
}

/// Data pages per log segment (the header page is extra): one page per
/// plane minus the header, clamped so the header's entries fit one page.
uint32_t LogSegmentPages(const SsdConfig& cfg) {
  const FlashGeometry& g = cfg.geometry;
  const uint32_t sectors_per_page = g.page_size / cfg.sector_size;
  const uint32_t max_sectors = static_cast<uint32_t>(
      (g.page_size - kSegmentPrefixBytes - 4) / kSegmentEntryBytes);
  return std::min(std::max(1u, g.total_planes() - 1),
                  std::max(1u, max_sectors / sectors_per_page));
}
}  // namespace

SsdConfig SsdDevice::SizeDumpArea(SsdConfig cfg) {
  if (!cfg.cache_enabled || !cfg.durable_cache) {
    return cfg;  // Nothing is ever dumped.
  }
  // Lazy destage widens the dump-eligible window: in the worst case every
  // write-buffer frame holds an acknowledged-but-unissued sector, and each
  // needs its own dump page (plus the header). Grow the reserved area to
  // cover that.
  const FlashGeometry& g = cfg.geometry;
  const uint64_t pages_per_dump_block =
      static_cast<uint64_t>(g.pages_per_block) * g.total_planes();
  const uint64_t needed_pages = static_cast<uint64_t>(cfg.write_buffer_sectors) + 2;
  const uint32_t needed_blocks = static_cast<uint32_t>(
      (needed_pages + pages_per_dump_block - 1) / pages_per_dump_block);
  cfg.dump_blocks_per_plane =
      std::max(cfg.dump_blocks_per_plane, needed_blocks);
  return cfg;
}

SsdDevice::SsdDevice(SsdConfig config)
    : cfg_(SizeDumpArea(std::move(config))),
      flash_(FlashArray::Options{cfg_.geometry, cfg_.faults,
                                 cfg_.sector_size}),
      ftl_(&flash_,
           Ftl::Options{.over_provision = cfg_.over_provision,
                        .dump_blocks_per_plane = cfg_.dump_blocks_per_plane,
                        .ecc_correctable_bits = cfg_.ecc_correctable_bits,
                        .metrics = &metrics_,
                        .log_blocks_per_plane = LogBlocksPerPlane(cfg_)}),
      bus_(1),
      fw_(cfg_.fw_parallelism),
      ncq_(kNcqDepth),
      scheduler_(this,
                 DestageScheduler::Options{
                     cfg_.geometry.page_size / cfg_.sector_size,
                     cfg_.destage_batch_pages,
                     cfg_.geometry.planes_per_chip >= 2}),
      h_ncq_wait_ns_(metrics_.GetHistogram("ssd.ncq_wait_ns")),
      h_bus_ns_(metrics_.GetHistogram("ssd.bus_ns")),
      h_fw_ns_(metrics_.GetHistogram("ssd.fw_ns")),
      h_frame_stall_ns_(metrics_.GetHistogram("ssd.frame_stall_ns")),
      h_destage_ns_(metrics_.GetHistogram("ssd.destage_ns")),
      h_flush_drain_ns_(metrics_.GetHistogram("ssd.flush_drain_ns")),
      h_epoch_size_(metrics_.GetHistogram("ssd.epoch_size")),
      h_qd_(metrics_.GetHistogram("ssd.qd")) {
  set_qd_histogram(h_qd_);
  log_segment_pages_ = LogSegmentPages(cfg_);
}

BlockDevice::Result SsdDevice::Execute(SimTime t, const Command& cmd) {
  switch (cmd.op) {
    case Command::Op::kWrite:
      return DoWrite(t, cmd.lpn, cmd.data);
    case Command::Op::kRead:
      return DoRead(t, cmd.lpn, cmd.nsec, cmd.out);
    case Command::Op::kFlush:
      return DoFlush(t);
    case Command::Op::kBarrier:
      return DoBarrier(t);
  }
  return {Status::InvalidArgument("unknown command op"), t};
}

void SsdDevice::RollbackCommandEntries(Lpn lpn, uint32_t nsec, SimTime ack) {
  for (uint32_t i = 0; i < nsec; ++i) {
    auto it = cache_.find(lpn + i);
    if (it == cache_.end() || it->second.ack != ack) continue;
    CacheEntry& e = it->second;
    if (e.program_done != kNeverProgrammed) continue;  // Already destaged.
    if (e.has_prev) {
      RestorePrev(e);
      // The restored version must reach NAND (again): re-queue it. If the
      // failed overwrite had been absorbed, the pending slot simply keeps
      // pointing at the now-restored bytes.
      scheduler_.Add(lpn + i, e.ack);
    } else {
      scheduler_.Remove(lpn + i);
      EraseCacheEntry(it);
    }
  }
}

SimTime SsdDevice::BusTime(uint32_t nsec, bool is_write) const {
  const double rate =
      is_write ? cfg_.bus_write_bytes_per_ns : kBusReadBytesPerNs;
  const double bytes = static_cast<double>(nsec) * cfg_.sector_size;
  return static_cast<SimTime>(bytes / rate) + cfg_.bus_cmd_overhead;
}

SimTime SsdDevice::FwTime(uint32_t nsec, bool is_write) const {
  if (is_write) {
    return cfg_.fw_write_base + kFwWritePerExtraSector * (nsec - 1);
  }
  return kFwReadBase + kFwReadPerExtraSector * (nsec - 1);
}

void SsdDevice::PopCompletedPrograms(SimTime t) {
  while (!outstanding_.empty() && outstanding_.top() <= t) {
    outstanding_.pop();
  }
}

Status SsdDevice::DrainBatch(SimTime t, DrainTrigger trigger,
                             size_t max_pages, bool include_partial) {
  stats_.destage_batches++;
  if (tracer_) {
    tracer_->Record(t, TraceEventType::kDestageBatch,
                    scheduler_.pending_sectors(),
                    static_cast<uint64_t>(trigger));
  }
  if (UseLogDestage()) return DrainLogSegments(t, include_partial);
  return include_partial ? scheduler_.DrainAll(t)
                         : scheduler_.DrainRound(t, max_pages);
}

SimTime SsdDevice::AcquireFrame(SimTime t) {
  PopCompletedPrograms(t);
  // Frames are held by in-flight programs and by pending scheduler sectors
  // (absorbed rewrites re-use their frame and never reach here).
  if (outstanding_.size() + scheduler_.pending_sectors() >=
      cfg_.write_buffer_sectors) {
    // Frame pressure. Draining moves sectors from pending to outstanding —
    // the sum (and thus the pressure) is unchanged until a program_done
    // passes — so drain only while the media has a free slot: once one
    // page per plane is in flight the media is saturated and further
    // programs would only queue at the planes while forfeiting their
    // chance to absorb a rewrite. Only full pages (or log segments) drain —
    // a partial tail stays pending to pair with future writes. A drain
    // failure leaves sectors pending; the degraded checks on the command
    // path surface it.
    if (FullBatchPending() && MediaHasFreeSlot()) {
      (void)DrainBatch(t, DrainTrigger::kPressure,
                       cfg_.geometry.total_planes(),
                       /*include_partial=*/false);
      PopCompletedPrograms(t);
    }
    if (outstanding_.empty() && !scheduler_.empty()) {
      // Nothing in flight to wait on and the buffer is all pending partial
      // pages (tiny buffers) or a short log tail: force them out — a short
      // program beats a stall.
      (void)DrainBatch(t, DrainTrigger::kPressure, 0,
                       /*include_partial=*/true);
      PopCompletedPrograms(t);
    }
    if (!outstanding_.empty()) {
      const SimTime freed = outstanding_.top();
      outstanding_.pop();
      stats_.write_stalls++;
      stats_.write_stall_time += freed - t;
      h_frame_stall_ns_->Record(freed - t);
      return freed;
    }
  }
  return t;
}

void SsdDevice::RestorePrev(CacheEntry& e) {
  flash_.store().Release(e.frame);
  e.frame = e.prev_frame;
  e.prev_frame = SectorStore::kZeroFrame;
  e.ack = e.prev_ack;
  e.seq = e.prev_seq;
  e.epoch = e.prev_epoch;
  e.has_prev = false;
  e.program_issue = kNeverProgrammed;
  e.program_done = kNeverProgrammed;  // Needs (re)programming.
}

std::unordered_map<Lpn, SsdDevice::CacheEntry>::iterator
SsdDevice::EraseCacheEntry(std::unordered_map<Lpn, CacheEntry>::iterator it) {
  flash_.store().Release(it->second.frame);
  flash_.store().Release(it->second.prev_frame);
  return cache_.erase(it);
}

void SsdDevice::ClearCache() {
  for (const auto& [lpn, e] : cache_) {
    flash_.store().Release(e.frame);
    flash_.store().Release(e.prev_frame);
  }
  cache_.clear();
  cache_fifo_.clear();
}

void SsdDevice::InsertCacheEntry(Lpn lpn, Slice sector, SimTime ack,
                                 uint64_t seq, uint64_t epoch) {
  const auto [it, inserted] = cache_.try_emplace(lpn);
  CacheEntry& e = it->second;
  if (!inserted) {
    // Coalesce: keep the displaced acknowledged version for the incomplete-
    // overwrite rollback corner (Sec. 3.2's "old copies are discarded",
    // with one-deep history for atomicity of the in-flight command).
    e.has_prev = true;
    flash_.store().Release(e.prev_frame);
    e.prev_frame = e.frame;
    e.prev_ack = e.ack;
    e.prev_seq = e.seq;
    e.prev_epoch = e.epoch;
  }
  assert(!cfg_.store_data || sector.size() == cfg_.sector_size);
  e.frame = cfg_.store_data ? flash_.store().Put(sector)
                            : SectorStore::kZeroFrame;
  e.ack = ack;
  e.seq = seq;
  e.epoch = epoch;
  e.program_issue = kNeverProgrammed;
  e.program_done = kNeverProgrammed;
  // A resident entry keeps its FIFO slot: pushing again would bloat the
  // FIFO with one stale duplicate per hot-sector rewrite.
  if (inserted) cache_fifo_.push_back(lpn);
  EvictCleanIfNeeded();
}

void SsdDevice::EvictCleanIfNeeded() {
  while (cache_.size() > cfg_.cache_capacity_sectors &&
         !cache_fifo_.empty()) {
    const Lpn victim = cache_fifo_.front();
    cache_fifo_.pop_front();
    auto it = cache_.find(victim);
    if (it == cache_.end()) continue;                 // Stale FIFO entry.
    if (it->second.program_done == kNeverProgrammed ||
        it->second.program_done > max_time_seen_) {
      // Still dirty in flight; re-queue and stop (frames bound this).
      cache_fifo_.push_back(victim);
      break;
    }
    EraseCacheEntry(it);
  }
}

void SsdDevice::FinishDestage(const std::vector<Lpn>& group, SimTime issue,
                              SimTime done) {
  for (Lpn lpn : group) {
    CacheEntry& e = cache_[lpn];
    e.program_issue = issue;
    e.program_done = done;
    outstanding_.push(done);
  }
  h_destage_ns_->Record(done - issue);
  if (tracer_) {
    tracer_->Record(done, TraceEventType::kDestageDone, group[0], group.size());
  }
}

void SsdDevice::CachedSectors(const std::vector<Lpn>& group,
                              std::vector<Ftl::SectorWrite>* out) const {
  out->clear();
  for (Lpn lpn : group) {
    auto it = cache_.find(lpn);
    assert(it != cache_.end());
    out->push_back({lpn, it->second.frame});
  }
}

SimTime SsdDevice::ClampToAcks(SimTime t, const std::vector<Lpn>& group) const {
  // A sector's NAND program may never be issued before its command was
  // acknowledged: the crash semantics lean on issue >= ack (a kept mapping
  // after the capacitor quiesce implies the command was acked before the
  // cut, so a partially issued command can never read back torn).
  for (Lpn lpn : group) {
    auto it = cache_.find(lpn);
    if (it != cache_.end()) t = std::max(t, it->second.ack);
  }
  return t;
}

Status SsdDevice::DestagePage(SimTime t, const std::vector<Lpn>& group) {
  t = ClampToAcks(t, group);
  SimTime start = 0;
  SimTime done = 0;
  CachedSectors(group, &writes_a_);
  DURASSD_RETURN_IF_ERROR(ftl_.ProgramSectors(t, writes_a_, &start, &done));
  FinishDestage(group, t, done);
  return Status::OK();
}

Status SsdDevice::DestagePagePair(SimTime t, const std::vector<Lpn>& a,
                                  const std::vector<Lpn>& b) {
  t = std::max(ClampToAcks(t, a), ClampToAcks(t, b));
  SimTime start = 0;
  SimTime done = 0;
  CachedSectors(a, &writes_a_);
  CachedSectors(b, &writes_b_);
  DURASSD_RETURN_IF_ERROR(
      ftl_.ProgramSectorsMultiPlane(t, writes_a_, writes_b_, &start, &done));
  pair_group_.assign(a.begin(), a.end());
  pair_group_.insert(pair_group_.end(), b.begin(), b.end());
  FinishDestage(pair_group_, t, done);
  return Status::OK();
}

void SsdDevice::MaybeIdleDrain(SimTime now) {
  if (scheduler_.empty()) return;
  const SimTime deadline = scheduler_.last_add_time() + kDestageIdle;
  if (now < deadline) return;
  // Log mode keeps sub-segment tails coalescing in the durable cache: they
  // are already ack-durable via the capacitor, and draining a short segment
  // wastes a header page and fragments the log region. In-place destage
  // drains everything, partial page included.
  if (UseLogDestage() && !FullBatchPending()) return;
  // The device used its own idle time: the drain is issued at the idle
  // deadline, which is causally safe (every pending byte was cached by
  // then) and models destage having happened before this command arrived.
  (void)DrainBatch(deadline, DrainTrigger::kIdle, 0,
                   /*include_partial=*/!UseLogDestage());
}

BlockDevice::Result SsdDevice::DoWrite(SimTime now, Lpn lpn, Slice data) {
  if (ftl_.degraded()) {
    // Sticky read-only mode: refuse before touching the cache so nothing
    // from this command can be dumped or replayed later.
    stats_.degraded_write_rejects++;
    return {Status::ResourceExhausted("device is read-only: " +
                                      ftl_.degraded_reason()),
            now};
  }
  const uint32_t nsec = static_cast<uint32_t>(data.size() / cfg_.sector_size);
  max_time_seen_ = std::max(max_time_seen_, now);
  MaybeIdleDrain(now);
  if (tracer_) tracer_->Record(now, TraceEventType::kCmdStart, lpn, nsec);

  const SimTime est = BusTime(nsec, true) + FwTime(nsec, true);
  const ResourceTimeline::Grant slot = ncq_.Acquire(now, est);
  const ResourceTimeline::Grant bus =
      bus_.Acquire(slot.start, BusTime(nsec, true));
  const ResourceTimeline::Grant fw = fw_.Acquire(bus.done, FwTime(nsec, true));
  h_ncq_wait_ns_->Record(slot.start - now);
  h_bus_ns_->Record(bus.done - bus.start);
  h_fw_ns_->Record(fw.done - fw.start);

  if (!cfg_.cache_enabled) {
    // Write-through: program synchronously and persist the mapping entry
    // before acknowledging — the path on which a power cut exposes a torn
    // page to the host.
    SimTime last_done = fw.done;
    std::vector<Ftl::SectorWrite> group;
    for (uint32_t i = 0; i < nsec; ++i) {
      const size_t off = static_cast<size_t>(i) * cfg_.sector_size;
      group.push_back({lpn + i, flash_.store().Put(
                                    Slice(data.data() + off, PayloadLen()))});
      if (group.size() == ftl_.sectors_per_page() || i + 1 == nsec) {
        SimTime start = 0;
        SimTime done = 0;
        Status s = ftl_.ProgramSectors(fw.done, group, &start, &done);
        for (const Ftl::SectorWrite& w : group) {
          flash_.store().Release(w.frame);
        }
        if (!s.ok()) return {s, now};
        last_done = std::max(last_done, done);
        group.clear();
      }
    }
    const SimTime ack =
        last_done + MappingPersistCost(ftl_.dirty_mapping_entries());
    if (CutBeforeCompletion(ack)) return {Status::DeviceOffline(), now};
    ftl_.PersistMapping();
    max_time_seen_ = std::max(max_time_seen_, ack);
    // Counted here, not at entry: a failed program above must not inflate
    // host_written_sectors (it would understate WriteAmplification()).
    stats_.host_writes++;
    stats_.host_written_sectors += nsec;
    if (tracer_) tracer_->Record(ack, TraceEventType::kCmdAck, lpn, nsec);
    return {Status::OK(), ack};
  }

  // Cached path: acknowledge once all sectors are in the durable (or
  // volatile) cache. The sectors then join the destage scheduler, and NAND
  // programs happen in batches across all planes.
  SimTime t = fw.done;
  // Overwrite absorption: a sector whose destage is still unissued keeps
  // its frame — only genuinely new dirty sectors acquire one.
  for (uint32_t i = 0; i < nsec; ++i) {
    if (!scheduler_.IsPending(lpn + i)) t = AcquireFrame(t);
  }
  SimTime ack = t;
  if (ordered_writes() && ack < last_ordered_ack_) {
    // Ordered NCQ (Sec. 3.3): the firmware acknowledges writes in
    // submission order, so a small write overtaking a large one in the
    // pipeline still acks after it. Destage inherits the clamped time,
    // which is what makes a power cut lose only a suffix of the stream.
    ack = last_ordered_ack_;
    stats_.ordered_ack_clamps++;
  }
  if (cur_epoch_ > 0 && ack < epoch_floor_ack_) {
    // Barrier epochs: no write of epoch N+1 may acknowledge before every
    // write of epoch N. Because durable-cache survival at a power cut is
    // exactly ack <= cut, and ClampToAcks keeps program issue >= ack,
    // this single clamp yields both guarantees the barrier contract
    // needs: epoch-prefix recovery, and no epoch-N+1 program before
    // epoch N is durably framed.
    ack = epoch_floor_ack_;
    stats_.epoch_ack_clamps++;
  }
  const uint64_t seq = ++write_seq_;

  for (uint32_t i = 0; i < nsec; ++i) {
    InsertCacheEntry(lpn + i,
                     Slice(data.data() + static_cast<size_t>(i) * cfg_.sector_size,
                           cfg_.sector_size),
                     ack, seq, cur_epoch_);
  }
  for (uint32_t i = 0; i < nsec; ++i) {
    if (!scheduler_.Add(lpn + i, ack)) {
      // Rewrite of a sector whose destage had not been issued: the batch
      // was updated in place, saving one NAND program.
      stats_.destage_absorbed++;
    }
  }

  Status drained = Status::OK();
  if (UseLogDestage()) {
    // Log-structured destage has exactly one trigger here: a full
    // segment's worth of pending sectors. No idle-media opportunism —
    // issuing sub-segment batches would fragment the log and forfeit
    // the sequential-program win the mode exists for.
    if (FullBatchPending()) {
      drained = DrainBatch(ack, DrainTrigger::kBatch, 0,
                           /*include_partial=*/false);
    }
  } else {
    const bool batch_ready =
        scheduler_.pending_full_pages() >= cfg_.destage_batch_pages;
    // Idle-media opportunism: while fewer than one page per plane is in
    // flight the media has spare slots, so lazily holding sectors back
    // only lengthens frame residency — drain a round now. Once the media
    // saturates (outstanding covers every plane) this stops firing and
    // pending sectors accumulate to absorb rewrites instead.
    PopCompletedPrograms(ack);
    const bool media_idle =
        MediaHasFreeSlot() && scheduler_.pending_full_pages() > 0;
    if (batch_ready || media_idle) {
      drained = DrainBatch(
          ack, batch_ready ? DrainTrigger::kBatch : DrainTrigger::kIdle,
          batch_ready ? cfg_.destage_batch_pages
                      : cfg_.geometry.total_planes(),
          /*include_partial=*/false);
    }
  }
  if (!drained.ok()) {
    // The command is rejected as a whole: un-insert its cache entries so a
    // later power cut cannot dump (and replay) data the host was told
    // failed.
    RollbackCommandEntries(lpn, nsec, ack);
    return {drained, now};
  }

  // Firmware-internal mapping checkpoint (invisible to the host).
  if (ftl_.dirty_mapping_entries() > kMappingAutopersistThreshold) {
    ftl_.PersistMapping();
  }

  if (CutBeforeCompletion(ack)) return {Status::DeviceOffline(), now};
  if (ordered_writes()) last_ordered_ack_ = ack;
  // Epoch bookkeeping is unconditional (pure state, no timing effect) so
  // the first BARRIER correctly seals everything written since boot.
  epoch_max_ack_ = std::max(epoch_max_ack_, ack);
  epoch_writes_++;
  max_time_seen_ = std::max(max_time_seen_, ack);
  stats_.host_writes++;
  stats_.host_written_sectors += nsec;
  if (tracer_) tracer_->Record(ack, TraceEventType::kCmdAck, lpn, nsec);
  return {Status::OK(), ack};
}

BlockDevice::Result SsdDevice::DoRead(SimTime now, Lpn lpn, uint32_t nsec,
                                      std::string* out) {
  max_time_seen_ = std::max(max_time_seen_, now);
  MaybeIdleDrain(now);
  stats_.host_reads++;
  stats_.host_read_sectors += nsec;
  if (tracer_) tracer_->Record(now, TraceEventType::kReadStart, lpn, nsec);

  // FLUSH CACHE is a non-queued command: reads arriving while one is being
  // processed wait for it (writes still land in the cache). This is the
  // read-latency-variability mechanism of Sec. 1/2 — a read blocked behind
  // a flush costs milliseconds instead of tens of microseconds.
  for (auto it = flush_windows_.rbegin(); it != flush_windows_.rend(); ++it) {
    if (now >= it->first && now < it->second) {
      now = it->second;
      stats_.reads_stalled_by_flush++;
      break;
    }
    if (now >= it->second) break;  // Windows are ordered; no older match.
  }

  const SimTime est = FwTime(nsec, false) + BusTime(nsec, false);
  const ResourceTimeline::Grant slot = ncq_.Acquire(now, est);
  const ResourceTimeline::Grant fw =
      fw_.Acquire(slot.start, FwTime(nsec, false));
  h_ncq_wait_ns_->Record(slot.start - now);
  h_fw_ns_->Record(fw.done - fw.start);

  if (out != nullptr) {
    out->clear();
    out->reserve(static_cast<size_t>(nsec) * cfg_.sector_size);
  }
  SimTime media_done = fw.done;
  Status read_status = Status::OK();
  uint32_t hit_sectors = 0;
  for (uint32_t i = 0; i < nsec; ++i) {
    const Lpn cur = lpn + i;
    auto it = cache_.find(cur);
    // Every resident entry serves the read. On a timing-only device its
    // frame is the zero frame, so the sector reads as the zeros the FTL
    // returns for a slot without data.
    if (it != cache_.end()) {
      stats_.cache_read_hits++;
      hit_sectors++;
      if (out != nullptr) flash_.store().AppendSector(it->second.frame, out);
      continue;
    }
    stats_.cache_read_misses++;
    SimTime done = fw.done;
    const Status rs = ftl_.ReadSector(fw.done, cur, out, &done);
    media_done = std::max(media_done, done);
    if (!rs.ok() && read_status.ok()) read_status = rs;
  }
  if (hit_sectors == nsec) {
    stats_.cache_full_hits++;
  } else if (hit_sectors > 0) {
    stats_.cache_partial_hits++;
  }

  const ResourceTimeline::Grant bus =
      bus_.Acquire(media_done, BusTime(nsec, false));
  h_bus_ns_->Record(bus.done - bus.start);
  if (CutBeforeCompletion(bus.done)) return {Status::DeviceOffline(), now};
  max_time_seen_ = std::max(max_time_seen_, bus.done);
  if (tracer_) tracer_->Record(bus.done, TraceEventType::kReadDone, lpn, nsec);
  // An uncorrectable sector is still transferred (with its damage) so the
  // host's checksums can diagnose it, but the command reports the error.
  return {read_status, bus.done};
}

SimTime SsdDevice::MappingPersistCost(size_t entries) const {
  if (entries == 0) return 0;
  const size_t pages =
      (entries + kMappingEntriesPerPage - 1) / kMappingEntriesPerPage;
  return static_cast<SimTime>(pages) * cfg_.geometry.program_latency;
}

BlockDevice::Result SsdDevice::DoFlush(SimTime now) {
  max_time_seen_ = std::max(max_time_seen_, now);
  stats_.flushes++;

  if (!cfg_.cache_enabled) {
    // Write-through device: nothing cached, mapping persisted per write.
    return {Status::OK(), now + cfg_.bus_cmd_overhead + kFlushEmptyOverhead};
  }

  if (cfg_.durable_cache &&
      cfg_.flush_mode == SsdConfig::FlushMode::kOrderedNoDrain) {
    // Sec. 3.3's alternative semantics: every acknowledged write is already
    // durable, so the flush only asserts ordering. All commands that
    // arrived before it are acknowledged by construction (synchronous
    // acks), so the command completes at queue-processing cost.
    return {Status::OK(), now + cfg_.bus_cmd_overhead + 25 * kMicrosecond};
  }

  // Log-structured destage skips the FLUSH drain on purpose: the mode
  // requires the durable cache, so every acknowledged pending sector is
  // already covered by the capacitor dump, and forcing a partial segment
  // out here would fragment the log for zero durability gain.
  if (!UseLogDestage() && !scheduler_.empty()) {
    // FLUSH CACHE drains the write cache: everything pending is issued
    // before the drain wait below, partial page included.
    Status s = DrainBatch(now, DrainTrigger::kFlush, 0,
                          /*include_partial=*/true);
    if (!s.ok()) return {s, now};
  }

  // FLUSH CACHE commands are serialized by the firmware: a flush arriving
  // while another is in progress queues behind it. A flush arriving before
  // an already-queued flush has *started* piggybacks on it — every write
  // acknowledged before that start time is covered by it. This is where
  // group commit materializes at the device level.
  if (last_flush_start_ >= now) return {Status::OK(), last_flush_done_};
  const SimTime start = std::max(now, last_flush_done_);

  SimTime drain = start;
  const bool had_work =
      !outstanding_.empty() || ftl_.dirty_mapping_entries() > 0;
  const uint64_t outstanding_destages = outstanding_.size();
  if (tracer_) {
    tracer_->Record(start, TraceEventType::kFlushStart, outstanding_destages,
                    ftl_.dirty_mapping_entries());
  }
  while (!outstanding_.empty()) {
    drain = std::max(drain, outstanding_.top());
    outstanding_.pop();
  }
  h_flush_drain_ns_->Record(drain - start);
  const SimTime persist = MappingPersistCost(ftl_.dirty_mapping_entries());
  ftl_.PersistMapping();

  const SimTime done =
      drain + persist +
      (had_work ? cfg_.flush_fixed_overhead : kFlushEmptyOverhead);
  if (tracer_) {
    tracer_->Record(done, TraceEventType::kFlushDone,
                    static_cast<uint64_t>(done - start), outstanding_destages);
  }
  last_flush_start_ = start;
  last_flush_done_ = done;
  flush_windows_.emplace_back(start, done);
  if (flush_windows_.size() > 64) flush_windows_.pop_front();
  // Submit's causality guard runs after this window bookkeeping, so a cut
  // armed inside this flush sees the flush in progress (torn-write
  // exposure on volatile devices).
  max_time_seen_ = std::max(max_time_seen_, done);
  return {Status::OK(), done};
}

BlockDevice::Result SsdDevice::DoBarrier(SimTime now) {
  max_time_seen_ = std::max(max_time_seen_, now);

  // A BARRIER is an ordering token, not I/O: the firmware snapshots the ack
  // floor of everything received so far and tags later writes with the next
  // epoch. It does not drain, does not touch NAND, and deliberately does
  // not acquire the bus/fw/NCQ pipelines — command processing cost only.
  // (Synchronous acks mean every prior write of this epoch is already
  // acknowledged — i.e. durably framed in the capacitor-backed cache — so
  // sealing is pure bookkeeping.)
  const SimTime done = now + cfg_.bus_cmd_overhead + 2 * kMicrosecond;
  if (CutBeforeCompletion(done)) return {Status::DeviceOffline(), now};

  epoch_floor_ack_ = std::max(epoch_floor_ack_, epoch_max_ack_);
  stats_.barriers++;
  h_epoch_size_->Record(static_cast<int64_t>(epoch_writes_));
  if (tracer_) {
    tracer_->Record(done, TraceEventType::kBarrier, cur_epoch_, epoch_writes_);
  }
  cur_epoch_++;
  epoch_writes_ = 0;
  max_time_seen_ = std::max(max_time_seen_, done);
  return {Status::OK(), done};
}

void SsdDevice::DumpOnCapacitor(SimTime t) {
  // Everything acknowledged but not yet safely on NAND must reach the dump
  // area on capacitor power (Sec. 3.4.1), together with the dirty mapping
  // entries. Completed programs survive via the dumped mapping delta.
  std::vector<std::pair<Lpn, Frame>> to_dump;
  for (const auto& [lpn, e] : cache_) {
    if (e.ack > t || e.program_done <= t) continue;
    if (e.program_issue <= t) {
      // The program was issued by the cut: the capacitor quiesce runs it to
      // completion and the mapping survives the rollback (kIssued), so the
      // sector needs no dump page. Skipping these keeps the dump within the
      // reserved area even though lazy destage leaves many entries with an
      // open [ack, program_done) window.
      continue;
    }
    to_dump.emplace_back(lpn, e.frame);
  }
  const uint64_t dump_bytes =
      (static_cast<uint64_t>(to_dump.size()) + 1) * cfg_.geometry.page_size +
      ftl_.dirty_mapping_entries() * 12;
  if (dump_bytes > cfg_.capacitor_budget_bytes ||
      to_dump.size() + 1 > ftl_.dump_area_pages()) {
    stats_.capacitor_overruns++;
    // A real device would brown out mid-dump; we keep going so tests can
    // detect the overrun via stats instead of undefined behavior.
  }

  // Header page, then one dump page per cached sector. Header and entries
  // carry CRCs so replay can detect dump pages damaged by bit errors, and
  // entries are self-describing (own magic), so a failed entry program is
  // retried on the next dump page and replay tolerates the gap. A lost
  // header degrades replay to a full scan rather than losing the dump. An
  // entry's payload is the cached sector: PayloadLen() bytes, none on a
  // timing-only device, whose dump pages still program and replay alike.
  std::string header;
  PutFixed32(&header, kDumpMagic);
  PutFixed32(&header, static_cast<uint32_t>(to_dump.size()));
  PutFixed32(&header, Crc32c(header.data(), header.size()));
  ftl_.ProgramDumpPage(0, header);
  uint32_t index = 1;
  uint64_t written = 0;
  std::string data;
  for (const auto& [lpn, frame] : to_dump) {
    data.clear();
    AppendPayload(frame, &data);
    std::string page;
    PutFixed32(&page, kDumpEntryMagic);
    PutFixed64(&page, lpn);
    PutFixed32(&page, static_cast<uint32_t>(data.size()));
    PutFixed32(&page, Crc32c(data.data(), data.size()));
    page.append(data.data(), data.size());
    bool stored = false;
    while (index < ftl_.dump_area_pages()) {
      const bool ok = ftl_.ProgramDumpPage(index, page).ok();
      index++;
      if (ok) {
        stored = true;
        break;
      }
    }
    if (!stored) {
      stats_.capacitor_overruns++;
      break;
    }
    written++;
  }
  stats_.dumped_pages += written;
  if (tracer_) {
    tracer_->Record(t, TraceEventType::kDump, written,
                    stats_.capacitor_overruns);
  }
}

void SsdDevice::PowerCut(SimTime t) {
  if (!CutPower(t)) return;
  emergency_shutdown_ = true;
  if (tracer_) {
    tracer_->Record(t, TraceEventType::kPowerCut,
                    cfg_.durable_cache ? 1 : 0, 0);
  }

  if (cfg_.durable_cache) {
    // The capacitor budget covers NAND operations already issued to the
    // dies (Sec. 3.4.1): programs and erases in flight run to completion,
    // so nothing shears. This matters beyond host writes — GC and
    // bad-block retirement move live sectors whose only copy is the
    // in-flight destination program; shearing those would lose data no
    // dump replay could restore.
    flash_.QuiesceInFlight();
  }
  flash_.PowerCut(t);

  if (cfg_.durable_cache) {
    // Discard commands whose transfer had not completed (atomic writer,
    // Sec. 3.2), restoring the previously acknowledged version if any.
    // In ordered mode, verify the suffix-loss guarantee while doing so: no
    // surviving entry may have been submitted after a dropped one.
    uint64_t min_dropped_seq = ~0ull;
    uint64_t max_kept_seq = 0;
    uint64_t min_dropped_epoch = ~0ull;
    uint64_t max_kept_epoch = 0;
    for (auto it = cache_.begin(); it != cache_.end();) {
      CacheEntry& e = it->second;
      if (e.ack > t) {
        stats_.dropped_incomplete++;
        min_dropped_seq = std::min(min_dropped_seq, e.seq);
        min_dropped_epoch = std::min(min_dropped_epoch, e.epoch);
        if (e.has_prev && e.prev_ack <= t) {
          RestorePrev(e);  // Needs replay.
          max_kept_seq = std::max(max_kept_seq, e.seq);
          max_kept_epoch = std::max(max_kept_epoch, e.epoch);
          ++it;
        } else {
          if (e.has_prev) {
            min_dropped_seq = std::min(min_dropped_seq, e.prev_seq);
            min_dropped_epoch = std::min(min_dropped_epoch, e.prev_epoch);
          }
          it = EraseCacheEntry(it);
        }
      } else {
        max_kept_seq = std::max(max_kept_seq, e.seq);
        max_kept_epoch = std::max(max_kept_epoch, e.epoch);
        ++it;
      }
    }
    if (ordered_writes() && min_dropped_seq < max_kept_seq) {
      stats_.ordering_violations++;
    }
    // Barrier contract: the survivors must form an epoch-consistent cut —
    // losing any write of epoch N while keeping one from epoch M > N is a
    // cross-epoch reordering (intra-epoch reordering is allowed, so equal
    // epochs are fine).
    if (cur_epoch_ > 0 && min_dropped_epoch < max_kept_epoch) {
      stats_.epoch_ordering_violations++;
    }
    // Programs issued after t belong to discarded commands; their mapping
    // entries roll back. Programs *issued* by t keep their mapping — the
    // capacitor runs every issued NAND operation to completion, so keying
    // on issue (not cell-program start) matches QuiesceInFlight above.
    ftl_.PowerCutRollback(t, Ftl::PowerCutExposure::kIssued);
    DumpOnCapacitor(t);
  } else {
    // A cut inside a FLUSH can leave a mapping entry pointing at a torn
    // page: the anomaly Zheng et al. (FAST'13) saw on 13 of 15 commodity
    // SSDs.
    const bool flush_in_progress =
        last_flush_start_ >= 0 && last_flush_start_ <= t &&
        t < last_flush_done_;
    ClearCache();
    ftl_.PowerCutRollback(t, flush_in_progress
                                 ? Ftl::PowerCutExposure::kStarted
                                 : Ftl::PowerCutExposure::kNone);
  }

  // Pending scheduler sectors were acknowledged but never issued: on a
  // durable device the dump above saved them (program_done is still
  // "never"), on a volatile one they are lost with the cache.
  EndPowerSession();
}

void SsdDevice::EndPowerSession() {
  // After a cut this runs once the capacitor dump has programmed: the next
  // session starts with idle NAND, not behind the dump's own programs.
  flash_.ResetReservations();
  bus_.Reset();
  fw_.Reset();
  ncq_.Reset();
  scheduler_.Clear();
  while (!outstanding_.empty()) outstanding_.pop();
  last_flush_start_ = last_flush_done_ = -1;
  flush_windows_.clear();
  max_time_seen_ = 0;
  last_ordered_ack_ = 0;  // The device clock restarts at PowerOn.
  cur_epoch_ = 0;         // Epochs are per-power-session, like the NCQ order.
  epoch_floor_ack_ = 0;
  epoch_max_ack_ = 0;
  epoch_writes_ = 0;
}

SimTime SsdDevice::ReplayDump() {
  SimTime t = 0;
  const FlashGeometry& g = cfg_.geometry;
  const SimTime page_read_cost = g.read_latency + g.channel_transfer_time();

  // A dump entry is valid when its magic parses, it holds one cached
  // payload (PayloadLen() bytes) and its payload CRC holds (bit errors past
  // the ECC budget or a shorn program fail these checks).
  const uint32_t payload_len = PayloadLen();
  const auto parse_entry = [payload_len](const std::string& page, Lpn* lpn,
                                         std::string* data) {
    Slice p(page);
    uint32_t magic = 0;
    uint64_t l = 0;
    uint32_t len = 0;
    uint32_t crc = 0;
    if (!GetFixed32(&p, &magic) || magic != kDumpEntryMagic) return false;
    if (!GetFixed64(&p, &l) || !GetFixed32(&p, &len) ||
        !GetFixed32(&p, &crc) || len != payload_len || p.size() < len) {
      return false;
    }
    if (Crc32c(p.data(), len) != crc) return false;
    *lpn = l;
    data->assign(p.data(), len);
    return true;
  };

  std::vector<std::pair<Lpn, std::string>> entries;
  std::string header;
  const Status hs = ftl_.ReadDumpPage(0, &header);
  t += page_read_cost;  // Header read.
  uint32_t count = 0;
  bool header_valid = false;
  if (hs.ok()) {
    Slice h(header);
    uint32_t magic = 0;
    uint32_t crc = 0;
    if (GetFixed32(&h, &magic) && magic == kDumpMagic &&
        GetFixed32(&h, &count) && GetFixed32(&h, &crc)) {
      std::string prefix;
      PutFixed32(&prefix, magic);
      PutFixed32(&prefix, count);
      header_valid = Crc32c(prefix.data(), prefix.size()) == crc;
    }
  }
  // Entries were written in order but may have gaps where a program
  // failed: with a valid header, scan until `count` valid entries are
  // recovered. A lost header (failed program or uncorrectable read) falls
  // back to scanning the whole dump area for self-describing entries.
  const bool scan_all =
      !header_valid && hs.code() != StatusCode::kInvalidArgument;
  for (uint32_t i = 1; (header_valid ? entries.size() < count : scan_all) &&
                       i < ftl_.dump_area_pages();
       ++i) {
    std::string page;
    // A damaged page simply fails entry parsing below.
    (void)ftl_.ReadDumpPage(i, &page);
    t += page_read_cost;
    Lpn lpn = 0;
    std::string data;
    if (parse_entry(page, &lpn, &data)) {
      entries.emplace_back(lpn, std::move(data));
    }
  }

  // Replay: re-program every dumped sector (idempotent — mapping simply
  // repoints, superseding any shorn page).
  std::vector<Ftl::SectorWrite> group;
  std::vector<size_t> unreplayed;  // Indexes into `entries`.
  SimTime replay_done = t;
  for (size_t i = 0; i < entries.size(); ++i) {
    group.push_back({entries[i].first, flash_.store().Put(entries[i].second)});
    if (group.size() < ftl_.sectors_per_page() && i + 1 < entries.size()) {
      continue;
    }
    SimTime start = 0;
    SimTime done = 0;
    if (ftl_.ProgramSectors(t, group, &start, &done).ok()) {
      replay_done = std::max(replay_done, done);
      stats_.replayed_pages += group.size();
    } else {
      for (size_t j = i + 1 - group.size(); j <= i; ++j) {
        unreplayed.push_back(j);
      }
    }
    for (const Ftl::SectorWrite& w : group) flash_.store().Release(w.frame);
    group.clear();
  }

  ftl_.PersistMapping();
  const SimTime erased = ftl_.EraseDumpArea(replay_done);
  // A sector the FTL refused (a read-only degraded device) has no copy
  // left once the dump area is erased. Keep it acknowledged in the cache
  // and pending: reads serve it, FLUSH CACHE keeps reporting the failure,
  // and the next power cut dumps it again.
  for (const size_t i : unreplayed) {
    const Lpn lpn = entries[i].first;
    InsertCacheEntry(lpn, entries[i].second, /*ack=*/0, /*seq=*/0,
                     /*epoch=*/0);
    scheduler_.Add(lpn, 0);
  }
  if (tracer_) {
    tracer_->Record(erased, TraceEventType::kReplay, entries.size(),
                    stats_.replayed_pages);
  }
  return erased;
}

Status SsdDevice::DrainLogSegments(SimTime t, bool include_partial) {
  while (scheduler_.pending_sectors() >= SegmentSectors()) {
    DURASSD_RETURN_IF_ERROR(
        AppendLogSegment(t, scheduler_.TakePending(SegmentSectors())));
  }
  if (include_partial && !scheduler_.empty()) {
    DURASSD_RETURN_IF_ERROR(
        AppendLogSegment(t, scheduler_.TakePending(SegmentSectors())));
  }
  return Status::OK();
}

Status SsdDevice::AppendLogSegment(SimTime t, const std::vector<Lpn>& taken) {
  if (taken.empty()) return Status::OK();
  t = ClampToAcks(t, taken);
  const uint32_t spp = ftl_.sectors_per_page();

  // Header: segment sequence plus an (LPN, payload CRC) pair per sector, so
  // replay can both locate every payload and validate it without trusting
  // the (volatile) mapping table. The CRC covers the cached payload, which
  // is empty on a timing-only device.
  std::string header;
  PutFixed32(&header, kLogSegmentMagic);
  PutFixed64(&header, log_seq_ + 1);
  PutFixed32(&header, static_cast<uint32_t>(taken.size()));
  std::string payload;
  for (Lpn lpn : taken) {
    auto it = cache_.find(lpn);
    assert(it != cache_.end());
    payload.clear();
    AppendPayload(it->second.frame, &payload);
    PutFixed32(&header, Crc32c(payload.data(), payload.size()));
    PutFixed64(&header, lpn);
  }
  PutFixed32(&header, Crc32c(header.data(), header.size()));

  // A failed append leaves the untouched tail pending again: the sectors
  // stay acknowledged in the durable cache, so durability is unaffected
  // and a later drain (or the capacitor dump) picks them up.
  const auto requeue = [this, t](const std::vector<Lpn>& rest, size_t from) {
    for (size_t i = from; i < rest.size(); ++i) scheduler_.Add(rest[i], t);
  };

  SimTime hdr_start = 0;
  SimTime hdr_done = 0;
  const PageImage header_image(&flash_.store(), header);
  StatusOr<Ppn> hdr =
      ftl_.AppendLogPage(t, header_image.frames(), &hdr_start, &hdr_done);
  if (!hdr.ok()) {
    requeue(taken, 0);
    return hdr.status();
  }

  LogSegmentRec rec;
  rec.seq = ++log_seq_;
  rec.header_ppn = hdr.value();
  rec.sectors = 0;
  std::vector<Frame> page;
  for (size_t off = 0; off < taken.size(); off += spp) {
    const size_t n = std::min<size_t>(spp, taken.size() - off);
    page.clear();
    for (size_t j = 0; j < n; ++j) {
      auto it = cache_.find(taken[off + j]);
      assert(it != cache_.end());
      page.push_back(it->second.frame);
    }
    SimTime ps = 0;
    SimTime pd = 0;
    StatusOr<Ppn> ppn = ftl_.AppendLogPage(t, page, &ps, &pd);
    if (!ppn.ok()) {
      // Keep what was programmed (already mapped below); the header simply
      // over-claims and replay treats the missing tail as never written.
      requeue(taken, off);
      if (rec.sectors > 0) log_dir_.push_back(std::move(rec));
      return ppn.status();
    }
    std::vector<Lpn> group(taken.begin() + off, taken.begin() + off + n);
    for (size_t j = 0; j < n; ++j) {
      ftl_.MapLogSector(group[j], ppn.value(), static_cast<uint32_t>(j), t,
                        ps);
    }
    FinishDestage(group, t, pd);
    rec.data_ppns.push_back(ppn.value());
    rec.sectors += static_cast<uint32_t>(n);
  }

  stats_.log_segments++;
  stats_.log_segment_sectors += rec.sectors;
  log_dir_.push_back(std::move(rec));
  // The directory mirrors what a physical scan of the log region would
  // find; once the append cursor laps a segment its pages have been
  // reclaimed, so anything older than one full lap is dead weight.
  const size_t max_dir =
      ftl_.log_pages_total() / (SegmentDataPages() + 1) + 8;
  while (log_dir_.size() > max_dir) log_dir_.pop_front();
  return Status::OK();
}

SimTime SsdDevice::RecoverCache() {
  if (log_dir_.empty()) return 0;
  SimTime t = 0;
  const FlashGeometry& g = cfg_.geometry;
  const SimTime page_read_cost = g.read_latency + g.channel_transfer_time();

  // Newest to oldest, so the first (ppn, slot) the live mapping confirms
  // for an LPN is its authoritative copy and older ones are skipped.
  std::unordered_set<Lpn> seen;
  const uint32_t spp = ftl_.sectors_per_page();
  for (auto it = log_dir_.rbegin(); it != log_dir_.rend(); ++it) {
    const LogSegmentRec& rec = *it;
    std::string header;
    const Status hs = ftl_.ReadPhysicalPage(t, rec.header_ppn, &header,
                                            nullptr);
    t += page_read_cost;

    bool header_valid = false;
    uint32_t count = 0;
    std::vector<std::pair<Lpn, uint32_t>> map;  // (lpn, payload crc)
    if (hs.ok()) {
      Slice h(header);
      uint32_t magic = 0;
      uint64_t seq = 0;
      if (GetFixed32(&h, &magic) && magic == kLogSegmentMagic &&
          GetFixed64(&h, &seq) && GetFixed32(&h, &count) &&
          h.size() >= static_cast<size_t>(count) * kSegmentEntryBytes + 4) {
        const size_t crc_pos = kSegmentPrefixBytes +
                               static_cast<size_t>(count) * kSegmentEntryBytes;
        uint32_t stored_crc = 0;
        std::memcpy(&stored_crc, header.data() + crc_pos, sizeof(stored_crc));
        if (Crc32c(header.data(), crc_pos) == stored_crc) {
          header_valid = true;
          for (uint32_t i = 0; i < count; ++i) {
            uint32_t crc = 0;
            uint64_t lpn = 0;
            GetFixed32(&h, &crc);
            GetFixed64(&h, &lpn);
            map.emplace_back(lpn, crc);
          }
        }
      }
    }
    if (!header_valid) {
      // Torn or damaged header — the segment cannot be validated. Its
      // mappings were either rolled back (programs issued after the cut)
      // or point at pages the capacitor quiesce completed; the dump replay
      // that follows re-covers anything acknowledged-but-unissued. Nothing
      // to unmap here: dropping mappings on an unreadable header would
      // convert a detectable error into silent data loss.
      stats_.log_torn_segments++;
      continue;
    }

    stats_.log_replayed_segments++;
    std::string page;
    uint32_t page_idx = ~0u;
    Status page_status = Status::OK();
    for (uint32_t i = 0; i < count; ++i) {
      const auto [lpn, crc] = map[i];
      if (i / spp >= rec.data_ppns.size()) continue;  // Never programmed.
      if (seen.count(lpn) != 0) continue;
      const Ppn ppn = rec.data_ppns[i / spp];
      const uint32_t slot = i % spp;
      if (!ftl_.IsMappedTo(lpn, ppn, slot)) continue;  // Rolled back / stale.
      seen.insert(lpn);
      if (i / spp != page_idx) {
        page_idx = i / spp;
        page.clear();
        page_status = ftl_.ReadPhysicalPage(t, ppn, &page, nullptr);
        t += page_read_cost;
      }
      if (!page_status.ok()) {
        // Uncorrectable read: keep the mapping so host reads see the damage
        // (and its error) instead of silently-recovered zeros.
        stats_.log_recovered_sectors++;
        continue;
      }
      const size_t off = static_cast<size_t>(slot) * cfg_.sector_size;
      if (page.size() >= off + PayloadLen() &&
          Crc32c(page.data() + off, PayloadLen()) == crc) {
        stats_.log_recovered_sectors++;
      } else {
        // The page reads clean but holds the wrong bytes (shorn program the
        // quiesce missed): truncate — drop the mapping so the dump replay
        // or the pre-overwrite copy wins instead of torn data.
        if (ftl_.UnmapIfPointsTo(lpn, ppn, slot)) {
          stats_.log_dropped_sectors++;
        }
      }
    }
  }
  log_dir_.clear();
  ftl_.PersistMapping();
  if (tracer_) {
    tracer_->Record(t, TraceEventType::kReplay, stats_.log_replayed_segments,
                    stats_.log_recovered_sectors);
  }
  return t;
}

SimTime SsdDevice::PowerOn() {
  if (!RestorePower()) return 0;
  ClearCache();
  scheduler_.Clear();
  while (!outstanding_.empty()) outstanding_.pop();

  SimTime duration = kCleanBootTime;  // Controller boot + capacitor recharge.
  if (emergency_shutdown_) {
    if (cfg_.durable_cache) {
      // Log-structured destage first: validate every surviving segment
      // against its checksummed header (truncating a torn tail) before the
      // dump replay re-programs acknowledged-but-unissued sectors.
      if (UseLogDestage()) duration += RecoverCache();
      duration += ReplayDump();
    } else {
      duration += kVolatileRecoveryScan;
      ftl_.PersistMapping();
    }
    emergency_shutdown_ = false;
  }
  // Recovery (and anything queued before it) completes under capacitor
  // protection; a later power cut cannot shear it.
  flash_.QuiesceInFlight();
  max_time_seen_ = 0;
  if (tracer_) {
    tracer_->Record(duration, TraceEventType::kPowerOn,
                    static_cast<uint64_t>(duration), 0);
  }
  return duration;
}

Status SsdDevice::Shutdown(SimTime now) {
  if (!powered()) return Status::OK();
  // A clean shutdown must persist pending scheduler sectors even under
  // flush modes that only assert ordering (kOrderedNoDrain).
  if (!scheduler_.empty()) {
    DURASSD_RETURN_IF_ERROR(DrainBatch(now, DrainTrigger::kFlush, 0,
                                       /*include_partial=*/true));
  }
  log_dir_.clear();  // Clean shutdown: every segment is fully destaged.
  const Result r = Flush(now);
  DURASSD_RETURN_IF_ERROR(r.status);
  ShutOff();
  emergency_shutdown_ = false;
  ClearCache();
  EndPowerSession();
  return Status::OK();
}

double SsdDevice::WriteAmplification() const {
  const double host_bytes = static_cast<double>(stats_.host_written_sectors) *
                            cfg_.sector_size;
  if (host_bytes == 0) return 0;
  const double nand_bytes = static_cast<double>(flash_.stats().programs) *
                            cfg_.geometry.page_size;
  return nand_bytes / host_bytes;
}

}  // namespace durassd
