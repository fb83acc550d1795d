#include "host/sim_file.h"

#include <algorithm>

namespace durassd {

// ---------------------------------------------------------------------------
// SimFileSystem
// ---------------------------------------------------------------------------

SimFileSystem::SimFileSystem(BlockDevice* device, Options options)
    : device_(device),
      opts_(options),
      next_lpn_(options.journal_area_sectors),
      journal_sector_(device->sector_size(), '\0') {}

SimFile* SimFileSystem::Open(const std::string& name) {
  auto it = files_.find(name);
  if (it != files_.end()) return it->second.get();
  auto file = std::unique_ptr<SimFile>(new SimFile(this, name));
  SimFile* raw = file.get();
  files_.emplace(name, std::move(file));
  return raw;
}

bool SimFileSystem::Exists(const std::string& name) const {
  return files_.count(name) != 0;
}

StatusOr<Lpn> SimFileSystem::AllocateChunk() {
  const Lpn start = next_lpn_;
  if (start + opts_.chunk_sectors > device_->num_sectors()) {
    return Status::OutOfSpace("file system full");
  }
  next_lpn_ += opts_.chunk_sectors;
  return start;
}

SimFile::IoResult SimFileSystem::SyncInternal(SimTime now, SimFile* file,
                                              bool write_journal) {
  stats_.syncs++;
  // JBD2-style fsync batching: if a journal commit + FLUSH was *initiated*
  // at or after this caller's writes completed (now <= start), that commit
  // covers them — ride it instead of issuing another. Sound because a
  // device flush covers everything acknowledged before it starts.
  if (opts_.write_barriers && last_sync_start_ >= now) {
    stats_.batched_syncs++;
    if (file != nullptr) file->metadata_dirty_ = false;
    return {Status::OK(), last_sync_done_};
  }
  // Otherwise journal immediately and issue a FLUSH; the device serializes
  // flushes and lets later requests piggyback on a queued one (two-phase
  // group commit emerges from the combination).
  SimTime t = now;
  // With write barriers on we model an ordered-journal fsync (ext4-like):
  // a journal transaction is committed on every fsync. With barriers off
  // (the XFS nobarrier deployment the paper uses for DuraSSD), fsync only
  // journals when the file's metadata actually changed; an O_DIRECT write
  // into preallocated space costs a bare syscall.
  if (write_journal && !opts_.write_barriers && file != nullptr &&
      !file->metadata_dirty()) {
    write_journal = false;
  }
  if (write_journal) {
    // Journal transaction: one small ordered write into the journal ring
    // (ext4's descriptor + commit fit one sector here).
    const Lpn lpn = journal_cursor_ % opts_.journal_area_sectors;
    journal_cursor_++;
    const BlockDevice::Result r = device_->Write(t, lpn, journal_sector_);
    if (!r.status.ok()) return {r.status, t};
    t = r.done;
    stats_.journal_writes++;
  }
  if (file != nullptr) file->metadata_dirty_ = false;
  if (opts_.write_barriers) {
    const BlockDevice::Result r = device_->Flush(t);
    stats_.flush_cmds++;
    last_sync_start_ = t;
    last_sync_done_ = r.done;
    return {r.status, r.done};
  }
  // fsync syscall overhead without a FLUSH CACHE.
  return {Status::OK(), t + 5 * kMicrosecond};
}

SimFile::IoResult SimFileSystem::BarrierInternal(SimTime now, SimFile* file) {
  if (!device_->supports_barrier()) {
    // The ordering request can only be honored by draining: fall back to a
    // full fsync (journal + FLUSH per the mount options).
    return SyncInternal(now, file, /*write_journal=*/true);
  }
  // Group commit, same batching rule as fsync: a barrier *initiated* at or
  // after this caller's writes completed already sealed those writes into
  // its epoch — concurrent committers share one barrier submission. A
  // completed full sync (journal + FLUSH drain) is strictly stronger and
  // covers the request too.
  if (last_barrier_start_ >= now || last_sync_start_ >= now) {
    return {Status::OK(),
            last_barrier_start_ >= last_sync_start_ ? last_barrier_done_
                                                    : last_sync_done_};
  }
  // No journal transaction: a BARRIER does not persist metadata, it only
  // orders the data stream. The file's metadata stays dirty so a later
  // real fsync still journals it.
  const BlockDevice::Result r = device_->Barrier(now);
  if (r.status.ok()) {
    last_barrier_start_ = now;
    last_barrier_done_ = r.done;
  }
  return {r.status, r.done};
}

// ---------------------------------------------------------------------------
// SimFile
// ---------------------------------------------------------------------------

StatusOr<Lpn> SimFile::MapOffset(uint64_t offset, bool grow) {
  const uint32_t sector = fs_->device()->sector_size();
  const uint64_t file_sector = offset / sector;
  const uint64_t chunk = file_sector / fs_->options().chunk_sectors;
  while (chunk >= chunks_.size()) {
    if (!grow) return Status::NotFound("offset beyond file extents");
    StatusOr<Lpn> base = fs_->AllocateChunk();
    if (!base.ok()) return base.status();
    chunks_.push_back(*base);
  }
  return chunks_[chunk] + file_sector % fs_->options().chunk_sectors;
}

Status SimFile::Allocate(uint64_t new_size) {
  if (new_size == 0) return Status::OK();
  StatusOr<Lpn> last = MapOffset(new_size - 1, /*grow=*/true);
  DURASSD_RETURN_IF_ERROR(last.status());
  if (new_size > size_) {
    size_ = new_size;
    metadata_dirty_ = true;
  }
  return Status::OK();
}

Status SimFile::Truncate(uint64_t new_size) {
  // Extents are kept (no hole punching); only the logical size shrinks.
  size_ = new_size;
  return Status::OK();
}

SimFile::IoResult SimFile::Write(SimTime now, uint64_t offset, Slice data) {
  if (data.empty()) return {Status::OK(), now};
  BlockDevice* dev = fs_->device();
  const uint32_t sector = dev->sector_size();
  SimTime t = now;
  SimTime done = now;

  uint64_t pos = offset;
  const char* src = data.data();
  uint64_t remaining = data.size();

  while (remaining > 0) {
    const uint32_t in_sector = static_cast<uint32_t>(pos % sector);
    const uint64_t n = std::min<uint64_t>(sector - in_sector, remaining);

    StatusOr<Lpn> lpn = MapOffset(pos, /*grow=*/true);
    if (!lpn.ok()) return {lpn.status(), t};

    if (in_sector == 0 && n == sector) {
      // Fast path: whole aligned sectors — batch as many as possible into
      // one device command (one NCQ command, amortized firmware cost).
      uint64_t run_sectors = 1;
      while (run_sectors * sector < remaining &&
             (pos / sector + run_sectors) % fs_->options().chunk_sectors !=
                 0 &&
             remaining - run_sectors * sector >= sector) {
        run_sectors++;
      }
      const BlockDevice::Result r =
          dev->Write(t, *lpn, Slice(src, run_sectors * sector));
      if (!r.status.ok()) return {r.status, t};
      done = std::max(done, r.done);
      pos += run_sectors * sector;
      src += run_sectors * sector;
      remaining -= run_sectors * sector;
      continue;
    }

    // Partial sector: read-modify-write.
    std::string old;
    const BlockDevice::Result rr = dev->Read(t, *lpn, 1, &old);
    if (!rr.status.ok()) return {rr.status, t};
    t = rr.done;
    old.resize(sector, '\0');
    old.replace(in_sector, n, src, n);
    const BlockDevice::Result wr = dev->Write(t, *lpn, old);
    if (!wr.status.ok()) return {wr.status, t};
    done = std::max(done, wr.done);
    pos += n;
    src += n;
    remaining -= n;
  }

  if (offset + data.size() > size_) {
    size_ = offset + data.size();
    metadata_dirty_ = true;
  }
  return {Status::OK(), done};
}

SimFile::IoResult SimFile::Read(SimTime now, uint64_t offset, uint64_t len,
                                std::string* out) {
  if (out != nullptr) out->clear();
  if (len == 0) return {Status::OK(), now};
  BlockDevice* dev = fs_->device();
  const uint32_t sector = dev->sector_size();
  SimTime done = now;

  uint64_t pos = offset;
  uint64_t remaining = len;
  while (remaining > 0) {
    const uint32_t in_sector = static_cast<uint32_t>(pos % sector);
    StatusOr<Lpn> lpn = MapOffset(pos, /*grow=*/false);
    if (!lpn.ok()) {
      // Reading a hole / beyond extents: zeros.
      if (out != nullptr) out->append(remaining, '\0');
      break;
    }
    // Batch whole-sector runs within a chunk into one command.
    uint64_t run_sectors = 1;
    if (in_sector == 0) {
      while (run_sectors * sector < remaining &&
             (pos / sector + run_sectors) % fs_->options().chunk_sectors !=
                 0) {
        run_sectors++;
      }
    }
    std::string buf;
    const BlockDevice::Result r = dev->Read(
        now, *lpn, static_cast<uint32_t>(run_sectors),
        out != nullptr ? &buf : nullptr);
    if (!r.status.ok()) return {r.status, now};
    done = std::max(done, r.done);
    const uint64_t n =
        std::min<uint64_t>(run_sectors * sector - in_sector, remaining);
    if (out != nullptr) {
      buf.resize(run_sectors * sector, '\0');
      out->append(buf, in_sector, n);
    }
    pos += n;
    remaining -= n;
  }
  return {Status::OK(), done};
}

SimFile::IoResult SimFile::Sync(SimTime now) {
  return fs_->SyncInternal(now, this, /*write_journal=*/true);
}

SimFile::IoResult SimFile::DataSync(SimTime now) {
  return fs_->SyncInternal(now, this, /*write_journal=*/false);
}

SimFile::IoResult SimFile::Barrier(SimTime now) {
  return fs_->BarrierInternal(now, this);
}

}  // namespace durassd
