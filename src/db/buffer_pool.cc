#include "db/buffer_pool.h"

#include <cassert>

namespace durassd {

namespace {
/// InnoDB-style fil_flush: the direct-write path fdatasyncs the data file
/// after this many page writes.
constexpr uint32_t kPagesPerDataSync = 24;
}  // namespace

// ---------------------------------------------------------------------------
// PageRef
// ---------------------------------------------------------------------------

PageRef::PageRef(BufferPool* pool, PageId id, Page* page)
    : pool_(pool), id_(id), page_(page) {}

PageRef::PageRef(PageRef&& other) noexcept
    : pool_(other.pool_), id_(other.id_), page_(other.page_) {
  other.pool_ = nullptr;
  other.page_ = nullptr;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    id_ = other.id_;
    page_ = other.page_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::Release() {
  if (pool_ != nullptr && page_ != nullptr) {
    pool_->Unpin(id_);
  }
  pool_ = nullptr;
  page_ = nullptr;
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::BufferPool(SimFile* data_file, Wal* wal, DoubleWriteBuffer* dwb,
                       Options options)
    : data_file_(data_file),
      wal_(wal),
      dwb_(dwb),
      opts_(options),
      capacity_(options.pool_bytes / options.page_size) {
  assert(capacity_ >= 8);
}

void BufferPool::Unpin(PageId id) {
  auto it = map_.find(id);
  if (it == map_.end()) return;
  assert(it->second->pins > 0);
  it->second->pins--;
}

Status BufferPool::WriteFrame(IoContext& io, Frame& frame) {
  // WAL rule: the log must be durable *on device* up to the page's LSN
  // before the page itself may be written.
  DURASSD_RETURN_IF_ERROR(wal_->EnsureWritten(io, frame.page.lsn()));
  frame.page.SealChecksum();
  if (dwb_ != nullptr) {
    DURASSD_RETURN_IF_ERROR(
        dwb_->Add(io, frame.id, std::string(frame.page.data(),
                                            frame.page.size())));
  } else {
    const SimFile::IoResult r = data_file_->Write(
        io.now, static_cast<uint64_t>(frame.id) * opts_.page_size,
        frame.page.AsSlice());
    DURASSD_RETURN_IF_ERROR(r.status);
    io.AdvanceTo(r.done);
    if (opts_.sync_every_write) {
      const SimFile::IoResult s = data_file_->DataSync(io.now);
      DURASSD_RETURN_IF_ERROR(s.status);
      io.AdvanceTo(s.done);
    } else if (++writes_since_data_sync_ >= kPagesPerDataSync) {
      writes_since_data_sync_ = 0;
      const SimFile::IoResult s = data_file_->DataSync(io.now);
      DURASSD_RETURN_IF_ERROR(s.status);
      io.AdvanceTo(s.done);
    }
  }
  frame.dirty = false;
  return Status::OK();
}

StatusOr<BufferPool::FrameList::iterator> BufferPool::GetFreeFrame(
    IoContext& io, bool for_read) {
  if (lru_.size() < capacity_) {
    lru_.emplace_front(opts_.page_size);
    return lru_.begin();
  }
  // Scan from the LRU tail for an evictable frame.
  for (auto it = std::prev(lru_.end());; --it) {
    Frame& frame = *it;
    const bool evictable = frame.pins == 0 && frame.owner_txn == 0;
    if (evictable) {
      if (frame.dirty) {
        stats_.dirty_evictions++;
        if (for_read) stats_.reads_blocked_by_writes++;
        DURASSD_RETURN_IF_ERROR(WriteFrame(io, frame));
      }
      stats_.evictions++;
      map_.erase(frame.id);
      frame.id = kInvalidPageId;
      frame.dirty = false;
      frame.owner_txn = 0;
      lru_.splice(lru_.begin(), lru_, it);  // Front for reuse.
      return lru_.begin();
    }
    if (it == lru_.begin()) break;
  }
  return Status::Busy("no evictable frame (all pinned or owned)");
}

StatusOr<PageRef> BufferPool::Fix(IoContext& io, PageId id, bool create) {
  auto hit = map_.find(id);
  if (hit != map_.end()) {
    stats_.hits++;
    lru_.splice(lru_.begin(), lru_, hit->second);
    Frame& frame = *hit->second;
    frame.pins++;
    return PageRef(this, id, &frame.page);
  }
  stats_.misses++;

  StatusOr<FrameList::iterator> frame_or = GetFreeFrame(io, !create);
  if (!frame_or.ok()) return frame_or.status();
  Frame& frame = **frame_or;
  frame.id = id;
  frame.dirty = false;
  frame.owner_txn = 0;
  frame.pins = 0;

  if (create) {
    frame.page.Format(id, PageType::kFree);
  } else {
    // A pending double-write image is newer than the home location.
    const std::string* pending =
        dwb_ != nullptr ? dwb_->PendingImage(id) : nullptr;
    if (pending != nullptr) {
      frame.page.CopyFrom(*pending);
    } else {
      std::string raw;
      const SimFile::IoResult r = data_file_->Read(
          io.now, static_cast<uint64_t>(id) * opts_.page_size,
          opts_.page_size, &raw);
      if (!r.status.ok()) {
        frame.id = kInvalidPageId;  // Never mapped; the frame is reusable.
        return r.status;
      }
      io.AdvanceTo(r.done);
      raw.resize(opts_.page_size, '\0');
      frame.page.CopyFrom(raw);
    }
    if (frame.page.header()->magic != Page::kMagic ||
        !frame.page.VerifyChecksum()) {
      // Undo the mapping; the frame is reusable.
      frame.id = kInvalidPageId;
      return Status::Corruption("page " + std::to_string(id) +
                                " failed checksum (torn or uninitialized)");
    }
    if (!frame.page.VerifyLayout()) {
      frame.id = kInvalidPageId;
      return Status::Corruption("page " + std::to_string(id) +
                                " has a slot or cell outside the page");
    }
  }
  map_[id] = *frame_or;
  frame.pins = 1;
  return PageRef(this, id, &frame.page);
}

void BufferPool::MarkDirty(PageId id, Lsn lsn, TxnId txn) {
  auto it = map_.find(id);
  assert(it != map_.end());
  Frame& frame = *it->second;
  frame.dirty = true;
  frame.owner_txn = txn;
  if (lsn != kInvalidLsn) frame.page.set_lsn(lsn);
}

void BufferPool::ClearOwner(PageId id, TxnId txn) {
  auto it = map_.find(id);
  if (it != map_.end() && it->second->owner_txn == txn) {
    it->second->owner_txn = 0;
  }
}

Status BufferPool::FlushAll(IoContext& io) {
  for (auto& frame : lru_) {
    if (frame.id == kInvalidPageId || !frame.dirty) continue;
    DURASSD_RETURN_IF_ERROR(WriteFrame(io, frame));
    stats_.checkpoint_page_flushes++;
  }
  if (dwb_ != nullptr) {
    DURASSD_RETURN_IF_ERROR(dwb_->FlushBatch(io));
  }
  return Status::OK();
}

}  // namespace durassd
