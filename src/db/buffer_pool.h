#ifndef DURASSD_DB_BUFFER_POOL_H_
#define DURASSD_DB_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
#include "db/double_write_buffer.h"
#include "db/io_context.h"
#include "db/page.h"
#include "db/wal.h"
#include "host/sim_file.h"

namespace durassd {

class BufferPool;

/// RAII pin on a fixed page. While alive, the frame cannot be evicted.
class PageRef {
 public:
  PageRef() = default;
  PageRef(BufferPool* pool, PageId id, Page* page);
  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  Page* operator->() { return page_; }
  Page& operator*() { return *page_; }
  Page* get() { return page_; }
  const Page* get() const { return page_; }
  PageId id() const { return id_; }
  bool valid() const { return page_ != nullptr; }
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPageId;
  Page* page_ = nullptr;
};

/// The database buffer pool: fixed frame count, LRU replacement, dirty
/// eviction through the WAL rule and (optionally) the double-write buffer.
/// This is where Fig. 1's "reads blocked by writes" happens: a read miss
/// with no clean frame pays for a dirty-page write (and its fsyncs) before
/// the read can even start.
class BufferPool {
 public:
  struct Options {
    uint64_t pool_bytes = 64 * kMiB;
    uint32_t page_size = 4 * kKiB;
    /// fsync after every page write (O_DSYNC — the commercial RDBMS
    /// behaviour in the paper's TPC-C experiment, Sec. 4.3.2).
    bool sync_every_write = false;
  };
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dirty_evictions = 0;
    /// Read fixes that had to wait for a dirty-page write first (Fig. 1).
    uint64_t reads_blocked_by_writes = 0;
    uint64_t checkpoint_page_flushes = 0;

    double MissRatio() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(misses) /
                              static_cast<double>(total);
    }
  };

  /// `dwb` may be null (the double-write-buffer OFF configurations).
  BufferPool(SimFile* data_file, Wal* wal, DoubleWriteBuffer* dwb,
             Options options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  uint32_t page_size() const { return opts_.page_size; }
  bool resident(PageId id) const { return map_.count(id) != 0; }

  /// Fixes a page into the pool and pins it. With `create` the page is not
  /// read from storage (fresh page; caller formats it). Reading a page that
  /// fails its checksum returns Corruption — a torn page reached the pool.
  StatusOr<PageRef> Fix(IoContext& io, PageId id, bool create);

  /// Marks a fixed page dirty under `txn`; frames dirtied by an active
  /// transaction are not evictable until ClearOwner (no-steal policy).
  void MarkDirty(PageId id, Lsn lsn, TxnId txn);
  void ClearOwner(PageId id, TxnId txn);

  /// Writes out every dirty frame (checkpoint). Frames stay resident.
  Status FlushAll(IoContext& io);

  Stats stats() const { return stats_; }

 private:
  friend class PageRef;

  struct Frame {
    Page page;
    PageId id = kInvalidPageId;
    bool dirty = false;
    uint32_t pins = 0;
    TxnId owner_txn = 0;  ///< Nonzero while an active txn has changes here.
    explicit Frame(uint32_t page_size) : page(page_size) {}
  };
  using FrameList = std::list<Frame>;

  void Unpin(PageId id);
  /// Writes one dirty frame out (WAL rule + double-write or direct).
  Status WriteFrame(IoContext& io, Frame& frame);
  /// Makes a frame available, evicting the LRU victim if at capacity.
  StatusOr<FrameList::iterator> GetFreeFrame(IoContext& io, bool for_read);

  SimFile* data_file_;
  Wal* wal_;
  DoubleWriteBuffer* dwb_;
  Options opts_;
  uint64_t capacity_;

  FrameList lru_;  ///< Front = most recently used.
  std::unordered_map<PageId, FrameList::iterator> map_;
  uint32_t writes_since_data_sync_ = 0;
  Stats stats_;
};

}  // namespace durassd

#endif  // DURASSD_DB_BUFFER_POOL_H_
