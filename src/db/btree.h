#ifndef DURASSD_DB_BTREE_H_
#define DURASSD_DB_BTREE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "db/buffer_pool.h"
#include "db/io_context.h"

namespace durassd {

/// Allocates fresh page ids (implemented by Database; allocation order is
/// deterministic, which the replay-based recovery relies on).
class PageAllocator {
 public:
  virtual ~PageAllocator() = default;
  virtual StatusOr<PageId> AllocatePage(IoContext& io) = 0;
};

/// Mutation context threaded through writes: the WAL position stamped into
/// dirtied pages, the owning transaction (no-steal nailing), and the list
/// of dirtied page ids the transaction later releases.
struct MutationCtx {
  Lsn lsn = kInvalidLsn;
  TxnId txn = 0;
  std::vector<PageId>* dirtied = nullptr;
};

/// Disk B+-tree with byte-string keys (memcmp order) and values, built on
/// the buffer pool. Supports upsert, point get, delete, and ordered scans
/// via leaf chaining. Nodes split at overflow; underflow is tolerated
/// (deletes leave sparse pages — reclaimed only by rebuild, like SQLite
/// without vacuum), which keeps recovery-by-replay deterministic.
///
/// Size limits: key <= 1/16 page, value <= 1/8 page, so any two cells fit a
/// fresh page and splits always succeed.
class BTree {
 public:
  BTree(BufferPool* pool, PageAllocator* alloc, PageId root);

  PageId root() const { return root_; }
  uint32_t max_key_size() const { return pool_->page_size() / 16; }
  uint32_t max_value_size() const { return pool_->page_size() / 8; }

  /// Creates a new empty tree and returns its root page id.
  static StatusOr<PageId> Create(IoContext& io, BufferPool* pool,
                                 PageAllocator* alloc, const MutationCtx& m);

  /// Upsert. `old_value`, if non-null, receives the previous value (and
  /// `had_old` whether one existed) — the before-image the WAL needs.
  Status Put(IoContext& io, const MutationCtx& m, Slice key, Slice value,
             std::string* old_value = nullptr, bool* had_old = nullptr);

  Status Get(IoContext& io, Slice key, std::string* value);

  /// Returns NotFound if absent. Captures the before-image like Put.
  Status Delete(IoContext& io, const MutationCtx& m, Slice key,
                std::string* old_value = nullptr, bool* had_old = nullptr);

  /// Scans up to `limit` pairs with key >= start.
  Status ScanFrom(IoContext& io, Slice start, size_t limit,
                  std::vector<std::pair<std::string, std::string>>* out);

  /// Counts pairs in [start, end) up to `cap`.
  Status CountRange(IoContext& io, Slice start, Slice end, size_t cap,
                    uint64_t* count);

 private:
  // Cell encodings (first u16 = total cell length, making cells
  // self-describing for Page::CellAt); the header sizes live in Page:
  //  leaf:     [len u16][klen u16][vlen u16][key][value]
  //  internal: [len u16][klen u16][child u64][key]
  // The accessors trust the lengths: Page::VerifyLayout checked them when
  // the page was loaded.
  static std::string EncodeLeafCell(Slice key, Slice value);
  static std::string EncodeInternalCell(Slice key, PageId child);
  static Slice LeafKey(Slice cell);
  static Slice LeafValue(Slice cell);
  static Slice InternalKey(Slice cell);
  static PageId InternalChild(Slice cell);

  /// First slot whose key >= `key` (lower bound); `exact` set when equal.
  static uint16_t LowerBound(const Page& page, bool leaf, Slice key,
                             bool* exact);
  /// Child to descend into for `key`.
  static PageId DescendChild(const Page& page, Slice key);

  /// Read-side descent: fixes root to leaf, releasing each parent once its
  /// child is fixed. On return `leaf` is pinned.
  Status FindLeafRead(IoContext& io, Slice key, PageRef* leaf);
  /// Write-side descent for Put, retaining ancestors while the child may
  /// split. `leaf_need` is the worst-case byte cost of the pending leaf
  /// insert (cell + slot). On return `leaf` is pinned and `path` holds the
  /// retained ancestors (empty when the leaf cannot split, or when the leaf
  /// is the root).
  Status FindLeafWrite(IoContext& io, Slice key, size_t leaf_need,
                       std::vector<PageRef>* path, PageRef* leaf);
  /// Splits the overflowing `page` and inserts the separator upward through
  /// the retained `path`, growing the tree at the root if needed.
  Status SplitAndInsert(IoContext& io, const MutationCtx& m,
                        std::vector<PageRef> path, PageRef page, Slice key,
                        const std::string& cell);

  void Dirty(const MutationCtx& m, PageId id) {
    pool_->MarkDirty(id, m.lsn, m.txn);
    if (m.dirtied != nullptr) m.dirtied->push_back(id);
  }

  /// Worst-case separator cell an internal node may have to absorb (cell
  /// header + max key + slot); a node with this much free space is "safe".
  size_t WorstInternalNeed() const {
    return Page::kInternalCellHeaderSize + max_key_size() + 2;
  }

  BufferPool* pool_;
  PageAllocator* alloc_;
  PageId root_;  ///< Changes only when the root splits.
};

}  // namespace durassd

#endif  // DURASSD_DB_BTREE_H_
