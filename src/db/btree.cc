#include "db/btree.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"

namespace durassd {

namespace {
void PutU16(std::string* dst, uint16_t v) {
  dst->append(reinterpret_cast<const char*>(&v), 2);
}
uint16_t GetU16(const char* p) {
  uint16_t v;
  memcpy(&v, p, 2);
  return v;
}
}  // namespace

BTree::BTree(BufferPool* pool, PageAllocator* alloc, PageId root)
    : pool_(pool), alloc_(alloc), root_(root) {}

std::string BTree::EncodeLeafCell(Slice key, Slice value) {
  std::string cell;
  const size_t len = Page::kLeafCellHeaderSize + key.size() + value.size();
  cell.reserve(len);
  PutU16(&cell, static_cast<uint16_t>(len));
  PutU16(&cell, static_cast<uint16_t>(key.size()));
  PutU16(&cell, static_cast<uint16_t>(value.size()));
  cell.append(key.data(), key.size());
  cell.append(value.data(), value.size());
  return cell;
}

std::string BTree::EncodeInternalCell(Slice key, PageId child) {
  std::string cell;
  const size_t len = Page::kInternalCellHeaderSize + key.size();
  cell.reserve(len);
  PutU16(&cell, static_cast<uint16_t>(len));
  PutU16(&cell, static_cast<uint16_t>(key.size()));
  cell.append(reinterpret_cast<const char*>(&child), 8);
  cell.append(key.data(), key.size());
  return cell;
}

Slice BTree::LeafKey(Slice cell) {
  const uint16_t klen = GetU16(cell.data() + 2);
  return Slice(cell.data() + Page::kLeafCellHeaderSize, klen);
}

Slice BTree::LeafValue(Slice cell) {
  const uint16_t klen = GetU16(cell.data() + 2);
  const uint16_t vlen = GetU16(cell.data() + 4);
  return Slice(cell.data() + Page::kLeafCellHeaderSize + klen, vlen);
}

Slice BTree::InternalKey(Slice cell) {
  const uint16_t klen = GetU16(cell.data() + 2);
  return Slice(cell.data() + Page::kInternalCellHeaderSize, klen);
}

PageId BTree::InternalChild(Slice cell) {
  PageId child;
  memcpy(&child, cell.data() + 4, 8);
  return child;
}

uint16_t BTree::LowerBound(const Page& page, bool leaf, Slice key,
                           bool* exact) {
  *exact = false;
  uint16_t lo = 0;
  uint16_t hi = page.nslots();
  while (lo < hi) {
    const uint16_t mid = (lo + hi) / 2;
    const Slice cell = page.CellAt(mid);
    const Slice mid_key = leaf ? LeafKey(cell) : InternalKey(cell);
    const int cmp = mid_key.compare(key);
    if (cmp == 0) {
      *exact = true;
      return mid;
    }
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

PageId BTree::DescendChild(const Page& page, Slice key) {
  bool exact = false;
  const uint16_t slot = LowerBound(page, /*leaf=*/false, key, &exact);
  if (exact) return InternalChild(page.CellAt(slot));
  if (slot == 0) return page.header()->aux1;  // Leftmost child.
  return InternalChild(page.CellAt(slot - 1));
}

StatusOr<PageId> BTree::Create(IoContext& io, BufferPool* pool,
                               PageAllocator* alloc, const MutationCtx& m) {
  StatusOr<PageId> id = alloc->AllocatePage(io);
  if (!id.ok()) return id.status();
  StatusOr<PageRef> ref = pool->Fix(io, *id, /*create=*/true);
  if (!ref.ok()) return ref.status();
  (*ref)->Format(*id, PageType::kBTreeLeaf);
  pool->MarkDirty(*id, m.lsn, m.txn);
  if (m.dirtied != nullptr) m.dirtied->push_back(*id);
  return *id;
}

Status BTree::FindLeafRead(IoContext& io, Slice key, PageRef* leaf) {
  PageId current = root_;
  PageRef parent;
  for (int depth = 0; depth < 64; ++depth) {
    StatusOr<PageRef> ref_or = pool_->Fix(io, current, /*create=*/false);
    if (!ref_or.ok()) return ref_or.status();
    PageRef node = std::move(*ref_or);
    const PageType type = node->type();
    if (type != PageType::kBTreeLeaf && type != PageType::kBTreeInternal) {
      return Status::Corruption("unexpected page type in btree descent");
    }
    parent.Release();  // The child is pinned; the parent may go.
    if (type == PageType::kBTreeLeaf) {
      *leaf = std::move(node);
      return Status::OK();
    }
    current = DescendChild(*node, key);
    if (current == kInvalidPageId) {
      return Status::Corruption("invalid child pointer");
    }
    parent = std::move(node);
  }
  return Status::Corruption("btree deeper than 64 levels");
}

Status BTree::FindLeafWrite(IoContext& io, Slice key, size_t leaf_need,
                            std::vector<PageRef>* path, PageRef* leaf) {
  PageId current = root_;
  for (int depth = 0; depth < 64; ++depth) {
    StatusOr<PageRef> ref_or = pool_->Fix(io, current, /*create=*/false);
    if (!ref_or.ok()) return ref_or.status();
    PageRef node = std::move(*ref_or);
    const PageType type = node->type();
    if (type != PageType::kBTreeLeaf && type != PageType::kBTreeInternal) {
      return Status::Corruption("unexpected page type in btree descent");
    }
    const bool is_leaf = type == PageType::kBTreeLeaf;
    // "Safe" = this node will absorb the worst insert that can reach it
    // without splitting, so no split can propagate above it: retained
    // ancestors are released. The node itself stays in the path — it is
    // where an upward-propagating split stops. InsertCell compacts
    // internally, so FreeSpace() is the exact criterion.
    const size_t need = is_leaf ? leaf_need : WorstInternalNeed();
    if (node->FreeSpace() >= need) path->clear();
    if (is_leaf) {
      *leaf = std::move(node);
      return Status::OK();
    }
    current = DescendChild(*node, key);
    if (current == kInvalidPageId) {
      return Status::Corruption("invalid child pointer");
    }
    path->push_back(std::move(node));
  }
  return Status::Corruption("btree deeper than 64 levels");
}

Status BTree::Put(IoContext& io, const MutationCtx& m, Slice key,
                  Slice value, std::string* old_value, bool* had_old) {
  if (key.size() > max_key_size() || key.empty()) {
    return Status::InvalidArgument("key size out of range");
  }
  if (value.size() > max_value_size()) {
    return Status::InvalidArgument("value too large");
  }
  if (had_old != nullptr) *had_old = false;

  const std::string cell = EncodeLeafCell(key, value);
  std::vector<PageRef> path;
  PageRef leaf;
  DURASSD_RETURN_IF_ERROR(
      FindLeafWrite(io, key, cell.size() + 2, &path, &leaf));

  bool exact = false;
  const uint16_t slot = LowerBound(*leaf, /*leaf=*/true, key, &exact);

  if (exact) {
    if (old_value != nullptr) {
      *old_value = LeafValue(leaf->CellAt(slot)).ToString();
    }
    if (had_old != nullptr) *had_old = true;
    if (leaf->ReplaceCell(slot, cell)) {
      Dirty(m, leaf.id());
      return Status::OK();
    }
    // Did not fit even after compaction: fall through to split; the old
    // cell was already removed by ReplaceCell's remove+insert attempt.
    Dirty(m, leaf.id());
    return SplitAndInsert(io, m, std::move(path), std::move(leaf), key, cell);
  }

  if (leaf->InsertCell(slot, cell)) {
    Dirty(m, leaf.id());
    return Status::OK();
  }
  return SplitAndInsert(io, m, std::move(path), std::move(leaf), key, cell);
}

Status BTree::SplitAndInsert(IoContext& io, const MutationCtx& m,
                             std::vector<PageRef> path, PageRef page,
                             Slice key, const std::string& cell) {
  std::string pending_cell = cell;
  std::string pending_key = key.ToString();

  while (true) {
    const bool is_leaf = page->type() == PageType::kBTreeLeaf;

    // Allocate and format the right sibling.
    StatusOr<PageId> right_id_or = alloc_->AllocatePage(io);
    if (!right_id_or.ok()) return right_id_or.status();
    const PageId right_id = *right_id_or;
    StatusOr<PageRef> right_or = pool_->Fix(io, right_id, /*create=*/true);
    if (!right_or.ok()) return right_or.status();
    PageRef right = std::move(*right_or);
    right->Format(right_id, is_leaf ? PageType::kBTreeLeaf
                                    : PageType::kBTreeInternal);

    // Copy out upper-half cells (slices invalidate on mutation).
    const uint16_t n = page->nslots();
    const uint16_t mid = n / 2;
    std::vector<std::string> moved;
    moved.reserve(n - mid);
    for (uint16_t i = mid; i < n; ++i) {
      moved.emplace_back(page->CellAt(i).ToString());
    }
    std::string separator;
    if (is_leaf) {
      separator = LeafKey(moved[0]).ToString();
      for (size_t i = 0; i < moved.size(); ++i) {
        const bool ok =
            right->InsertCell(static_cast<uint16_t>(i), moved[i]);
        if (!ok) return Status::Corruption("split target overflow");
      }
      // Leaf chaining.
      right->header()->aux1 = page->header()->aux1;
      page->header()->aux1 = right_id;
    } else {
      separator = InternalKey(moved[0]).ToString();
      right->header()->aux1 = InternalChild(moved[0]);  // Leftmost child.
      for (size_t i = 1; i < moved.size(); ++i) {
        const bool ok =
            right->InsertCell(static_cast<uint16_t>(i - 1), moved[i]);
        if (!ok) return Status::Corruption("split target overflow");
      }
    }
    for (uint16_t i = n; i-- > mid;) {
      page->RemoveCell(i);
    }
    page->Compact();

    // Insert the pending cell into the proper half.
    {
      Page* target =
          Slice(pending_key).compare(Slice(separator)) < 0 ? page.get()
                                                           : right.get();
      bool exact = false;
      const uint16_t slot =
          LowerBound(*target, is_leaf, pending_key, &exact);
      // On the leaf level an exact hit is impossible here (handled in Put);
      // on internal levels separators are unique.
      if (!target->InsertCell(slot, pending_cell)) {
        return Status::Corruption("cell does not fit half-full page");
      }
    }
    Dirty(m, page.id());
    Dirty(m, right.id());

    // Propagate the separator upward.
    const std::string up_cell = EncodeInternalCell(separator, right_id);
    if (path.empty()) {
      // Root split: grow the tree. The descent only leaves the path empty
      // when `page` is the root itself (an unsafe non-root node always
      // retains its parent).
      StatusOr<PageId> new_root_or = alloc_->AllocatePage(io);
      if (!new_root_or.ok()) return new_root_or.status();
      StatusOr<PageRef> root_or =
          pool_->Fix(io, *new_root_or, /*create=*/true);
      if (!root_or.ok()) return root_or.status();
      (*root_or)->Format(*new_root_or, PageType::kBTreeInternal);
      (*root_or)->header()->aux1 = page.id();
      if (!(*root_or)->InsertCell(0, up_cell)) {
        return Status::Corruption("new root overflow");
      }
      Dirty(m, *new_root_or);
      root_ = *new_root_or;
      return Status::OK();
    }

    // The parent was retained by the descent; no re-fix. `page` and
    // `right` are final and can be released first.
    PageRef parent = std::move(path.back());
    path.pop_back();
    page.Release();
    right.Release();
    bool exact = false;
    const uint16_t slot =
        LowerBound(*parent, /*leaf=*/false, separator, &exact);
    if (parent->InsertCell(slot, up_cell)) {
      Dirty(m, parent.id());
      return Status::OK();
    }
    // Parent overflows too: loop with the parent as the page to split.
    pending_cell = up_cell;
    pending_key = separator;
    page = std::move(parent);
  }
}

Status BTree::Get(IoContext& io, Slice key, std::string* value) {
  PageRef leaf;
  DURASSD_RETURN_IF_ERROR(FindLeafRead(io, key, &leaf));
  bool exact = false;
  const uint16_t slot = LowerBound(*leaf, /*leaf=*/true, key, &exact);
  if (!exact) return Status::NotFound();
  if (value != nullptr) *value = LeafValue(leaf->CellAt(slot)).ToString();
  return Status::OK();
}

Status BTree::Delete(IoContext& io, const MutationCtx& m, Slice key,
                     std::string* old_value, bool* had_old) {
  if (had_old != nullptr) *had_old = false;
  // Delete never merges, so the structure change stops at the leaf.
  PageRef leaf;
  DURASSD_RETURN_IF_ERROR(FindLeafRead(io, key, &leaf));
  bool exact = false;
  const uint16_t slot = LowerBound(*leaf, /*leaf=*/true, key, &exact);
  if (!exact) return Status::NotFound();
  if (old_value != nullptr) {
    *old_value = LeafValue(leaf->CellAt(slot)).ToString();
  }
  if (had_old != nullptr) *had_old = true;
  leaf->RemoveCell(slot);
  Dirty(m, leaf.id());
  return Status::OK();
}

Status BTree::ScanFrom(
    IoContext& io, Slice start, size_t limit,
    std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  PageRef leaf;
  DURASSD_RETURN_IF_ERROR(FindLeafRead(io, start, &leaf));
  bool exact = false;
  uint16_t slot = LowerBound(*leaf, /*leaf=*/true, start, &exact);
  while (out->size() < limit) {
    if (slot >= leaf->nslots()) {
      const PageId next = leaf->header()->aux1;
      if (next == kInvalidPageId) break;
      leaf.Release();  // Before fixing `next`: pins decide evictability.
      StatusOr<PageRef> next_or = pool_->Fix(io, next, /*create=*/false);
      if (!next_or.ok()) return next_or.status();
      leaf = std::move(*next_or);
      slot = 0;
      continue;
    }
    const Slice cell = leaf->CellAt(slot);
    out->emplace_back(LeafKey(cell).ToString(), LeafValue(cell).ToString());
    slot++;
  }
  return Status::OK();
}

Status BTree::CountRange(IoContext& io, Slice start, Slice end, size_t cap,
                         uint64_t* count) {
  *count = 0;
  PageRef leaf;
  DURASSD_RETURN_IF_ERROR(FindLeafRead(io, start, &leaf));
  bool exact = false;
  uint16_t slot = LowerBound(*leaf, /*leaf=*/true, start, &exact);
  while (*count < cap) {
    if (slot >= leaf->nslots()) {
      const PageId next = leaf->header()->aux1;
      if (next == kInvalidPageId) break;
      leaf.Release();
      StatusOr<PageRef> next_or = pool_->Fix(io, next, /*create=*/false);
      if (!next_or.ok()) return next_or.status();
      leaf = std::move(*next_or);
      slot = 0;
      continue;
    }
    const Slice cell = leaf->CellAt(slot);
    if (!end.empty() && LeafKey(cell).compare(end) >= 0) break;
    (*count)++;
    slot++;
  }
  return Status::OK();
}

}  // namespace durassd
