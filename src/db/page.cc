#include "db/page.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "common/crc32c.h"

namespace durassd {

void Page::Format(PageId id, PageType type) {
  memset(data_.data(), 0, data_.size());
  Header* h = header();
  h->magic = kMagic;
  h->page_id = id;
  h->type = static_cast<uint16_t>(type);
  h->nslots = 0;
  h->cell_start = size();
  h->lsn = 0;
  h->aux1 = kInvalidPageId;
  h->aux2 = 0;
}

uint32_t Page::FreeSpace() const {
  const uint32_t slots_end =
      kHeaderSize + static_cast<uint32_t>(header()->nslots) * 2;
  if (header()->cell_start < slots_end) return header()->garbage;
  return header()->cell_start - slots_end + header()->garbage;
}

bool Page::InsertCell(uint16_t index, Slice cell) {
  Header* h = header();
  assert(index <= h->nslots);
  if (FreeSpace() < cell.size() + 2) return false;
  const uint32_t slots_end = kHeaderSize + h->nslots * 2u;
  // If contiguous space between slot array and cell area is short but total
  // free space suffices, compact first.
  if (h->cell_start - slots_end < cell.size() + 2) {
    Compact();
  }
  if (h->cell_start - (kHeaderSize + h->nslots * 2u) < cell.size() + 2) {
    return false;
  }
  h->cell_start -= static_cast<uint32_t>(cell.size());
  memcpy(data_.data() + h->cell_start, cell.data(), cell.size());
  uint16_t* slots = slot_array();
  for (uint16_t i = h->nslots; i > index; --i) slots[i] = slots[i - 1];
  slots[index] = static_cast<uint16_t>(h->cell_start);
  h->nslots++;
  return true;
}

void Page::RemoveCell(uint16_t index) {
  Header* h = header();
  assert(index < h->nslots);
  h->garbage += static_cast<uint32_t>(CellAt(index).size());
  uint16_t* slots = slot_array();
  for (uint16_t i = index; i + 1 < h->nslots; ++i) slots[i] = slots[i + 1];
  h->nslots--;
  // Cell bytes become garbage; reclaimed on Compact().
}

Slice Page::CellAt(uint16_t index) const {
  assert(index < header()->nslots);
  const uint16_t off = slot_array()[index];
  // Cells are self-describing: the first two bytes encode the total cell
  // length (written by the B-tree layer).
  uint16_t len;
  memcpy(&len, data_.data() + off, 2);
  return Slice(data_.data() + off, len);
}

bool Page::ReplaceCell(uint16_t index, Slice cell) {
  const Slice old = CellAt(index);
  if (cell.size() == old.size()) {
    memcpy(data_.data() + slot_array()[index], cell.data(), cell.size());
    return true;
  }
  RemoveCell(index);
  if (InsertCell(index, cell)) return true;
  return false;
}

void Page::Compact() {
  Header* h = header();
  std::vector<std::string> cells;
  cells.reserve(h->nslots);
  for (uint16_t i = 0; i < h->nslots; ++i) {
    cells.emplace_back(CellAt(i).ToString());
  }
  h->cell_start = size();
  h->garbage = 0;
  uint16_t* slots = slot_array();
  for (uint16_t i = 0; i < h->nslots; ++i) {
    h->cell_start -= static_cast<uint32_t>(cells[i].size());
    memcpy(data_.data() + h->cell_start, cells[i].data(), cells[i].size());
    slots[i] = static_cast<uint16_t>(h->cell_start);
  }
}

namespace {
// CRC over the page with the 4-byte checksum field (offset 4) replaced by
// zeros, computed without copying via seed chaining.
uint32_t PageCrc(const char* data, size_t size) {
  static const char kZeros[4] = {0, 0, 0, 0};
  uint32_t crc = Crc32c(data, 4);
  crc = Crc32c(kZeros, 4, crc);
  return Crc32c(data + 8, size - 8, crc);
}
}  // namespace

void Page::SealChecksum() {
  header()->checksum = PageCrc(data_.data(), data_.size());
}

bool Page::VerifyChecksum() const {
  return header()->checksum == PageCrc(data_.data(), data_.size());
}

namespace {
uint32_t GetU16At(const char* p) {
  uint16_t v = 0;
  memcpy(&v, p, 2);
  return v;
}

// Whether a `len`-byte cell on a page of `type` holds its B-tree header and
// the key and value lengths that header claims. Other cells have no body
// layout to check.
bool CellBodyFits(PageType type, const char* cell, uint32_t len) {
  switch (type) {
    case PageType::kBTreeLeaf:
      return len >= Page::kLeafCellHeaderSize &&
             Page::kLeafCellHeaderSize + GetU16At(cell + 2) +
                     GetU16At(cell + 4) <=
                 len;
    case PageType::kBTreeInternal:
      return len >= Page::kInternalCellHeaderSize &&
             Page::kInternalCellHeaderSize + GetU16At(cell + 2) <= len;
    default:
      return true;
  }
}
}  // namespace

bool Page::VerifyLayout() const {
  const uint32_t slots_end =
      kHeaderSize + static_cast<uint32_t>(header()->nslots) * 2;
  const uint32_t cell_start = header()->cell_start;
  if (slots_end > cell_start || cell_start > size()) return false;
  for (uint16_t i = 0; i < header()->nslots; ++i) {
    const uint32_t off = slot_array()[i];
    if (off < cell_start || off + 2 > size()) return false;
    const uint32_t len = GetU16At(data_.data() + off);
    if (len < 2 || off + len > size()) return false;
    if (!CellBodyFits(type(), data_.data() + off, len)) return false;
  }
  return true;
}

void Page::CopyFrom(Slice raw) {
  assert(raw.size() == data_.size());
  memcpy(data_.data(), raw.data(), raw.size());
}

}  // namespace durassd
