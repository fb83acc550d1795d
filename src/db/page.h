#ifndef DURASSD_DB_PAGE_H_
#define DURASSD_DB_PAGE_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/types.h"

namespace durassd {

enum class PageType : uint16_t {
  kFree = 0,
  kMeta = 1,
  kBTreeInternal = 2,
  kBTreeLeaf = 3,
  kOverflow = 4,
};

/// A fixed-size database page (4/8/16 KB) with a checksummed header and a
/// slotted-cell body. Layout:
///
///   [PageHeader][slot offsets: u16 x nslots][... free ...][cells grow down]
///
/// The CRC covers everything except the checksum field itself, which is how
/// torn writes (partial page writes) are detected after a crash — the exact
/// mechanism InnoDB relies on and DuraSSD makes unnecessary.
class Page {
 public:
  static constexpr uint32_t kMagic = 0x4D425047;  // "MBPG"
  struct Header {
    uint32_t magic;
    uint32_t checksum;
    uint64_t page_id;
    uint64_t lsn;
    uint16_t type;
    uint16_t nslots;
    uint32_t cell_start;  ///< Lowest byte used by cells.
    uint32_t garbage;     ///< Bytes freed by removed cells (until Compact).
    uint64_t aux1;        ///< Leaf: next-leaf page id. Meta: next free page.
    uint64_t aux2;        ///< Leaf: unused. Meta: catalog length.
  };
  static constexpr uint32_t kHeaderSize = sizeof(Header);
  /// Fixed bytes before the key in a B-tree cell, the one definition
  /// BTree's encoders and VerifyLayout share. Leaf: [len u16][klen u16]
  /// [vlen u16][key][value]. Internal: [len u16][klen u16][child u64][key].
  static constexpr uint32_t kLeafCellHeaderSize = 6;
  static constexpr uint32_t kInternalCellHeaderSize = 12;

  explicit Page(uint32_t size) : data_(size, '\0') {}

  uint32_t size() const { return static_cast<uint32_t>(data_.size()); }
  char* data() { return data_.data(); }
  const char* data() const { return data_.data(); }
  Slice AsSlice() const { return Slice(data_.data(), data_.size()); }

  Header* header() { return reinterpret_cast<Header*>(data_.data()); }
  const Header* header() const {
    return reinterpret_cast<const Header*>(data_.data());
  }

  void Format(PageId id, PageType type);

  PageId page_id() const { return header()->page_id; }
  PageType type() const { return static_cast<PageType>(header()->type); }
  Lsn lsn() const { return header()->lsn; }
  void set_lsn(Lsn lsn) { header()->lsn = lsn; }

  // --- Slotted cells ---
  uint16_t nslots() const { return header()->nslots; }
  uint32_t FreeSpace() const;
  /// Inserts a cell at slot index (shifting later slots). False if full.
  bool InsertCell(uint16_t index, Slice cell);
  void RemoveCell(uint16_t index);
  Slice CellAt(uint16_t index) const;
  /// Replaces a cell in place if possible, else remove+insert. False if the
  /// replacement does not fit even after compaction.
  bool ReplaceCell(uint16_t index, Slice cell);
  /// Rewrites the page moving all cells to the end (defragmentation).
  void Compact();

  // --- Integrity ---
  /// Computes and stores the checksum; call just before writing to storage.
  void SealChecksum();
  /// True iff the stored checksum matches the contents.
  bool VerifyChecksum() const;
  /// True iff the slot array and every cell lie inside the page: header +
  /// 2 * nslots <= cell_start <= size, each slot offset in [cell_start,
  /// size - 2], each cell at least 2 bytes long and ending inside the page,
  /// and on B-tree pages each cell's header plus its key (and value) length
  /// fitting the cell. Checked once when a page is loaded from media, so
  /// CellAt and BTree's cell accessors can trust the layout.
  bool VerifyLayout() const;

  void CopyFrom(Slice raw);

 private:
  uint16_t* slot_array() {
    return reinterpret_cast<uint16_t*>(data_.data() + kHeaderSize);
  }
  const uint16_t* slot_array() const {
    return reinterpret_cast<const uint16_t*>(data_.data() + kHeaderSize);
  }

  std::string data_;
};

}  // namespace durassd

#endif  // DURASSD_DB_PAGE_H_
