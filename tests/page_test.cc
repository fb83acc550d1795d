#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "db/page.h"

namespace durassd {
namespace {

std::string MakeCell(const std::string& body) {
  std::string cell;
  const uint16_t len = static_cast<uint16_t>(2 + body.size());
  cell.append(reinterpret_cast<const char*>(&len), 2);
  cell.append(body);
  return cell;
}

std::string CellBody(Slice cell) {
  return std::string(cell.data() + 2, cell.size() - 2);
}

TEST(PageTest, FormatInitializesHeader) {
  Page page(4096);
  page.Format(42, PageType::kBTreeLeaf);
  EXPECT_EQ(page.header()->magic, Page::kMagic);
  EXPECT_EQ(page.page_id(), 42u);
  EXPECT_EQ(page.type(), PageType::kBTreeLeaf);
  EXPECT_EQ(page.nslots(), 0u);
  EXPECT_EQ(page.header()->aux1, kInvalidPageId);
}

TEST(PageTest, InsertAndReadCells) {
  Page page(4096);
  page.Format(1, PageType::kBTreeLeaf);
  ASSERT_TRUE(page.InsertCell(0, MakeCell("bbb")));
  ASSERT_TRUE(page.InsertCell(0, MakeCell("aaa")));
  ASSERT_TRUE(page.InsertCell(2, MakeCell("ccc")));
  ASSERT_EQ(page.nslots(), 3u);
  EXPECT_EQ(CellBody(page.CellAt(0)), "aaa");
  EXPECT_EQ(CellBody(page.CellAt(1)), "bbb");
  EXPECT_EQ(CellBody(page.CellAt(2)), "ccc");
}

TEST(PageTest, RemoveCellShiftsSlots) {
  Page page(4096);
  page.Format(1, PageType::kBTreeLeaf);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(page.InsertCell(i, MakeCell(std::string(1, 'a' + i))));
  }
  page.RemoveCell(1);  // Remove "b".
  ASSERT_EQ(page.nslots(), 4u);
  EXPECT_EQ(CellBody(page.CellAt(0)), "a");
  EXPECT_EQ(CellBody(page.CellAt(1)), "c");
  EXPECT_EQ(CellBody(page.CellAt(3)), "e");
}

TEST(PageTest, InsertFailsWhenFull) {
  Page page(4096);
  page.Format(1, PageType::kBTreeLeaf);
  const std::string big(500, 'x');
  int inserted = 0;
  while (page.InsertCell(0, MakeCell(big))) inserted++;
  EXPECT_GT(inserted, 5);
  EXPECT_LT(inserted, 10);
  // Free space is honestly reported.
  EXPECT_LT(page.FreeSpace(), 504u);
}

TEST(PageTest, CompactReclaimsRemovedCells) {
  Page page(4096);
  page.Format(1, PageType::kBTreeLeaf);
  const std::string big(500, 'x');
  std::vector<int> slots;
  while (page.InsertCell(0, MakeCell(big))) {
  }
  const uint16_t n = page.nslots();
  // Remove every other cell, then a same-size insert must succeed again
  // (possibly via internal compaction).
  for (uint16_t i = n; i-- > 0;) {
    if (i % 2 == 0) page.RemoveCell(i);
  }
  EXPECT_TRUE(page.InsertCell(0, MakeCell(big)));
  EXPECT_EQ(CellBody(page.CellAt(0)), big);
}

TEST(PageTest, ReplaceCellSameSizeInPlace) {
  Page page(4096);
  page.Format(1, PageType::kBTreeLeaf);
  ASSERT_TRUE(page.InsertCell(0, MakeCell("old")));
  ASSERT_TRUE(page.ReplaceCell(0, MakeCell("new")));
  EXPECT_EQ(CellBody(page.CellAt(0)), "new");
  EXPECT_EQ(page.nslots(), 1u);
}

TEST(PageTest, ReplaceCellGrows) {
  Page page(4096);
  page.Format(1, PageType::kBTreeLeaf);
  ASSERT_TRUE(page.InsertCell(0, MakeCell("a")));
  ASSERT_TRUE(page.InsertCell(1, MakeCell("z")));
  ASSERT_TRUE(page.ReplaceCell(0, MakeCell(std::string(100, 'A'))));
  EXPECT_EQ(CellBody(page.CellAt(0)), std::string(100, 'A'));
  EXPECT_EQ(CellBody(page.CellAt(1)), "z");
}

TEST(PageTest, ChecksumRoundTrip) {
  Page page(4096);
  page.Format(7, PageType::kBTreeLeaf);
  ASSERT_TRUE(page.InsertCell(0, MakeCell("payload")));
  page.SealChecksum();
  EXPECT_TRUE(page.VerifyChecksum());
}

TEST(PageTest, ChecksumDetectsTornWrite) {
  Page page(4096);
  page.Format(7, PageType::kBTreeLeaf);
  ASSERT_TRUE(page.InsertCell(0, MakeCell("payload")));
  page.SealChecksum();

  // Simulate a shorn write: tail of the page replaced by zeros.
  std::string raw(page.data(), page.size());
  for (size_t i = raw.size() / 2; i < raw.size(); ++i) raw[i] = '\0';
  Page torn(4096);
  torn.CopyFrom(raw);
  EXPECT_FALSE(torn.VerifyChecksum());
}

TEST(PageTest, ChecksumDetectsSingleBitRot) {
  Page page(4096);
  page.Format(7, PageType::kMeta);
  page.SealChecksum();
  std::string raw(page.data(), page.size());
  raw[2000] ^= 0x40;
  Page rotten(4096);
  rotten.CopyFrom(raw);
  EXPECT_FALSE(rotten.VerifyChecksum());
}

TEST(PageTest, LayoutCheckBoundsBTreeCellBodies) {
  // [len u16][klen u16][vlen u16][key][value] on a leaf, [len u16][klen u16]
  // [child u64][key] on an internal page: the lengths must fit the cell.
  const auto cell = [](uint16_t klen, uint16_t vlen, size_t body) {
    std::string c(2, '\0');
    c.append(reinterpret_cast<const char*>(&klen), 2);
    c.append(reinterpret_cast<const char*>(&vlen), 2);
    c.append(body, 'x');
    const uint16_t len = static_cast<uint16_t>(c.size());
    std::memcpy(c.data(), &len, 2);
    return c;
  };
  const auto verifies = [](PageType type, const std::string& c) {
    Page page(4096);
    page.Format(1, type);
    EXPECT_TRUE(page.InsertCell(0, c));
    return page.VerifyLayout();
  };
  EXPECT_TRUE(verifies(PageType::kBTreeLeaf, cell(3, 5, 8)));
  EXPECT_FALSE(verifies(PageType::kBTreeLeaf, cell(3, 6, 8)));
  EXPECT_FALSE(verifies(PageType::kBTreeLeaf, cell(0xFFFF, 0, 8)));
  EXPECT_FALSE(verifies(PageType::kBTreeLeaf, std::string("\4\0\0\0", 4)));
  // Internal: klen 4 leaves room for the 8-byte child; klen 5 does not.
  EXPECT_TRUE(verifies(PageType::kBTreeInternal, cell(4, 0, 10)));
  EXPECT_FALSE(verifies(PageType::kBTreeInternal, cell(5, 0, 10)));
  // Pages of other types carry no B-tree cells to check.
  EXPECT_TRUE(verifies(PageType::kMeta, cell(0xFFFF, 0, 8)));
}

TEST(PageTest, SupportsAllConfiguredSizes) {
  for (uint32_t size : {4096u, 8192u, 16384u}) {
    Page page(size);
    page.Format(1, PageType::kBTreeLeaf);
    int inserted = 0;
    while (page.InsertCell(0, MakeCell(std::string(100, 'k')))) inserted++;
    // Capacity scales roughly with page size.
    EXPECT_GT(inserted, static_cast<int>(size / 128));
    page.SealChecksum();
    EXPECT_TRUE(page.VerifyChecksum());
  }
}

}  // namespace
}  // namespace durassd
