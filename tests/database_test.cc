#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "db/database.h"
#include "db/page.h"
#include "host/sim_file.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

/// Harness owning a device + file systems + database, with crash/reopen.
class DbHarness {
 public:
  struct Config {
    bool durable_cache = true;
    bool write_barriers = true;
    bool double_write = true;
    uint32_t page_size = 4 * kKiB;
  };

  explicit DbHarness(Config cfg) : cfg_(cfg) {
    SsdConfig dc = cfg.durable_cache ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
    dc.geometry = FlashGeometry::Tiny();
    dc.geometry.blocks_per_plane = 192;
    dc.geometry.pages_per_block = 32;   // ~192 MiB raw.
    dc.write_buffer_sectors = 256;
    dc.cache_capacity_sectors = 1024;
    dc.capacitor_budget_bytes = 16 * kMiB;
    device_ = std::make_unique<SsdDevice>(dc);
    SimFileSystem::Options fso;
    fso.write_barriers = cfg.write_barriers;
    fs_ = std::make_unique<SimFileSystem>(device_.get(), fso);
  }

  Status OpenDb() {
    Database::Options o;
    o.page_size = cfg_.page_size;
    o.pool_bytes = 2 * kMiB;
    o.double_write = cfg_.double_write;
    o.checkpoint_log_bytes = 8 * kMiB;
    auto db = Database::Open(io_, fs_.get(), fs_.get(), o);
    if (!db.ok()) return db.status();
    db_ = std::move(*db);
    return Status::OK();
  }

  /// Host crash + device power failure at the current virtual time, then
  /// device reboot. The database object (host RAM) is destroyed.
  void Crash() {
    db_.reset();
    device_->PowerCut(io_.now);
    device_->PowerOn();
    io_.now = 0;
  }

  Database* db() { return db_.get(); }
  IoContext& io() { return io_; }
  SimFileSystem* fs() { return fs_.get(); }

  // Convenience single-op transactions.
  Status PutTxn(uint32_t tree, const std::string& k, const std::string& v) {
    auto txn = db_->Begin(io_);
    if (!txn.ok()) return txn.status();
    Status s = db_->Put(io_, *txn, tree, k, v);
    if (!s.ok()) return s;
    return db_->Commit(io_, *txn);
  }

 private:
  Config cfg_;
  IoContext io_;
  std::unique_ptr<SsdDevice> device_;
  std::unique_ptr<SimFileSystem> fs_;
  std::unique_ptr<Database> db_;
};

// ---------------------------------------------------------------------------
// Basic engine behaviour
// ---------------------------------------------------------------------------

TEST(DatabaseTest, CreatePutGetCommit) {
  DbHarness h({});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(h.PutTxn(*tree, "alpha", "1").ok());

  std::string v;
  ASSERT_TRUE(h.db()->Get(h.io(), *tree, "alpha", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_EQ(h.db()->stats().txns_committed, 1u);
}

TEST(DatabaseTest, GetTreeIdByName) {
  DbHarness h({});
  ASSERT_TRUE(h.OpenDb().ok());
  auto t1 = h.db()->CreateTree(h.io(), "nodes");
  auto t2 = h.db()->CreateTree(h.io(), "links");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*h.db()->GetTreeId("nodes"), *t1);
  EXPECT_EQ(*h.db()->GetTreeId("links"), *t2);
  EXPECT_TRUE(h.db()->GetTreeId("absent").status().IsNotFound());
  EXPECT_FALSE(h.db()->CreateTree(h.io(), "nodes").ok());  // Duplicate.
}

TEST(DatabaseTest, MultiOpTransactionAtomicViaAbort) {
  DbHarness h({});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  ASSERT_TRUE(h.PutTxn(*tree, "stable", "before").ok());

  auto txn = h.db()->Begin(h.io());
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(h.db()->Put(h.io(), *txn, *tree, "stable", "changed").ok());
  ASSERT_TRUE(h.db()->Put(h.io(), *txn, *tree, "fresh", "x").ok());
  ASSERT_TRUE(h.db()->Delete(h.io(), *txn, *tree, "stable").ok());
  ASSERT_TRUE(h.db()->Abort(h.io(), *txn).ok());

  std::string v;
  ASSERT_TRUE(h.db()->Get(h.io(), *tree, "stable", &v).ok());
  EXPECT_EQ(v, "before");
  EXPECT_TRUE(h.db()->Get(h.io(), *tree, "fresh", &v).IsNotFound());
}

TEST(DatabaseTest, SingleActiveTransactionEnforced) {
  DbHarness h({});
  ASSERT_TRUE(h.OpenDb().ok());
  auto t1 = h.db()->Begin(h.io());
  ASSERT_TRUE(t1.ok());
  EXPECT_FALSE(h.db()->Begin(h.io()).ok());
  ASSERT_TRUE(h.db()->Commit(h.io(), *t1).ok());
  EXPECT_TRUE(h.db()->Begin(h.io()).ok());
}

TEST(DatabaseTest, ScanAndCount) {
  DbHarness h({});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  for (int i = 0; i < 50; ++i) {
    char key[8];
    snprintf(key, sizeof(key), "%03d", i);
    ASSERT_TRUE(h.PutTxn(*tree, key, "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(h.db()->Scan(h.io(), *tree, "010", 5, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].first, "010");
  uint64_t n = 0;
  ASSERT_TRUE(h.db()->CountRange(h.io(), *tree, "000", "025", 1000, &n).ok());
  EXPECT_EQ(n, 25u);
}

TEST(DatabaseTest, EvictionUnderTinyPoolStillCorrect) {
  DbHarness h({});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  const std::string value(200, 'x');
  const int n = 12000;  // ~2.5 MiB of rows: exceeds the 2 MiB pool.
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(h.PutTxn(*tree, "key" + std::to_string(i), value).ok());
  }
  EXPECT_GT(h.db()->pool_stats().evictions, 0u);
  for (int i = 0; i < n; i += 131) {
    std::string v;
    ASSERT_TRUE(h.db()->Get(h.io(), *tree, "key" + std::to_string(i), &v).ok())
        << i;
    EXPECT_EQ(v, value);
  }
  EXPECT_GT(h.db()->pool_stats().misses, 0u);
}

TEST(DatabaseTest, CheckpointAndReopenCleanly) {
  DbHarness h({});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.PutTxn(*tree, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(h.db()->Checkpoint(h.io()).ok());
  h.Crash();  // Even a crash right after checkpoint must be clean.
  ASSERT_TRUE(h.OpenDb().ok());
  auto tid = h.db()->GetTreeId("t");
  ASSERT_TRUE(tid.ok());
  for (int i = 0; i < 100; ++i) {
    std::string v;
    ASSERT_TRUE(h.db()->Get(h.io(), *tid, "k" + std::to_string(i), &v).ok());
  }
}

// ---------------------------------------------------------------------------
// Crash recovery: committed data must survive (durable configurations)
// ---------------------------------------------------------------------------

// gtest has no printer for this struct, so each case is named by its raw
// bytes. `reserved` fills what would otherwise be an uninitialized padding
// byte, which made those names differ from one process to the next.
struct CrashParam {
  CrashParam(bool durable, bool barriers, bool dwb, uint32_t page)
      : durable_cache(durable),
        write_barriers(barriers),
        double_write(dwb),
        page_size(page) {}

  bool durable_cache;
  bool write_barriers;
  bool double_write;
  uint8_t reserved = 0;
  uint32_t page_size;
};
static_assert(sizeof(CrashParam) == 8, "case names print all 8 bytes");

class CrashRecoveryTest : public ::testing::TestWithParam<CrashParam> {};

// The configurations in which the stack promises durability: either the
// device has a durable cache (DuraSSD — barriers may be off!) or barriers
// are on so fsync reaches stable media.
INSTANTIATE_TEST_SUITE_P(
    DurableConfigs, CrashRecoveryTest,
    ::testing::Values(
        CrashParam{true, true, true, 4096},    // DuraSSD, default MySQL.
        CrashParam{true, true, false, 4096},   // DuraSSD, no double-write.
        CrashParam{true, false, true, 4096},   // DuraSSD, nobarrier.
        CrashParam{true, false, false, 4096},  // DuraSSD OFF/OFF (the paper's
                                               // headline config).
        CrashParam{true, false, false, 8192},
        CrashParam{true, false, false, 16384},
        CrashParam{false, true, true, 4096}));  // Volatile SSD, barriers+dwb.

TEST_P(CrashRecoveryTest, CommittedTransactionsSurviveCrash) {
  const CrashParam p = GetParam();
  DbHarness h({p.durable_cache, p.write_barriers, p.double_write,
               p.page_size});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  ASSERT_TRUE(tree.ok());

  std::map<std::string, std::string> committed;
  Random rng(42);
  for (int i = 0; i < 400; ++i) {
    const std::string k = "key" + std::to_string(rng.Uniform(200));
    const std::string v = "val" + std::to_string(i);
    ASSERT_TRUE(h.PutTxn(*tree, k, v).ok());
    committed[k] = v;
  }

  h.Crash();
  ASSERT_TRUE(h.OpenDb().ok()) << "recovery failed";
  auto tid = h.db()->GetTreeId("t");
  ASSERT_TRUE(tid.ok());
  for (const auto& [k, v] : committed) {
    std::string got;
    ASSERT_TRUE(h.db()->Get(h.io(), *tid, k, &got).ok()) << k;
    EXPECT_EQ(got, v) << k;
  }
}

TEST_P(CrashRecoveryTest, LoserTransactionRolledBack) {
  const CrashParam p = GetParam();
  DbHarness h({p.durable_cache, p.write_barriers, p.double_write,
               p.page_size});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  ASSERT_TRUE(h.PutTxn(*tree, "acct", "100").ok());

  // Uncommitted multi-op transaction in flight at the crash.
  auto txn = h.db()->Begin(h.io());
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(h.db()->Put(h.io(), *txn, *tree, "acct", "0").ok());
  ASSERT_TRUE(h.db()->Put(h.io(), *txn, *tree, "loser", "x").ok());

  h.Crash();
  ASSERT_TRUE(h.OpenDb().ok());
  auto tid = h.db()->GetTreeId("t");
  std::string v;
  ASSERT_TRUE(h.db()->Get(h.io(), *tid, "acct", &v).ok());
  EXPECT_EQ(v, "100");  // Atomicity: the uncommitted update vanished.
  EXPECT_TRUE(h.db()->Get(h.io(), *tid, "loser", &v).IsNotFound());
}

TEST_P(CrashRecoveryTest, RepeatedCrashesConverge) {
  const CrashParam p = GetParam();
  DbHarness h({p.durable_cache, p.write_barriers, p.double_write,
               p.page_size});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  ASSERT_TRUE(tree.ok());
  std::map<std::string, std::string> committed;

  for (int round = 0; round < 5; ++round) {
    auto tid = h.db()->GetTreeId("t");
    ASSERT_TRUE(tid.ok());
    for (int i = 0; i < 60; ++i) {
      const std::string k = "r" + std::to_string(round) + "k" +
                            std::to_string(i % 20);
      const std::string v = "v" + std::to_string(round * 100 + i);
      ASSERT_TRUE(h.PutTxn(*tid, k, v).ok());
      committed[k] = v;
    }
    h.Crash();
    ASSERT_TRUE(h.OpenDb().ok()) << "round " << round;
  }

  auto tid = h.db()->GetTreeId("t");
  for (const auto& [k, v] : committed) {
    std::string got;
    ASSERT_TRUE(h.db()->Get(h.io(), *tid, k, &got).ok()) << k;
    EXPECT_EQ(got, v) << k;
  }
}

// ---------------------------------------------------------------------------
// The paper's negative results: what goes wrong WITHOUT a durable cache
// ---------------------------------------------------------------------------

TEST(CrashSemanticsTest, VolatileNoBarrierLosesCommittedData) {
  // Barriers off on a volatile-cache SSD: fsync never flushes, so committed
  // transactions can evaporate — the reason OFF/OFF is unsafe without
  // DuraSSD (Sec. 2.2).
  DbHarness h({/*durable_cache=*/false, /*write_barriers=*/false,
               /*double_write=*/true, 4096});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(h.PutTxn(*tree, "k" + std::to_string(i), "v").ok());
  }
  h.Crash();

  // Recovery may succeed (an empty-looking database) or fail; either way,
  // committed data must be missing — that is the data-loss anomaly.
  bool lost = false;
  if (h.OpenDb().ok()) {
    auto tid = h.db()->GetTreeId("t");
    if (!tid.ok()) {
      lost = true;
    } else {
      for (int i = 0; i < 50 && !lost; ++i) {
        std::string v;
        if (!h.db()->Get(h.io(), *tid, "k" + std::to_string(i), &v).ok()) {
          lost = true;
        }
      }
    }
  } else {
    lost = true;
  }
  EXPECT_TRUE(lost);
}

TEST(CrashSemanticsTest, DuraSsdNoBarrierKeepsCommittedData) {
  // The same nobarrier configuration on DuraSSD is safe — the paper's core
  // claim (Sec. 2.2).
  DbHarness h({/*durable_cache=*/true, /*write_barriers=*/false,
               /*double_write=*/false, 4096});
  ASSERT_TRUE(h.OpenDb().ok());
  auto tree = h.db()->CreateTree(h.io(), "t");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(h.PutTxn(*tree, "k" + std::to_string(i), "v").ok());
  }
  h.Crash();
  ASSERT_TRUE(h.OpenDb().ok());
  auto tid = h.db()->GetTreeId("t");
  ASSERT_TRUE(tid.ok());
  for (int i = 0; i < 50; ++i) {
    std::string v;
    EXPECT_TRUE(h.db()->Get(h.io(), *tid, "k" + std::to_string(i), &v).ok())
        << i;
  }
}

// ---------------------------------------------------------------------------
// Decoding untrusted bytes
// ---------------------------------------------------------------------------

/// 300 one-put transactions of 100-byte values with a checkpoint after the
/// 151st, then a crash: recovery reads the meta record and replays the
/// frames the log took after the checkpoint, whose leaf splits allocate
/// pages.
void BuildCheckpointedDb(DbHarness* h) {
  ASSERT_TRUE(h->OpenDb().ok());
  auto tree = h->db()->CreateTree(h->io(), "t");
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        h->PutTxn(*tree, "k" + std::to_string(i), std::string(100, 'v')).ok());
    if (i == 150) {
      ASSERT_TRUE(h->db()->Checkpoint(h->io()).ok());
    }
  }
  h->Crash();
}

/// Flips one to three distinct bits of `bytes[0, len)`.
void FlipBits(Random* rng, char* bytes, size_t len) {
  const uint64_t flips = 1 + rng->Uniform(3);
  std::vector<uint64_t> bits;
  while (bits.size() < flips) {
    const uint64_t b = rng->Uniform(len * 8);
    if (std::find(bits.begin(), bits.end(), b) == bits.end()) {
      bits.push_back(b);
    }
  }
  for (const uint64_t b : bits) {
    bytes[b / 8] = static_cast<char>(bytes[b / 8] ^ (1 << (b % 8)));
  }
}

/// Damages the meta record (the blob behind the meta cell's length) and
/// reseals the page checksum.
void MutateMetaRecord(DbHarness* h, Random* rng) {
  SimFile* data = h->fs()->Open("data.db");
  std::string raw;
  ASSERT_TRUE(data->Read(h->io().now, 0, 4096, &raw).status.ok());
  Page meta(4096);
  meta.CopyFrom(raw);
  ASSERT_EQ(meta.type(), PageType::kMeta);
  const Slice cell = meta.CellAt(0);
  FlipBits(rng, meta.data() + (cell.data() - meta.data()) + 2,
           cell.size() - 2);
  meta.SealChecksum();
  ASSERT_TRUE(data->Write(h->io().now, 0, meta.AsSlice()).status.ok());
}

/// Damages the payload of one frame of the generation the checkpoint
/// started at LSN 0, and reseals the frame's CRC.
void MutateWalFrame(DbHarness* h, Random* rng) {
  SimFile* wal = h->fs()->Open("wal.log");
  std::string log;
  ASSERT_TRUE(wal->Read(h->io().now, 0, wal->size(), &log).status.ok());
  // Frame: [len u32][gen u32][crc u32][payload].
  ASSERT_GE(log.size(), 12u);
  const uint32_t gen = DecodeFixed32(log.data() + 4);
  std::vector<size_t> frames;
  for (size_t pos = 0; pos + 12 <= log.size();) {
    const uint32_t len = DecodeFixed32(log.data() + pos);
    if (len == 0 || DecodeFixed32(log.data() + pos + 4) != gen ||
        pos + 12 + len > log.size()) {
      break;
    }
    frames.push_back(pos);
    pos += 12 + len;
  }
  ASSERT_FALSE(frames.empty());
  const size_t f = frames[rng->Uniform(frames.size())];
  const uint32_t len = DecodeFixed32(log.data() + f);
  FlipBits(rng, log.data() + f + 12, len);
  EncodeFixed32(log.data() + f + 8, Crc32c(log.data() + f + 12, len));
  ASSERT_TRUE(wal->Write(h->io().now, 0, log).status.ok());
}

/// Damages the slot array or the cells' length prefixes of one page that
/// holds cells (the meta page or a B-tree page), then reseals its checksum.
void MutatePageLayout(DbHarness* h, Random* rng) {
  SimFile* data = h->fs()->Open("data.db");
  std::vector<Page> pages;
  for (uint64_t off = 0; off + 4096 <= data->size(); off += 4096) {
    std::string raw;
    ASSERT_TRUE(data->Read(h->io().now, off, 4096, &raw).status.ok());
    Page page(4096);
    page.CopyFrom(raw);
    if (page.header()->magic == Page::kMagic && page.nslots() > 0) {
      pages.push_back(std::move(page));
    }
  }
  ASSERT_FALSE(pages.empty());
  Page& page = pages[rng->Uniform(pages.size())];
  std::vector<size_t> bytes;
  for (uint16_t i = 0; i < page.nslots(); ++i) {
    const size_t slot = Page::kHeaderSize + 2 * static_cast<size_t>(i);
    const size_t cell = page.CellAt(i).data() - page.data();
    bytes.insert(bytes.end(), {slot, slot + 1, cell, cell + 1});
  }
  const uint64_t flips = 1 + rng->Uniform(3);
  std::vector<uint64_t> bits;
  while (bits.size() < flips) {
    const uint64_t b = rng->Uniform(bytes.size() * 8);
    if (std::find(bits.begin(), bits.end(), b) == bits.end()) {
      bits.push_back(b);
    }
  }
  for (const uint64_t b : bits) {
    char& byte = page.data()[bytes[b / 8]];
    byte = static_cast<char>(byte ^ (1 << (b % 8)));
  }
  page.SealChecksum();
  ASSERT_TRUE(data->Write(h->io().now, page.page_id() * 4096, page.AsSlice())
                  .status.ok());
}

/// Damages the key and value length fields of one cell of one B-tree page
/// (leaf: key and value lengths; internal: key length), then reseals the
/// page checksum.
void MutateCellBody(DbHarness* h, Random* rng) {
  SimFile* data = h->fs()->Open("data.db");
  std::vector<Page> pages;
  for (uint64_t off = 0; off + 4096 <= data->size(); off += 4096) {
    std::string raw;
    ASSERT_TRUE(data->Read(h->io().now, off, 4096, &raw).status.ok());
    Page page(4096);
    page.CopyFrom(raw);
    if (page.header()->magic == Page::kMagic && page.nslots() > 0 &&
        (page.type() == PageType::kBTreeLeaf ||
         page.type() == PageType::kBTreeInternal)) {
      pages.push_back(std::move(page));
    }
  }
  ASSERT_FALSE(pages.empty());
  Page& page = pages[rng->Uniform(pages.size())];
  const Slice cell = page.CellAt(
      static_cast<uint16_t>(rng->Uniform(page.nslots())));
  const size_t length_bytes = page.type() == PageType::kBTreeLeaf ? 4 : 2;
  FlipBits(rng, page.data() + (cell.data() - page.data()) + 2, length_bytes);
  page.SealChecksum();
  ASSERT_TRUE(data->Write(h->io().now, page.page_id() * 4096, page.AsSlice())
                  .status.ok());
}

TEST(DatabaseTest, MutatedMetaRecordOrWalFrameOpensOrReadsAsCorruption) {
  // Seeded damage under a valid checksum: one to three flipped bits in the
  // meta record, in one post-checkpoint WAL frame's payload, in the slot
  // array and cell length prefixes of one page, or in the key and value
  // lengths of one B-tree cell. Recovery must open the database or return
  // Corruption. Anything else means a decoder trusted its input, such as
  // replay allocating a page past the end of the device (OutOfSpace), a
  // split formatting a page still in use, even the one it splits, or a
  // slot or key pointing past the page (a crash).
  enum class Input { kMetaRecord, kWalFrame, kPageLayout, kCellBody };
  for (const Input input : {Input::kMetaRecord, Input::kWalFrame,
                            Input::kPageLayout, Input::kCellBody}) {
    for (uint64_t seed = 1; seed <= 300; ++seed) {
      const char* name = input == Input::kMetaRecord   ? "meta record"
                         : input == Input::kWalFrame   ? "wal frame"
                         : input == Input::kPageLayout ? "page layout"
                                                       : "cell body";
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      Random rng(seed);
      DbHarness h({/*durable_cache=*/true, /*write_barriers=*/false,
                   /*double_write=*/true, 4096});
      ASSERT_NO_FATAL_FAILURE(BuildCheckpointedDb(&h));
      switch (input) {
        case Input::kMetaRecord:
          ASSERT_NO_FATAL_FAILURE(MutateMetaRecord(&h, &rng));
          break;
        case Input::kWalFrame:
          ASSERT_NO_FATAL_FAILURE(MutateWalFrame(&h, &rng));
          break;
        case Input::kPageLayout:
          ASSERT_NO_FATAL_FAILURE(MutatePageLayout(&h, &rng));
          break;
        case Input::kCellBody:
          ASSERT_NO_FATAL_FAILURE(MutateCellBody(&h, &rng));
          break;
      }
      const Status s = h.OpenDb();
      EXPECT_TRUE(s.ok() || s.IsCorruption()) << s.ToString();
    }
  }
  // Pinned: the meta page's slot 0 points far past the page.
  DbHarness h({/*durable_cache=*/true, /*write_barriers=*/false,
               /*double_write=*/true, 4096});
  ASSERT_NO_FATAL_FAILURE(BuildCheckpointedDb(&h));
  SimFile* data = h.fs()->Open("data.db");
  std::string raw;
  ASSERT_TRUE(data->Read(h.io().now, 0, 4096, &raw).status.ok());
  Page meta(4096);
  meta.CopyFrom(raw);
  const uint16_t far = 0xF000;
  std::memcpy(meta.data() + Page::kHeaderSize, &far, 2);
  meta.SealChecksum();
  ASSERT_TRUE(data->Write(h.io().now, 0, meta.AsSlice()).status.ok());
  const Status s = h.OpenDb();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

}  // namespace
}  // namespace durassd
