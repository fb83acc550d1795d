// A write-ahead log on a DuraSSD under power cuts: a 60-instant sweep
// asserting that (a) every commit acknowledged at the cut — its fsync
// returned — is recovered intact, and (b) the recovered durable prefix never
// runs ahead of a lost write: the recovered log is an exact prefix of the
// issued history, so no commit past a gap survives.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "db/io_context.h"
#include "db/wal.h"
#include "host/sim_file.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

constexpr uint64_t kCommits = 64;
constexpr uint32_t kGen = 1;  // A fresh Wal's generation.

WalRecord Put(TxnId txn, const std::string& key, const std::string& value) {
  WalRecord r;
  r.type = WalRecordType::kPut;
  r.txn = txn;
  r.tree = 1;
  r.key = key;
  r.value = value;
  return r;
}

/// Commit `i`'s records in log order: two puts and the commit record.
std::vector<WalRecord> CommitRecords(uint64_t i) {
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  commit.txn = i;
  return {Put(i, "key-" + std::to_string(i), "value-" + std::to_string(i)),
          Put(i, "key2-" + std::to_string(i), std::string(100, 'x')), commit};
}

/// A small durable-cache device (DuraSSD), with enough blocks for the file
/// system's journal area and one extent chunk.
std::unique_ptr<SsdDevice> MakeDevice() {
  SsdConfig cfg = SsdConfig::Tiny(/*durable=*/true);
  cfg.geometry.blocks_per_plane = 128;
  return std::make_unique<SsdDevice>(cfg);
}

struct AckedCommit {
  uint64_t txn;
  SimTime acked_at;  ///< Instant the commit's fsync returned.
};

/// Runs up to `max_commits` sequential commits on `fs`, stopping at the
/// first commit issued at or after `stop_issuing_at` (0 = run everything).
/// Fills `acked` in commit order.
void RunCommitHistory(SimFileSystem* fs, uint64_t max_commits,
                      SimTime stop_issuing_at,
                      std::vector<AckedCommit>* acked, SimTime* end) {
  Wal wal(fs->Open("wal"), Wal::Options{});
  acked->clear();
  IoContext io;
  for (uint64_t i = 1; i <= max_commits; ++i) {
    if (stop_issuing_at != 0 && io.now >= stop_issuing_at) break;
    for (const WalRecord& r : CommitRecords(i)) wal.Append(r);
    const Status s = wal.SyncTo(io, wal.next_lsn());
    ASSERT_TRUE(s.ok()) << s.ToString();
    acked->push_back({i, io.now});
  }
  *end = io.now;
}

/// Asserts `got` is exactly the first got.size() records of the log holding
/// commits 1, 2, ... in order; returns how many of them are complete.
uint64_t ExpectHistoryPrefix(const std::vector<WalRecord>& got) {
  uint64_t complete = 0;
  std::vector<WalRecord> want;
  for (size_t i = 0; i < got.size(); ++i) {
    if (i == want.size()) {
      const std::vector<WalRecord> next = CommitRecords(complete + 1);
      want.insert(want.end(), next.begin(), next.end());
    }
    EXPECT_EQ(got[i].type, want[i].type) << "record " << i;
    EXPECT_EQ(got[i].txn, want[i].txn) << "record " << i;
    EXPECT_EQ(got[i].key, want[i].key) << "record " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "record " << i;
    if (got[i].type == WalRecordType::kCommit) complete = got[i].txn;
  }
  return complete;
}

class StripedWalCutSweep : public ::testing::TestWithParam<int> {};

// 60 cut points spread across the run (fractions 1/61 .. 60/61, off-grid).
INSTANTIATE_TEST_SUITE_P(CutPoints, StripedWalCutSweep,
                         ::testing::Range(1, 61));

TEST_P(StripedWalCutSweep, AckedCommitsSurviveAndWatermarkNeverRunsAhead) {
  // Probe pass: learn the full run's duration.
  SimTime total = 0;
  {
    auto dev = MakeDevice();
    SimFileSystem fs(dev.get(), SimFileSystem::Options{});
    std::vector<AckedCommit> ignored;
    RunCommitHistory(&fs, kCommits, 0, &ignored, &total);
  }
  ASSERT_GT(total, 0);
  const SimTime cut = total * GetParam() / 61 + GetParam();  // Off-grid.

  // Real pass: same deterministic history, stop issuing at the cut.
  auto dev = MakeDevice();
  SimFileSystem fs(dev.get(), SimFileSystem::Options{});
  SimTime end = 0;
  std::vector<AckedCommit> acked;
  RunCommitHistory(&fs, kCommits, cut, &acked, &end);
  ASSERT_FALSE(acked.empty());

  // The last commit issued before the cut may have completed past it;
  // power can only be cut at the execution frontier.
  dev->PowerCut(std::max(cut, end));
  dev->PowerOn();

  // Recover on a fresh Wal over the surviving file.
  Wal recovered(fs.Open("wal"), Wal::Options{});
  IoContext rio;
  std::vector<WalRecord> records;
  Lsn resume = 0;
  ASSERT_TRUE(recovered.ReadFrom(rio, 0, kGen, &records, &resume).ok());

  // (b) The recovered log is an exact prefix of the issued history: the
  // watermark (last complete commit) covers no commit past a gap.
  const uint64_t watermark = ExpectHistoryPrefix(records);
  EXPECT_LE(watermark, acked.back().txn);

  // (a) Every commit acknowledged before the cut survived; its payload was
  // checked by the prefix comparison above.
  for (const AckedCommit& a : acked) {
    if (a.acked_at > cut) continue;
    EXPECT_LE(a.txn, watermark) << "acked commit " << a.txn
                                << " lost at cut " << cut;
  }

  // The recovered log accepts new commits, and a later reboot reads them
  // right after the recovered prefix.
  ASSERT_TRUE(recovered.TruncateTail(resume).ok());
  recovered.ResumeAt(resume, kGen);
  std::vector<WalRecord> more = CommitRecords(999);
  for (const WalRecord& r : more) recovered.Append(r);
  ASSERT_TRUE(recovered.SyncTo(rio, recovered.next_lsn()).ok());

  Wal again(fs.Open("wal"), Wal::Options{});
  IoContext rio2;
  std::vector<WalRecord> records2;
  ASSERT_TRUE(again.ReadFrom(rio2, 0, kGen, &records2).ok());
  ASSERT_EQ(records2.size(), records.size() + more.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records2[i].key, records[i].key) << "record " << i;
  }
  for (size_t i = 0; i < more.size(); ++i) {
    const WalRecord& r = records2[records.size() + i];
    EXPECT_EQ(r.type, more[i].type);
    EXPECT_EQ(r.txn, more[i].txn);
    EXPECT_EQ(r.key, more[i].key);
    EXPECT_EQ(r.value, more[i].value);
  }
}

}  // namespace
}  // namespace durassd
