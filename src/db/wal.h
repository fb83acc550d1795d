#ifndef DURASSD_DB_WAL_H_
#define DURASSD_DB_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "common/trace.h"
#include "db/io_context.h"
#include "host/durability_mode.h"
#include "host/sim_file.h"

namespace durassd {

/// Logical redo/undo record kinds. minibase logs logical operations with
/// before-images, replays them deterministically from a sharp checkpoint,
/// and undoes loser transactions at the end of recovery (ARIES-lite).
enum class WalRecordType : uint8_t {
  kBegin = 1,
  kPut = 2,      ///< {txn, tree, key, new_value, has_old, old_value}
  kDelete = 3,   ///< {txn, tree, key, has_old, old_value}
  kCommit = 4,
  kAbort = 5,    ///< Written after the in-memory rollback completed.
  kCreateTree = 6,  ///< {tree_id, name}
  kCheckpoint = 7,
  /// Sector filler appended by SyncTo so that a synced sector is never
  /// rewritten in place by a later append (see Wal::PadToBoundary).
  /// Skipped by ReadFrom; never surfaces in replay.
  kPad = 8,
};

struct WalRecord {
  WalRecordType type;
  TxnId txn = 0;
  uint32_t tree = 0;
  std::string key;
  std::string value;      ///< New value for kPut; name for kCreateTree.
  bool has_old = false;
  std::string old_value;  ///< Before-image for undo.
  Lsn lsn = kInvalidLsn;  ///< Filled by the reader.

  std::string Encode() const;
  static bool Decode(Slice payload, WalRecord* out);
};

/// Write-ahead log over a SimFile: an in-memory tail buffer, length+CRC
/// framing, byte-offset LSNs, and group flushing. Commit durability is
/// Append + Sync (fsync — which issues FLUSH CACHE only when the host has
/// write barriers on, the knob the paper's Fig. 5/Table 4/Table 5 sweep).
class Wal {
 public:
  struct Options {
    /// Owner's metrics registry; the WAL registers under the "wal."
    /// prefix. May be null (no metrics collected).
    MetricsRegistry* metrics = nullptr;
    /// How SyncTo makes commits durable. kBarrier replaces the fsync with a
    /// barrier submission: commit latency stops waiting on media, and the
    /// device's epoch ordering guarantees the log prefix property instead.
    /// The other two modes sync through fsync (their cost difference comes
    /// from the device + file-system configuration, not this code path).
    DurabilityMode durability_mode = DurabilityMode::kDurableOrderedNcq;
  };

  Wal(SimFile* file, Options options);

  /// Appends to the in-memory tail; returns the record's LSN.
  Lsn Append(const WalRecord& record);

  /// Writes the buffered tail to the log file (no fsync).
  Status WriteOut(IoContext& io);
  /// WriteOut + fsync: the commit path.
  Status SyncTo(IoContext& io, Lsn lsn);
  /// Ensures records up to `lsn` are at least written to the device (the
  /// WAL rule before flushing a data page whose page-LSN is `lsn`).
  Status EnsureWritten(IoContext& io, Lsn lsn);

  Lsn next_lsn() const { return next_lsn_; }
  Lsn written_lsn() const { return written_lsn_; }
  uint32_t generation() const { return generation_; }
  uint64_t bytes_since_checkpoint() const {
    return next_lsn_ - last_checkpoint_lsn_;
  }

  /// Reads every well-formed record of generation `gen` starting at `from`
  /// (stops at the first torn/invalid/foreign-generation frame — the
  /// durable prefix). kPad filler frames are consumed but not emitted.
  /// Scans the file itself, so it works on a freshly opened Wal after a
  /// crash. When `end_lsn` is non-null it receives the byte offset just
  /// past the last well-formed frame (pads included) — the position to
  /// ResumeAt; resuming before a trailing pad would rewrite its synced
  /// sector in place.
  Status ReadFrom(IoContext& io, Lsn from, uint32_t gen,
                  std::vector<WalRecord>* out, Lsn* end_lsn = nullptr);

  /// Logically truncates the log: subsequent appends start at `lsn` with a
  /// new generation, making any stale frames beyond unreadable. (Space
  /// handling: real systems recycle segment files — same I/O pattern.)
  void ResetTo(Lsn lsn, uint32_t gen);

  /// Positions the log for appending after recovery.
  void ResumeAt(Lsn lsn, uint32_t gen) {
    next_lsn_ = lsn;
    written_lsn_ = lsn;
    synced_lsn_ = lsn;
    generation_ = gen;
    tail_.clear();
  }

  /// Discards file bytes beyond `lsn` (the pre-crash torn tail). Without
  /// this, a complete stale frame stranded past the torn point can be
  /// resurrected after the next crash once fresh appends of the same
  /// generation close the byte gap in front of it. Metadata-only: no
  /// device I/O.
  Status TruncateTail(Lsn lsn);

  struct Stats {
    uint64_t appends = 0;
    uint64_t syncs = 0;
    uint64_t group_rides = 0;  ///< Commits that rode another commit's sync.
    uint64_t bytes_written = 0;
    uint64_t pad_bytes = 0;    ///< Sector-padding overhead (kPad frames).
    /// Group commit accounting: SyncTo callers whose durability resolved to
    /// the same device-sync completion instant form one group (rides of the
    /// pending window, plus syncs the file system / device coalesced into
    /// one FLUSH). `sync_groups` counts distinct groups; `max_group_commit`
    /// is the largest group observed.
    uint64_t sync_groups = 0;
    uint64_t max_group_commit = 0;
    uint64_t barrier_commits = 0;  ///< Commits made durable via a barrier
                                   ///< submission instead of an fsync wait.
  };
  const Stats& stats() const { return stats_; }

  /// Attaches (or detaches, with nullptr) an event tracer for WAL events.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  /// Tail padding (jbd2-style): appends a kPad frame filling the log to
  /// the next 4 KiB sector boundary (no-op when already aligned). SyncTo
  /// calls it before the fsync, so a sector covered by a sync is never
  /// rewritten in place by a later append. Without it, a later append does
  /// a read-modify-write of the synced tail sector; on a volatile-cache
  /// device that exposes torn writes, a power cut shearing that NAND
  /// program destroys previously fsynced commit records sharing the
  /// sector.
  void PadToBoundary();
  /// Group-commit bookkeeping: a SyncTo became durable at `done`.
  void NoteCommitDurable(SimTime done);

  SimFile* file_;
  Options opts_;
  Lsn next_lsn_ = 0;     ///< LSN of the next byte to be appended.
  Lsn written_lsn_ = 0;  ///< Everything below this is in the file.
  Lsn synced_lsn_ = 0;   ///< Everything below this has been fsynced.
  Lsn last_checkpoint_lsn_ = 0;
  uint32_t generation_ = 1;
  /// Group-commit window: the device sync completing at `done` covers
  /// records below `lsn`.
  Lsn pending_sync_lsn_ = 0;
  SimTime pending_sync_done_ = 0;
  /// Completion instant of the sync backing the currently open commit
  /// group, and how many SyncTo callers it has carried so far.
  SimTime last_sync_done_ = -1;
  uint64_t cur_group_ = 0;
  std::string tail_;     ///< Appended but not yet written.
  Stats stats_;

  Tracer* tracer_ = nullptr;
  /// Registered histograms (null when no registry was supplied).
  Histogram* h_sync_ns_ = nullptr;
  Histogram* h_group_size_ = nullptr;
};

}  // namespace durassd

#endif  // DURASSD_DB_WAL_H_
