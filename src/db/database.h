#ifndef DURASSD_DB_DATABASE_H_
#define DURASSD_DB_DATABASE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/resource.h"
#include "common/status.h"
#include "common/trace.h"
#include "db/btree.h"
#include "db/buffer_pool.h"
#include "db/double_write_buffer.h"
#include "db/io_context.h"
#include "db/wal.h"
#include "host/sim_file.h"

namespace durassd {

/// minibase: the relational storage engine used as the MySQL/InnoDB (and,
/// with per-write barriers, commercial-RDBMS) stand-in. Provides:
///   - named B+-trees ("tables"),
///   - single-writer transactions with redo/undo WAL and commit-time log
///     sync (fsync per commit, like the paper's configuration),
///   - a buffer pool with LRU eviction and the no-steal rule,
///   - optional InnoDB-style double-write (the atomicity redundancy that
///     DuraSSD eliminates),
///   - sharp checkpoints with log recycling,
///   - deterministic replay + loser-undo crash recovery with torn-page
///     detection via page checksums.
///
/// Concurrency model: the virtual-time scheduler runs one transaction at a
/// time, so no latching/locking is simulated; client concurrency shows up
/// as device/CPU contention, which is what the paper's experiments vary.
class Database : public PageAllocator {
 public:
  struct Options {
    uint32_t page_size = 4 * kKiB;        ///< 4/8/16 KB (the paper's sweep).
    uint64_t pool_bytes = 64 * kMiB;
    bool double_write = true;             ///< InnoDB doublewrite on/off.
    uint64_t checkpoint_log_bytes = 64 * kMiB;
    /// When true, every page write is followed by fsync — the commercial
    /// RDBMS's O_DSYNC behaviour in the TPC-C experiment (Sec. 4.3.2).
    bool sync_every_page_write = false;
    /// Commit durability discipline, threaded into the WAL and the
    /// double-write buffer. kBarrier turns fsync-for-ordering into barrier
    /// submissions; checkpoints keep a real fsync (the data pages must be
    /// on media before the checkpoint record claims they are).
    DurabilityMode durability_mode = DurabilityMode::kDurableOrderedNcq;
  };

  struct Stats {
    uint64_t txns_committed = 0;
    uint64_t txns_aborted = 0;
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t deletes = 0;
    uint64_t scans = 0;
    uint64_t checkpoints = 0;
    uint64_t recovered_records = 0;
    uint64_t undone_loser_txns = 0;
    uint64_t torn_pages_repaired = 0;
    uint64_t degraded_aborts = 0;  ///< In-flight txns aborted on device
                                   ///< degradation.
    /// Checkpoint WAL syncs downgraded to plain write-out because the log
    /// device has an ordered durable queue (Sec. 3.3): every acknowledged
    /// write is already durable and ordered, so the pre-destage FLUSH adds
    /// nothing.
    uint64_t ordered_wal_elisions = 0;
  };

  /// Opens (creating or recovering) a database. `data_fs` holds data +
  /// double-write files; `log_fs` holds the WAL (the paper uses a separate
  /// log device). They may be the same file system.
  static StatusOr<std::unique_ptr<Database>> Open(IoContext& io,
                                                  SimFileSystem* data_fs,
                                                  SimFileSystem* log_fs,
                                                  Options options);

  ~Database() override = default;

  // --- Schema ---
  StatusOr<uint32_t> CreateTree(IoContext& io, const std::string& name);
  StatusOr<uint32_t> GetTreeId(const std::string& name) const;

  // --- Transactions (one active at a time; see class comment) ---
  StatusOr<TxnId> Begin(IoContext& io);
  Status Put(IoContext& io, TxnId txn, uint32_t tree, Slice key, Slice value);
  Status Delete(IoContext& io, TxnId txn, uint32_t tree, Slice key);
  Status Commit(IoContext& io, TxnId txn);
  Status Abort(IoContext& io, TxnId txn);

  // --- Reads (no transaction required) ---
  Status Get(IoContext& io, uint32_t tree, Slice key, std::string* value);
  Status Scan(IoContext& io, uint32_t tree, Slice start, size_t limit,
              std::vector<std::pair<std::string, std::string>>* out);
  Status CountRange(IoContext& io, uint32_t tree, Slice start, Slice end,
                    size_t cap, uint64_t* count);

  /// Sharp checkpoint: flush everything, advance the master record, and
  /// recycle the log.
  Status Checkpoint(IoContext& io);

  // --- PageAllocator ---
  StatusOr<PageId> AllocatePage(IoContext& io) override;

  /// True once the engine switched to read-only because the device entered
  /// degraded mode (writes failing with kResourceExhausted). Mutations are
  /// rejected; reads keep working from the recovered/committed state.
  bool read_only() const { return read_only_; }

  const Stats& stats() const { return stats_; }
  BufferPool::Stats pool_stats() const { return pool_->stats(); }
  const Wal::Stats& wal_stats() const { return wal_->stats(); }
  const Options& options() const { return opts_; }
  BufferPool* pool() { return pool_.get(); }

  /// Engine-level latency attribution (txn time, commit fsync, WAL sync,
  /// double-write batches).
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Attaches (or detaches, with nullptr) an event tracer for engine +
  /// WAL + double-write events. Recording never advances virtual time.
  void set_tracer(Tracer* tracer);
  Tracer* tracer() const { return tracer_; }

 private:
  struct TreeInfo {
    uint32_t id;
    std::string name;
    PageId root;
  };
  struct UndoOp {
    bool was_put;
    uint32_t tree;
    std::string key;
    bool had_old;
    std::string old_value;
  };
  struct ActiveTxn {
    TxnId id = 0;
    SimTime begin_time = 0;  ///< io.now at Begin (db.txn_ns sample).
    std::vector<UndoOp> undo;
    std::vector<PageId> dirtied;
  };

  Database(SimFileSystem* data_fs, SimFileSystem* log_fs, Options options);

  Status Initialize(IoContext& io);
  Status Recover(IoContext& io);
  Status PutImpl(IoContext& io, TxnId txn, uint32_t tree, Slice key,
                 Slice value);
  Status DeleteImpl(IoContext& io, TxnId txn, uint32_t tree, Slice key);
  Status CommitImpl(IoContext& io, TxnId txn);
  Status CheckpointImpl(IoContext& io);
  /// Switches to read-only mode: rolls the in-flight transaction back
  /// in memory (no WAL appends, no device syncs — the device rejects
  /// writes), then rejects all further mutations.
  void EnterReadOnly(IoContext& io, const Status& cause);
  Status ReadOnlyError() const;
  Status ReplayRecords(IoContext& io, const std::vector<WalRecord>& records);
  std::string SerializeMeta(Lsn ckpt_lsn, uint32_t gen) const;
  Status ParseMeta(Slice blob, Lsn* ckpt_lsn, uint32_t* gen);
  Status WriteMetaPage(IoContext& io, Lsn ckpt_lsn, uint32_t gen);
  /// Pre-replay pass: restore torn home pages from double-write copies.
  Status RepairTornPages(IoContext& io);
  BTree* TreeById(uint32_t id);
  void SyncRootPointers();
  void ChargeCpu(IoContext& io);
  Status MaybeCheckpoint(IoContext& io);

  SimFileSystem* data_fs_;
  SimFileSystem* log_fs_;
  Options opts_;
  /// Declared before wal_/dwb_ construction sites use it (Open passes
  /// &metrics_ into their Options).
  MetricsRegistry metrics_;

  SimFile* data_file_ = nullptr;
  SimFile* dwb_file_ = nullptr;
  SimFile* wal_file_ = nullptr;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<DoubleWriteBuffer> dwb_;
  std::unique_ptr<BufferPool> pool_;

  std::map<std::string, uint32_t> tree_names_;
  std::unordered_map<uint32_t, TreeInfo> tree_info_;
  std::unordered_map<uint32_t, std::unique_ptr<BTree>> trees_;
  uint32_t next_tree_id_ = 1;
  PageId next_page_ = 1;  ///< Page 0 is the meta page.
  TxnId next_txn_ = 1;
  ActiveTxn active_;
  bool in_recovery_ = false;
  /// True when the WAL device guarantees ordered durable acknowledgment
  /// (BlockDevice::ordered_writes); enables the checkpoint sync elision.
  bool log_ordered_ = false;
  bool read_only_ = false;
  /// Set when the in-memory rollback on degradation could not complete:
  /// the cached state is no longer trustworthy, so reads fail too.
  bool poisoned_ = false;
  std::string degraded_reason_;

  ResourceTimeline cpu_;
  Stats stats_;

  Tracer* tracer_ = nullptr;
  /// Registered in the constructor (always non-null).
  Histogram* h_txn_ns_;
  Histogram* h_fsync_ns_;
};

}  // namespace durassd

#endif  // DURASSD_DB_DATABASE_H_
