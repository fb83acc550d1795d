#ifndef DURASSD_KV_KVSTORE_H_
#define DURASSD_KV_KVSTORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/trace.h"
#include "db/io_context.h"
#include "host/durability_mode.h"
#include "host/sim_file.h"

namespace durassd {

/// Document store modeled on Couchbase's CouchStore engine (Sec. 4.3.3):
/// an append-only file holding documents and the copy-on-write B+-tree that
/// indexes them. Every update appends the new document and fresh copies of
/// all tree nodes on the root-to-leaf path (the ~20KB-per-update pattern
/// the paper describes); a commit pads to a 4KB boundary and appends a
/// checksummed header block, fsyncing according to the batch-size knob:
///
///   batch_size = k  =>  one fsync per k updates (Table 5's sweep).
///
/// Recovery scans backward for the most recent intact header, exactly like
/// CouchStore; updates after the last durable header are lost (the
/// durability window the batch size trades away).
class KvStore {
 public:
  struct Options {
    uint32_t node_size = 4 * kKiB;  ///< B+-tree node target size.
    uint32_t batch_size = 1;        ///< Updates per fsync.
    /// How a batch commit's header write is made durable. kBarrier submits
    /// a barrier instead of waiting on fsync: the durable-cache epoch
    /// ordering guarantees header-after-payload across a power cut.
    DurabilityMode durability_mode = DurabilityMode::kDurableOrderedNcq;
  };

  struct Stats {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t deletes = 0;
    uint64_t commits = 0;
    uint64_t node_appends = 0;
    uint64_t doc_appends = 0;
    uint64_t recovered_seq = 0;
    uint64_t degraded_aborts = 0;  ///< In-flight batches dropped on device
                                   ///< degradation.
    /// Group-commit accounting (mirrors Wal::Stats): commits whose header
    /// fsync resolved to the same device-sync completion instant — the
    /// file system / device coalesced them into one FLUSH — form a group.
    uint64_t sync_groups = 0;
    uint64_t max_group_commit = 0;
    uint64_t barrier_commits = 0;  ///< Commits made durable via a barrier
                                   ///< submission instead of an fsync wait.
  };

  static StatusOr<std::unique_ptr<KvStore>> Open(IoContext& io,
                                                 SimFileSystem* fs,
                                                 const std::string& name,
                                                 Options options);

  /// Upsert. Buffers in the tail; becomes durable at the next commit.
  Status Put(IoContext& io, Slice key, Slice value);
  Status Get(IoContext& io, Slice key, std::string* value);
  Status Delete(IoContext& io, Slice key);

  /// Forces out the current batch (data, then header, each fsynced —
  /// whether fsync reaches the media depends on the file system's
  /// write-barrier setting, as everywhere else).
  Status Commit(IoContext& io);

  /// True once the store switched to read-only because the device entered
  /// degraded mode. The in-flight (uncommitted) batch was rolled back to
  /// the last durable header; reads keep working.
  bool read_only() const { return read_only_; }

  uint64_t doc_count() const { return doc_count_; }
  uint64_t file_bytes() const { return append_offset_; }
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t committed_seq() const { return seq_; }
  const Stats& stats() const { return stats_; }

  /// Store-level latency attribution (commit, header fsync).
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Attaches (or detaches, with nullptr) an event tracer. Recording never
  /// advances virtual time.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

 private:
  /// A chunk's place in the file: a child node, or (in a leaf) a document.
  struct NodeRef {
    uint64_t off = 0;
    uint32_t len = 0;
  };
  /// A tree node kept in its chunk encoding. `body` holds the entries
  /// exactly as the chunk stores them after the leaf byte and the count,
  /// each `[key len u32][key][off u64][len u32]`, in key order; `pos[i]` is
  /// entry i's offset in `body`. Updates splice or patch `body` in place and
  /// AppendNode copies it into the chunk unchanged.
  struct Node {
    bool leaf = true;
    std::string body;
    std::vector<uint32_t> pos;

    size_t count() const { return pos.size(); }
    Slice key(size_t i) const;
    NodeRef ref(size_t i) const;
    /// First entry whose key is >= k / > k (count() when there is none).
    size_t LowerBound(Slice k) const;
    size_t UpperBound(Slice k) const;
    void Insert(size_t i, Slice k, NodeRef r);
    void Erase(size_t i);
    void SetRef(size_t i, NodeRef r);
    void SetKey(size_t i, Slice k);
    /// Moves entries [i, count()) into the empty `right`.
    void SplitAt(size_t i, Node* right);
    uint32_t SerializedSize() const;
  };

  KvStore(SimFileSystem* fs, SimFile* file, std::string name,
          Options options);

  Status Recover(IoContext& io);
  /// Points `*raw` at the `ref.len` chunk bytes at `ref.off`: inside tail_
  /// when the chunk lies past tail_base_, else read from the file into
  /// `*buf`. A range not wholly inside the tail or the file is Corruption.
  Status ReadChunk(IoContext& io, NodeRef ref, std::string* buf, Slice* raw);
  /// Points `*out` at the cached node, validating, indexing and caching it
  /// on a miss. The pointer stays valid until the node cache next changes.
  Status LoadNode(IoContext& io, NodeRef ref, const Node** out);
  Status LoadDoc(IoContext& io, NodeRef doc, std::string* key,
                 std::string* value);
  /// Chunks are framed in place in the tail buffer: BeginChunk writes the
  /// length/CRC placeholder and the type byte and returns the chunk's start
  /// in tail_; the caller appends the body; EndChunk fills in the length
  /// and CRC and returns the chunk's file offset.
  size_t BeginChunk(uint8_t type);
  uint64_t EndChunk(size_t start, uint32_t* total_len);
  /// Appends the node and moves it into the node cache.
  NodeRef AppendNode(Node node);
  uint64_t AppendDoc(Slice key, Slice value, uint32_t* len);

  /// COW upsert/delete; returns the new root.
  StatusOr<NodeRef> CowUpdate(IoContext& io, NodeRef root, Slice key,
                              bool is_delete, uint64_t doc_off,
                              uint32_t doc_len, bool* found);
  struct CowResult {
    // One node, or two plus the separator key of the right node.
    NodeRef left;
    /// Smallest key of `left` (the parent's separator for it); unset when
    /// `left` is an empty leaf.
    std::optional<std::string> left_min;
    bool split = false;
    std::string sep;
    NodeRef right;
  };
  /// `depth` counts the levels above `ref`; past the tree-depth bound the
  /// descent returns Corruption (a node that refers back to an ancestor).
  Status CowInsertRec(IoContext& io, NodeRef ref, int depth, Slice key,
                      bool is_delete, uint64_t doc_off, uint32_t doc_len,
                      bool* found, CowResult* out);

  Status WriteHeader(IoContext& io);
  Status MaybeCommit(IoContext& io);
  /// Remembers the current (durable) state as the rollback target for
  /// degraded-mode aborts.
  void NoteCommitted();
  /// Rolls tree/tail state back to the last durable header.
  void RestoreCommitted();
  void EnterReadOnly(IoContext& io, const Status& cause);
  Status ReadOnlyError() const;

  SimFileSystem* fs_;
  SimFile* file_;
  std::string name_;
  Options opts_;

  NodeRef root_;            ///< {0,0} = empty tree.
  uint64_t append_offset_ = 0;
  std::string tail_;        ///< Appended but not yet written to the file.
  uint64_t tail_base_ = 0;  ///< File offset of tail_[0].
  uint32_t updates_since_commit_ = 0;
  uint64_t seq_ = 0;
  uint64_t doc_count_ = 0;
  uint64_t live_bytes_ = 0;

  /// Immutable node cache (COW nodes never change once written). Above
  /// 4096 entries, AppendNode drops the 1024 oldest offsets.
  std::map<uint64_t, Node> node_cache_;

  bool read_only_ = false;
  std::string degraded_reason_;
  /// Group-commit tracking: completion instant of the device sync backing
  /// the open commit group, and the commits it has carried so far.
  SimTime last_sync_done_ = -1;
  uint64_t cur_group_ = 0;
  /// State at the last durable header (the degraded-abort rollback target).
  NodeRef committed_root_;
  uint64_t committed_seq_ = 0;
  uint64_t committed_doc_count_ = 0;
  uint64_t committed_live_bytes_ = 0;
  uint64_t committed_boundary_ = 0;  ///< File offset just past that header.

  Stats stats_;

  MetricsRegistry metrics_;
  Tracer* tracer_ = nullptr;
  /// Registered in the constructor (always non-null).
  Histogram* h_commit_ns_;
  Histogram* h_fsync_ns_;
};

}  // namespace durassd

#endif  // DURASSD_KV_KVSTORE_H_
