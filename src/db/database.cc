#include "db/database.h"

#include <algorithm>
#include <cassert>

#include "common/coding.h"
#include "db/page.h"

namespace durassd {

namespace {
constexpr char kDataFile[] = "data.db";
constexpr char kDwbFile[] = "dwb.db";
constexpr char kWalFile[] = "wal.log";
/// CPU time charged per engine operation, on a 32-way host like the
/// paper's testbed.
constexpr SimTime kCpuPerOp = 12 * kMicrosecond;
constexpr uint32_t kCpuParallelism = 32;
/// Pages per double-write batch.
constexpr uint32_t kDwbBatchPages = 24;
}  // namespace

Database::Database(SimFileSystem* data_fs, SimFileSystem* log_fs,
                   Options options)
    : data_fs_(data_fs),
      log_fs_(log_fs),
      opts_(options),
      cpu_(kCpuParallelism),
      h_txn_ns_(metrics_.GetHistogram("db.txn_ns")),
      h_fsync_ns_(metrics_.GetHistogram("db.fsync_ns")) {}

Status Database::ReadOnlyError() const {
  if (poisoned_) {
    return Status::DataLoss("database poisoned: rollback failed after "
                            "device degradation");
  }
  return Status::ResourceExhausted("database is read-only: " +
                                   degraded_reason_);
}

void Database::EnterReadOnly(IoContext& io, const Status& cause) {
  if (read_only_) return;
  read_only_ = true;
  degraded_reason_ = cause.message();

  // Roll the in-flight transaction back entirely in memory: the device no
  // longer accepts writes, so no WAL records are appended and nothing is
  // synced. The pool pages it dirtied are pinned by the no-steal rule, so
  // the inverse operations hit resident pages and need no evictions.
  if (active_.id != 0) {
    const TxnId txn = active_.id;
    while (!active_.undo.empty()) {
      const UndoOp op = std::move(active_.undo.back());
      active_.undo.pop_back();
      BTree* t = TreeById(op.tree);
      if (t == nullptr) continue;
      MutationCtx m{wal_->next_lsn(), txn, &active_.dirtied};
      Status s;
      if (op.was_put) {
        s = op.had_old ? t->Put(io, m, op.key, op.old_value)
                       : t->Delete(io, m, op.key);
        if (s.IsNotFound()) s = Status::OK();
      } else {
        s = t->Put(io, m, op.key, op.old_value);
      }
      if (!s.ok()) {
        // The cached state now holds a half-undone transaction we cannot
        // finish unwinding; refuse to serve it.
        poisoned_ = true;
        break;
      }
    }
    for (PageId id : active_.dirtied) pool_->ClearOwner(id, txn);
    SyncRootPointers();
    active_ = ActiveTxn{};
    stats_.txns_aborted++;
    stats_.degraded_aborts++;
    if (tracer_) {
      tracer_->Record(io.now, TraceEventType::kTxnAbort, txn,
                      static_cast<uint64_t>(cause.code()));
    }
  }
}

void Database::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  if (wal_) wal_->set_tracer(tracer);
  if (dwb_) dwb_->set_tracer(tracer);
}

StatusOr<std::unique_ptr<Database>> Database::Open(IoContext& io,
                                                   SimFileSystem* data_fs,
                                                   SimFileSystem* log_fs,
                                                   Options options) {
  const bool existing = data_fs->Exists(kDataFile);
  auto db = std::unique_ptr<Database>(new Database(data_fs, log_fs, options));
  db->data_file_ = data_fs->Open(kDataFile);
  db->dwb_file_ = data_fs->Open(kDwbFile);
  db->wal_file_ = log_fs->Open(kWalFile);
  Wal::Options wal_opts;
  wal_opts.metrics = &db->metrics_;
  wal_opts.durability_mode = options.durability_mode;
  db->wal_ = std::make_unique<Wal>(db->wal_file_, wal_opts);
  if (options.double_write) {
    DoubleWriteBuffer::Options dwb_opts;
    dwb_opts.page_size = options.page_size;
    dwb_opts.batch_pages = kDwbBatchPages;
    dwb_opts.metrics = &db->metrics_;
    dwb_opts.durability_mode = options.durability_mode;
    db->dwb_ = std::make_unique<DoubleWriteBuffer>(db->dwb_file_,
                                                   db->data_file_, dwb_opts);
  }
  BufferPool::Options pool_opts;
  pool_opts.pool_bytes = options.pool_bytes;
  pool_opts.page_size = options.page_size;
  pool_opts.sync_every_write = options.sync_every_page_write;
  db->pool_ = std::make_unique<BufferPool>(db->data_file_, db->wal_.get(),
                                           db->dwb_.get(), pool_opts);
  db->log_ordered_ = log_fs->device()->ordered_writes();

  if (existing) {
    DURASSD_RETURN_IF_ERROR(db->Recover(io));
  } else {
    DURASSD_RETURN_IF_ERROR(db->Initialize(io));
  }
  return db;
}

Status Database::Initialize(IoContext& io) {
  // Reserve page 0 for the meta page; real content lands at the first
  // checkpoint. Pre-size the data file so offset 0 maps to an extent.
  DURASSD_RETURN_IF_ERROR(data_file_->Allocate(opts_.page_size));
  (void)io;
  return Status::OK();
}

void Database::ChargeCpu(IoContext& io) {
  const ResourceTimeline::Grant g = cpu_.Acquire(io.now, kCpuPerOp);
  io.AdvanceTo(g.done);
}

StatusOr<PageId> Database::AllocatePage(IoContext& io) {
  (void)io;
  // Ids only grow, so a resident page here means a damaged meta record
  // under-counted the pages: formatting it would wipe a live page.
  if (pool_->resident(next_page_)) {
    return Status::Corruption("page " + std::to_string(next_page_) +
                              " allocated while in use");
  }
  return next_page_++;
}

BTree* Database::TreeById(uint32_t id) {
  auto it = trees_.find(id);
  return it == trees_.end() ? nullptr : it->second.get();
}

void Database::SyncRootPointers() {
  for (auto& [id, tree] : trees_) {
    tree_info_[id].root = tree->root();
  }
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

StatusOr<uint32_t> Database::CreateTree(IoContext& io,
                                        const std::string& name) {
  if (read_only_) return ReadOnlyError();
  if (tree_names_.count(name) != 0) {
    return Status::InvalidArgument("tree exists: " + name);
  }
  const uint32_t id = next_tree_id_++;
  if (!in_recovery_) {
    WalRecord rec;
    rec.type = WalRecordType::kCreateTree;
    rec.tree = id;
    rec.value = name;
    wal_->Append(rec);
  }
  MutationCtx m{wal_->next_lsn(), 0, nullptr};
  StatusOr<PageId> root = BTree::Create(io, pool_.get(), this, m);
  if (!root.ok()) return root.status();

  tree_names_[name] = id;
  tree_info_[id] = TreeInfo{id, name, *root};
  trees_[id] = std::make_unique<BTree>(pool_.get(), this, *root);
  return id;
}

StatusOr<uint32_t> Database::GetTreeId(const std::string& name) const {
  auto it = tree_names_.find(name);
  if (it == tree_names_.end()) return Status::NotFound(name);
  return it->second;
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

StatusOr<TxnId> Database::Begin(IoContext& io) {
  if (read_only_) return ReadOnlyError();
  if (active_.id != 0) {
    return Status::InvalidArgument("a transaction is already active");
  }
  active_.id = next_txn_++;
  active_.begin_time = io.now;
  active_.undo.clear();
  active_.dirtied.clear();
  if (!in_recovery_) {
    WalRecord rec;
    rec.type = WalRecordType::kBegin;
    rec.txn = active_.id;
    wal_->Append(rec);
  }
  return active_.id;
}

Status Database::Put(IoContext& io, TxnId txn, uint32_t tree, Slice key,
                     Slice value) {
  if (read_only_) return ReadOnlyError();
  Status s = PutImpl(io, txn, tree, key, value);
  if (s.IsResourceExhausted()) {
    EnterReadOnly(io, s);
    return ReadOnlyError();
  }
  return s;
}

Status Database::PutImpl(IoContext& io, TxnId txn, uint32_t tree, Slice key,
                         Slice value) {
  if (txn != active_.id || txn == 0) {
    return Status::InvalidArgument("not the active transaction");
  }
  BTree* t = TreeById(tree);
  if (t == nullptr) return Status::NotFound("no such tree");
  ChargeCpu(io);
  stats_.puts++;

  std::string old_value;
  bool had_old = false;
  // The before-image is captured by the tree operation itself; log first
  // with a placeholder LSN order: append after we know the old value means
  // two passes — instead we pre-read for the undo image, then log, then
  // apply, so the page LSN covers the record.
  // (Pre-read cost: almost always a buffer hit on the page the Put will
  // touch anyway.)
  {
    std::string existing;
    Status s = t->Get(io, key, &existing);
    if (s.ok()) {
      had_old = true;
      old_value = std::move(existing);
    } else if (!s.IsNotFound()) {
      return s;
    }
  }

  WalRecord rec;
  rec.type = WalRecordType::kPut;
  rec.txn = txn;
  rec.tree = tree;
  rec.key = key.ToString();
  rec.value = value.ToString();
  rec.has_old = had_old;
  rec.old_value = old_value;
  const Lsn lsn = wal_->Append(rec);

  MutationCtx m{lsn, txn, &active_.dirtied};
  DURASSD_RETURN_IF_ERROR(t->Put(io, m, key, value));
  active_.undo.push_back(UndoOp{true, tree, rec.key, had_old, old_value});
  SyncRootPointers();
  return Status::OK();
}

Status Database::Delete(IoContext& io, TxnId txn, uint32_t tree, Slice key) {
  if (read_only_) return ReadOnlyError();
  Status s = DeleteImpl(io, txn, tree, key);
  if (s.IsResourceExhausted()) {
    EnterReadOnly(io, s);
    return ReadOnlyError();
  }
  return s;
}

Status Database::DeleteImpl(IoContext& io, TxnId txn, uint32_t tree,
                            Slice key) {
  if (txn != active_.id || txn == 0) {
    return Status::InvalidArgument("not the active transaction");
  }
  BTree* t = TreeById(tree);
  if (t == nullptr) return Status::NotFound("no such tree");
  ChargeCpu(io);
  stats_.deletes++;

  std::string old_value;
  bool had_old = false;
  {
    std::string existing;
    Status s = t->Get(io, key, &existing);
    if (s.ok()) {
      had_old = true;
      old_value = std::move(existing);
    } else if (s.IsNotFound()) {
      return s;  // Nothing to delete; no log record.
    } else {
      return s;
    }
  }

  WalRecord rec;
  rec.type = WalRecordType::kDelete;
  rec.txn = txn;
  rec.tree = tree;
  rec.key = key.ToString();
  rec.has_old = had_old;
  rec.old_value = old_value;
  const Lsn lsn = wal_->Append(rec);

  MutationCtx m{lsn, txn, &active_.dirtied};
  DURASSD_RETURN_IF_ERROR(t->Delete(io, m, key));
  active_.undo.push_back(UndoOp{false, tree, rec.key, had_old, old_value});
  SyncRootPointers();
  return Status::OK();
}

Status Database::Commit(IoContext& io, TxnId txn) {
  if (read_only_) return ReadOnlyError();
  Status s = CommitImpl(io, txn);
  if (s.IsResourceExhausted()) {
    // The commit record never became durable (the sync failed), so the
    // transaction is not committed: abort it in memory and go read-only.
    EnterReadOnly(io, s);
    return ReadOnlyError();
  }
  return s;
}

Status Database::CommitImpl(IoContext& io, TxnId txn) {
  if (txn != active_.id || txn == 0) {
    return Status::InvalidArgument("not the active transaction");
  }
  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  rec.txn = txn;
  const Lsn lsn = wal_->Append(rec);
  const SimTime sync_start = io.now;
  DURASSD_RETURN_IF_ERROR(wal_->SyncTo(io, lsn));  // Commit durability.
  h_fsync_ns_->Record(io.now - sync_start);
  if (tracer_) {
    tracer_->Record(io.now, TraceEventType::kFsync, txn,
                    static_cast<uint64_t>(io.now - sync_start));
  }

  const SimTime begin_time = active_.begin_time;
  for (PageId id : active_.dirtied) pool_->ClearOwner(id, txn);
  active_ = ActiveTxn{};
  stats_.txns_committed++;
  h_txn_ns_->Record(io.now - begin_time);
  if (tracer_) {
    tracer_->Record(io.now, TraceEventType::kTxnCommit, txn,
                    static_cast<uint64_t>(io.now - begin_time));
  }
  Status ck = MaybeCheckpoint(io);
  if (ck.IsResourceExhausted()) {
    // The commit itself is durable; the checkpoint that followed hit the
    // degraded device and flipped the engine read-only. Don't report the
    // committed transaction as failed.
    return Status::OK();
  }
  return ck;
}

Status Database::Abort(IoContext& io, TxnId txn) {
  if (read_only_) return ReadOnlyError();
  if (txn != active_.id || txn == 0) {
    return Status::InvalidArgument("not the active transaction");
  }
  // Apply inverse operations in reverse (popping as they complete, so a
  // failure mid-rollback leaves the remainder for EnterReadOnly to finish
  // in memory), logging them as compensations so replay stays
  // deterministic; then close the transaction.
  while (!active_.undo.empty()) {
    const UndoOp op = std::move(active_.undo.back());
    active_.undo.pop_back();
    BTree* t = TreeById(op.tree);
    assert(t != nullptr);
    WalRecord rec;
    rec.txn = txn;
    rec.tree = op.tree;
    rec.key = op.key;
    if (op.was_put) {
      if (op.had_old) {
        rec.type = WalRecordType::kPut;
        rec.value = op.old_value;
      } else {
        rec.type = WalRecordType::kDelete;
      }
    } else {
      // A delete always had an old value.
      rec.type = WalRecordType::kPut;
      rec.value = op.old_value;
    }
    const Lsn lsn = wal_->Append(rec);
    MutationCtx m{lsn, txn, &active_.dirtied};
    Status s;
    if (rec.type == WalRecordType::kPut) {
      s = t->Put(io, m, rec.key, rec.value);
    } else {
      s = t->Delete(io, m, rec.key);
      if (s.IsNotFound()) s = Status::OK();
    }
    if (!s.ok()) {
      if (s.IsResourceExhausted()) {
        // The inverse op did not apply; requeue it and let EnterReadOnly
        // finish the rollback without touching the device.
        active_.undo.push_back(op);
        EnterReadOnly(io, s);
        return ReadOnlyError();
      }
      return s;
    }
  }
  WalRecord rec;
  rec.type = WalRecordType::kAbort;
  rec.txn = txn;
  wal_->Append(rec);

  for (PageId id : active_.dirtied) pool_->ClearOwner(id, txn);
  SyncRootPointers();
  active_ = ActiveTxn{};
  stats_.txns_aborted++;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Status Database::Get(IoContext& io, uint32_t tree, Slice key,
                     std::string* value) {
  if (poisoned_) return ReadOnlyError();
  BTree* t = TreeById(tree);
  if (t == nullptr) return Status::NotFound("no such tree");
  ChargeCpu(io);
  stats_.gets++;
  return t->Get(io, key, value);
}

Status Database::Scan(IoContext& io, uint32_t tree, Slice start, size_t limit,
                      std::vector<std::pair<std::string, std::string>>* out) {
  if (poisoned_) return ReadOnlyError();
  BTree* t = TreeById(tree);
  if (t == nullptr) return Status::NotFound("no such tree");
  ChargeCpu(io);
  stats_.scans++;
  return t->ScanFrom(io, start, limit, out);
}

Status Database::CountRange(IoContext& io, uint32_t tree, Slice start,
                            Slice end, size_t cap, uint64_t* count) {
  if (poisoned_) return ReadOnlyError();
  BTree* t = TreeById(tree);
  if (t == nullptr) return Status::NotFound("no such tree");
  ChargeCpu(io);
  stats_.scans++;
  return t->CountRange(io, start, end, cap, count);
}

// ---------------------------------------------------------------------------
// Checkpoint & meta page
// ---------------------------------------------------------------------------

std::string Database::SerializeMeta(Lsn ckpt_lsn, uint32_t gen) const {
  std::string blob;
  PutFixed64(&blob, ckpt_lsn);
  PutFixed32(&blob, gen);
  PutFixed64(&blob, next_page_);
  PutFixed32(&blob, next_tree_id_);
  PutFixed32(&blob, static_cast<uint32_t>(tree_info_.size()));
  // Deterministic order (by name) for reproducible meta images.
  for (const auto& [name, id] : tree_names_) {
    const TreeInfo& info = tree_info_.at(id);
    PutFixed32(&blob, info.id);
    PutFixed64(&blob, info.root);
    PutLengthPrefixed(&blob, name);
  }
  return blob;
}

Status Database::ParseMeta(Slice blob, Lsn* ckpt_lsn, uint32_t* gen) {
  uint64_t next_page = 0;
  uint32_t next_tree = 0, n = 0;
  if (!GetFixed64(&blob, ckpt_lsn) || !GetFixed32(&blob, gen) ||
      !GetFixed64(&blob, &next_page) || !GetFixed32(&blob, &next_tree) ||
      !GetFixed32(&blob, &n)) {
    return Status::Corruption("meta blob truncated");
  }
  // Every page below next_page must fit on the data device.
  if (next_page > data_fs_->device()->capacity_bytes() / opts_.page_size) {
    return Status::Corruption("meta next_page past the data device");
  }
  next_page_ = next_page;
  next_tree_id_ = next_tree;
  tree_names_.clear();
  tree_info_.clear();
  trees_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t id = 0;
    uint64_t root = 0;
    Slice name;
    if (!GetFixed32(&blob, &id) || !GetFixed64(&blob, &root) ||
        !GetLengthPrefixed(&blob, &name)) {
      return Status::Corruption("meta tree entry truncated");
    }
    tree_names_[name.ToString()] = id;
    tree_info_[id] = TreeInfo{id, name.ToString(), root};
    trees_[id] = std::make_unique<BTree>(pool_.get(), this, root);
  }
  return Status::OK();
}

Status Database::WriteMetaPage(IoContext& io, Lsn ckpt_lsn, uint32_t gen) {
  SyncRootPointers();
  StatusOr<PageRef> meta = pool_->Fix(io, 0, /*create=*/true);
  if (!meta.ok()) return meta.status();
  (*meta)->Format(0, PageType::kMeta);
  const std::string blob = SerializeMeta(ckpt_lsn, gen);
  std::string cell;
  cell.resize(2);
  const uint16_t len = static_cast<uint16_t>(2 + blob.size());
  memcpy(cell.data(), &len, 2);
  cell.append(blob);
  if (!(*meta)->InsertCell(0, cell)) {
    return Status::Corruption("meta blob exceeds page");
  }
  (*meta)->SealChecksum();

  // Write the meta page through the double-write path (or directly) and
  // make it durable: this is the master-record publish step.
  if (dwb_ != nullptr) {
    DURASSD_RETURN_IF_ERROR(
        dwb_->Add(io, 0, std::string((*meta)->data(), (*meta)->size())));
    DURASSD_RETURN_IF_ERROR(dwb_->FlushBatch(io));
  } else {
    const SimFile::IoResult r =
        data_file_->Write(io.now, 0, (*meta)->AsSlice());
    DURASSD_RETURN_IF_ERROR(r.status);
    io.AdvanceTo(r.done);
    const SimFile::IoResult s = data_file_->Sync(io.now);
    DURASSD_RETURN_IF_ERROR(s.status);
    io.AdvanceTo(s.done);
  }
  return Status::OK();
}

Status Database::Checkpoint(IoContext& io) {
  if (read_only_) return ReadOnlyError();
  Status s = CheckpointImpl(io);
  if (s.IsResourceExhausted()) {
    EnterReadOnly(io, s);
    return ReadOnlyError();
  }
  return s;
}

Status Database::CheckpointImpl(IoContext& io) {
  if (active_.id != 0) {
    return Status::InvalidArgument("checkpoint with active transaction");
  }
  stats_.checkpoints++;

  // Phase 1: make the log and all data pages durable. On an ordered
  // durable queue (Sec. 3.3) every acknowledged log write is already
  // durable in submission order, so writing the tail out suffices — the
  // pre-destage fsync (and its sector-sealing pad) is elided.
  if (log_ordered_) {
    DURASSD_RETURN_IF_ERROR(wal_->EnsureWritten(io, wal_->next_lsn()));
    stats_.ordered_wal_elisions++;
  } else {
    DURASSD_RETURN_IF_ERROR(wal_->SyncTo(io, wal_->next_lsn()));
  }
  DURASSD_RETURN_IF_ERROR(pool_->FlushAll(io));
  const SimFile::IoResult r = data_file_->Sync(io.now);
  DURASSD_RETURN_IF_ERROR(r.status);
  io.AdvanceTo(r.done);

  // Phase 2: publish the master record (meta page) pointing at a recycled
  // log. Only after this does recovery switch to the new generation.
  const uint32_t new_gen = wal_->generation() + 1;
  DURASSD_RETURN_IF_ERROR(WriteMetaPage(io, 0, new_gen));
  wal_->ResetTo(0, new_gen);
  return Status::OK();
}

Status Database::MaybeCheckpoint(IoContext& io) {
  if (in_recovery_) return Status::OK();
  if (wal_->bytes_since_checkpoint() < opts_.checkpoint_log_bytes) {
    return Status::OK();
  }
  return Checkpoint(io);
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

Status Database::RepairTornPages(IoContext& io) {
  if (dwb_ == nullptr) return Status::OK();
  std::vector<std::pair<PageId, std::string>> images;
  DURASSD_RETURN_IF_ERROR(dwb_->RecoverImages(io, &images));
  for (const auto& [page_id, image] : images) {
    std::string raw;
    const SimFile::IoResult r = data_file_->Read(
        io.now, static_cast<uint64_t>(page_id) * opts_.page_size,
        opts_.page_size, &raw);
    // An uncorrectable device read (ECC exhausted) of a page we hold a
    // double-write copy of is repairable exactly like a torn page; every
    // other read error still aborts recovery.
    const bool device_corruption = r.status.IsCorruption();
    if (!device_corruption) {
      DURASSD_RETURN_IF_ERROR(r.status);
    }
    io.AdvanceTo(r.done);
    raw.resize(opts_.page_size, '\0');
    Page page(opts_.page_size);
    page.CopyFrom(raw);
    const bool home_intact =
        !device_corruption && page.header()->magic == Page::kMagic &&
        page.VerifyChecksum();
    if (!home_intact) {
      const SimFile::IoResult w = data_file_->Write(
          io.now, static_cast<uint64_t>(page_id) * opts_.page_size, image);
      DURASSD_RETURN_IF_ERROR(w.status);
      io.AdvanceTo(w.done);
      stats_.torn_pages_repaired++;
    }
  }
  if (stats_.torn_pages_repaired > 0) {
    const SimFile::IoResult s = data_file_->Sync(io.now);
    DURASSD_RETURN_IF_ERROR(s.status);
    io.AdvanceTo(s.done);
  }
  return Status::OK();
}

Status Database::ReplayRecords(IoContext& io,
                               const std::vector<WalRecord>& records) {
  // Transactions replay through the normal code path; the single-active-
  // transaction invariant means records of one txn are contiguous.
  std::vector<const WalRecord*> open_ops;
  TxnId open_txn = 0;

  for (const WalRecord& rec : records) {
    stats_.recovered_records++;
    switch (rec.type) {
      case WalRecordType::kCreateTree: {
        StatusOr<uint32_t> id = CreateTree(io, rec.value);
        if (!id.ok()) return id.status();
        if (*id != rec.tree) {
          return Status::Corruption("replay tree id mismatch");
        }
        break;
      }
      case WalRecordType::kBegin:
        open_txn = rec.txn;
        open_ops.clear();
        break;
      case WalRecordType::kPut:
      case WalRecordType::kDelete: {
        BTree* t = TreeById(rec.tree);
        if (t == nullptr) return Status::Corruption("replay unknown tree");
        MutationCtx m{rec.lsn, 0, nullptr};
        if (rec.type == WalRecordType::kPut) {
          DURASSD_RETURN_IF_ERROR(t->Put(io, m, rec.key, rec.value));
        } else {
          Status s = t->Delete(io, m, rec.key);
          if (!s.ok() && !s.IsNotFound()) return s;
        }
        if (rec.txn == open_txn) open_ops.push_back(&rec);
        SyncRootPointers();
        break;
      }
      case WalRecordType::kCommit:
      case WalRecordType::kAbort:
        if (rec.txn == open_txn) {
          open_txn = 0;
          open_ops.clear();
        }
        break;
      case WalRecordType::kCheckpoint:
      case WalRecordType::kPad:  // Filtered by ReadFrom; nothing to do.
        break;
    }
  }

  // Undo the loser transaction (at most one, by the single-writer rule)
  // using the logged before-images, newest first.
  if (open_txn != 0 && !open_ops.empty()) {
    stats_.undone_loser_txns++;
    for (auto it = open_ops.rbegin(); it != open_ops.rend(); ++it) {
      const WalRecord& rec = **it;
      BTree* t = TreeById(rec.tree);
      if (t == nullptr) continue;
      MutationCtx m{rec.lsn, 0, nullptr};
      if (rec.type == WalRecordType::kPut) {
        if (rec.has_old) {
          DURASSD_RETURN_IF_ERROR(t->Put(io, m, rec.key, rec.old_value));
        } else {
          Status s = t->Delete(io, m, rec.key);
          if (!s.ok() && !s.IsNotFound()) return s;
        }
      } else {  // kDelete
        DURASSD_RETURN_IF_ERROR(t->Put(io, m, rec.key, rec.old_value));
      }
      SyncRootPointers();
    }
  }
  return Status::OK();
}

Status Database::Recover(IoContext& io) {
  in_recovery_ = true;

  // 1. Repair torn home pages from the double-write region.
  DURASSD_RETURN_IF_ERROR(RepairTornPages(io));

  // 2. Load the master record (meta page). An unreadable meta page on a
  //    fresh database (never checkpointed) means "replay everything from
  //    LSN 0, generation 1, over an empty database".
  Lsn ckpt_lsn = 0;
  uint32_t gen = 1;
  {
    std::string raw;
    const SimFile::IoResult r =
        data_file_->Read(io.now, 0, opts_.page_size, &raw);
    DURASSD_RETURN_IF_ERROR(r.status);
    io.AdvanceTo(r.done);
    raw.resize(opts_.page_size, '\0');
    Page meta(opts_.page_size);
    meta.CopyFrom(raw);
    const bool all_zero = raw.find_first_not_of('\0') == std::string::npos;
    if (meta.header()->magic == Page::kMagic && meta.VerifyChecksum() &&
        meta.type() == PageType::kMeta && meta.nslots() >= 1 &&
        meta.VerifyLayout()) {
      Slice cell = meta.CellAt(0);
      cell.remove_prefix(2);  // Cell length.
      DURASSD_RETURN_IF_ERROR(ParseMeta(cell, &ckpt_lsn, &gen));
    } else if (!all_zero) {
      // A master record was written at some point but is now unreadable —
      // a torn meta page with no intact double-write copy. Unrecoverable.
      return Status::Corruption("master record (meta page) is torn");
    } else if (wal_file_->size() == 0) {
      // Nothing was ever logged: clean fresh database.
      in_recovery_ = false;
      return Initialize(io);
    }
    // else: crashed before the first checkpoint — replay everything from
    // LSN 0, generation 1, over an empty database (defaults above).
  }

  // 3. Replay the durable log prefix. The resume point comes from the
  //    scan itself so trailing kPad frames stay sealed: resuming before a
  //    pad would rewrite its (synced) sector in place.
  std::vector<WalRecord> records;
  Lsn resume_lsn = ckpt_lsn;
  DURASSD_RETURN_IF_ERROR(
      wal_->ReadFrom(io, ckpt_lsn, gen, &records, &resume_lsn));
  DURASSD_RETURN_IF_ERROR(ReplayRecords(io, records));
  wal_->ResumeAt(resume_lsn, gen);
  // Drop the torn tail before any new frame is appended at resume_lsn:
  // otherwise a complete stale frame stranded beyond the torn point could
  // be resurrected by a second crash once fresh appends close the gap.
  DURASSD_RETURN_IF_ERROR(wal_->TruncateTail(resume_lsn));

  in_recovery_ = false;

  // 4. Checkpoint immediately: truncates the replayed log and publishes a
  //    clean master record. On a degraded (read-only) device the
  //    checkpoint cannot be written; the recovered state is still fully
  //    served from memory, so recovery succeeds in read-only mode.
  Status ck = CheckpointImpl(io);
  if (ck.IsResourceExhausted()) {
    EnterReadOnly(io, ck);
    return Status::OK();
  }
  return ck;
}

}  // namespace durassd
