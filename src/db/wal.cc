#include "db/wal.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32c.h"

namespace durassd {

std::string WalRecord::Encode() const {
  std::string out;
  out.push_back(static_cast<char>(type));
  PutFixed64(&out, txn);
  PutFixed32(&out, tree);
  PutLengthPrefixed(&out, key);
  PutLengthPrefixed(&out, value);
  out.push_back(has_old ? 1 : 0);
  PutLengthPrefixed(&out, old_value);
  return out;
}

bool WalRecord::Decode(Slice payload, WalRecord* out) {
  if (payload.empty()) return false;
  out->type = static_cast<WalRecordType>(payload[0]);
  payload.remove_prefix(1);
  uint64_t txn = 0;
  uint32_t tree = 0;
  Slice key, value, old_value;
  if (!GetFixed64(&payload, &txn)) return false;
  if (!GetFixed32(&payload, &tree)) return false;
  if (!GetLengthPrefixed(&payload, &key)) return false;
  if (!GetLengthPrefixed(&payload, &value)) return false;
  if (payload.empty()) return false;
  out->has_old = payload[0] != 0;
  payload.remove_prefix(1);
  if (!GetLengthPrefixed(&payload, &old_value)) return false;
  out->txn = txn;
  out->tree = tree;
  out->key = key.ToString();
  out->value = value.ToString();
  out->old_value = old_value.ToString();
  return true;
}

Wal::Wal(SimFile* file, Options options) : file_(file), opts_(options) {
  if (opts_.metrics != nullptr) {
    h_sync_ns_ = opts_.metrics->GetHistogram("wal.sync_ns");
    h_group_size_ = opts_.metrics->GetHistogram("wal.group_commit_size");
  }
}

namespace {
constexpr uint32_t kFrameHeader = 12;  // [len u32][gen u32][crc u32]
}  // namespace

Lsn Wal::Append(const WalRecord& record) {
  const std::string payload = record.Encode();
  const Lsn lsn = next_lsn_;
  PutFixed32(&tail_, static_cast<uint32_t>(payload.size()));
  PutFixed32(&tail_, generation_);
  PutFixed32(&tail_, Crc32c(payload.data(), payload.size()));
  tail_.append(payload);
  next_lsn_ += kFrameHeader + payload.size();
  stats_.appends++;
  if (tracer_) {
    tracer_->Record(0, TraceEventType::kWalAppend, lsn, payload.size());
  }
  return lsn;
}

Status Wal::WriteOut(IoContext& io) {
  if (tail_.empty()) return Status::OK();
  const uint64_t offset = written_lsn_;
  const SimFile::IoResult r = file_->Write(io.now, offset, tail_);
  DURASSD_RETURN_IF_ERROR(r.status);
  io.AdvanceTo(r.done);
  stats_.bytes_written += tail_.size();
  written_lsn_ = next_lsn_;
  tail_.clear();
  return Status::OK();
}

void Wal::PadToBoundary() {
  constexpr uint32_t align = 4096;
  if (next_lsn_ % align == 0) return;
  uint64_t gap = align - next_lsn_ % align;
  // A frame needs at least a header plus the one-byte record type; when
  // the hole is smaller, pad through the whole next sector instead.
  if (gap < kFrameHeader + 1) gap += align;
  std::string payload(gap - kFrameHeader, '\0');
  payload[0] = static_cast<char>(WalRecordType::kPad);
  PutFixed32(&tail_, static_cast<uint32_t>(payload.size()));
  PutFixed32(&tail_, generation_);
  PutFixed32(&tail_, Crc32c(payload.data(), payload.size()));
  tail_.append(payload);
  next_lsn_ += gap;
  stats_.pad_bytes += gap;
}

void Wal::NoteCommitDurable(SimTime done) {
  if (done == last_sync_done_) {
    cur_group_++;
  } else {
    if (cur_group_ > 0 && h_group_size_ != nullptr) {
      h_group_size_->Record(static_cast<int64_t>(cur_group_));
    }
    cur_group_ = 1;
    stats_.sync_groups++;
    last_sync_done_ = done;
  }
  stats_.max_group_commit = std::max(stats_.max_group_commit, cur_group_);
}

Status Wal::SyncTo(IoContext& io, Lsn lsn) {
  const SimTime entered = io.now;
  // Group commit: if a device flush already in flight covers this LSN,
  // ride it instead of issuing another (InnoDB's group commit).
  if (lsn < pending_sync_lsn_ && io.now < pending_sync_done_) {
    io.AdvanceTo(pending_sync_done_);
    stats_.group_rides++;
    NoteCommitDurable(pending_sync_done_);
    if (h_sync_ns_) h_sync_ns_->Record(io.now - entered);
    return Status::OK();
  }
  // Seal the tail sector before making it durable: once fsynced, this
  // sector must never be rewritten by a later append (a torn rewrite
  // would destroy already-durable frames sharing it).
  if (next_lsn_ > synced_lsn_) PadToBoundary();
  if (lsn > written_lsn_ || !tail_.empty()) {
    DURASSD_RETURN_IF_ERROR(WriteOut(io));
  }
  // Barrier mode (Won et al.): the commit is made durable *and ordered* by
  // the device's epoch machinery — the barrier submission returns at
  // command-processing cost instead of waiting for a flush drain. The
  // other modes pay the fsync (whose cost the device configuration sets).
  const bool use_barrier =
      opts_.durability_mode == DurabilityMode::kBarrier;
  const SimFile::IoResult r =
      use_barrier ? file_->Barrier(io.now) : file_->Sync(io.now);
  DURASSD_RETURN_IF_ERROR(r.status);
  if (use_barrier) stats_.barrier_commits++;
  pending_sync_lsn_ = written_lsn_;
  pending_sync_done_ = r.done;
  synced_lsn_ = written_lsn_;
  io.AdvanceTo(r.done);
  stats_.syncs++;
  NoteCommitDurable(r.done);
  if (h_sync_ns_) h_sync_ns_->Record(io.now - entered);
  return Status::OK();
}

Status Wal::EnsureWritten(IoContext& io, Lsn lsn) {
  if (lsn >= written_lsn_) {
    return WriteOut(io);
  }
  return Status::OK();
}

Status Wal::ReadFrom(IoContext& io, Lsn from, uint32_t gen,
                     std::vector<WalRecord>* out, Lsn* end_lsn) {
  out->clear();
  Lsn pos = from;
  const Lsn end = file_->size();
  while (pos + kFrameHeader <= end) {
    std::string framing;
    SimFile::IoResult r = file_->Read(io.now, pos, kFrameHeader, &framing);
    DURASSD_RETURN_IF_ERROR(r.status);
    io.AdvanceTo(r.done);
    Slice f(framing);
    uint32_t len = 0, frame_gen = 0, crc = 0;
    GetFixed32(&f, &len);
    GetFixed32(&f, &frame_gen);
    GetFixed32(&f, &crc);
    if (len == 0 || frame_gen != gen || pos + kFrameHeader + len > end) {
      break;  // Torn tail or stale generation.
    }
    std::string payload;
    r = file_->Read(io.now, pos + kFrameHeader, len, &payload);
    DURASSD_RETURN_IF_ERROR(r.status);
    io.AdvanceTo(r.done);
    if (Crc32c(payload.data(), payload.size()) != crc) break;  // Torn tail.
    if (!payload.empty() &&
        payload[0] == static_cast<char>(WalRecordType::kPad)) {
      pos += kFrameHeader + len;  // Sector filler: consume, don't emit.
      continue;
    }
    WalRecord rec;
    if (!WalRecord::Decode(payload, &rec)) break;
    rec.lsn = pos;
    out->push_back(std::move(rec));
    pos += kFrameHeader + len;
  }
  if (end_lsn != nullptr) *end_lsn = pos;
  return Status::OK();
}

Status Wal::TruncateTail(Lsn lsn) {
  if (file_->size() <= lsn) return Status::OK();
  return file_->Truncate(lsn);
}

void Wal::ResetTo(Lsn lsn, uint32_t gen) {
  next_lsn_ = lsn;
  written_lsn_ = lsn;
  synced_lsn_ = lsn;
  last_checkpoint_lsn_ = lsn;
  generation_ = gen;
  tail_.clear();
}

}  // namespace durassd
