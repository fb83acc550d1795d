#include "kv/kvstore.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <iterator>

#include "common/coding.h"
#include "common/crc32c.h"

namespace durassd {

namespace {
constexpr uint32_t kHeaderMagic = 0xC0C4B453;
constexpr uint32_t kBlockSize = 4 * kKiB;
constexpr uint8_t kChunkDoc = 1;
constexpr uint8_t kChunkNode = 2;
// Chunk framing: [total_len u32][crc u32][type u8][body].
constexpr uint32_t kChunkOverhead = 9;
// Smallest document chunk: an empty key and an empty value, each behind its
// u32 length.
constexpr uint32_t kMinDocChunk = kChunkOverhead + 8;
// Node entry: [key len u32][key][off u64][len u32].
constexpr uint32_t kEntryFixed = 16;
// Longest root-to-leaf path Get and CowInsertRec follow. Only a node that
// refers back to itself or an ancestor makes a deeper one.
constexpr int kMaxTreeDepth = 64;

Slice KeyAt(const std::string& body, uint32_t pos) {
  const char* e = body.data() + pos;
  return Slice(e + 4, DecodeFixed32(e));
}
}  // namespace

Slice KvStore::Node::key(size_t i) const { return KeyAt(body, pos[i]); }

KvStore::NodeRef KvStore::Node::ref(size_t i) const {
  const char* e = body.data() + pos[i];
  e += 4 + DecodeFixed32(e);
  return NodeRef{DecodeFixed64(e), DecodeFixed32(e + 8)};
}

size_t KvStore::Node::LowerBound(Slice k) const {
  return std::lower_bound(pos.begin(), pos.end(), k,
                          [this](uint32_t p, Slice target) {
                            return KeyAt(body, p).compare(target) < 0;
                          }) -
         pos.begin();
}

size_t KvStore::Node::UpperBound(Slice k) const {
  return std::upper_bound(pos.begin(), pos.end(), k,
                          [this](Slice target, uint32_t p) {
                            return target.compare(KeyAt(body, p)) < 0;
                          }) -
         pos.begin();
}

void KvStore::Node::Insert(size_t i, Slice k, NodeRef r) {
  const uint32_t at =
      i < count() ? pos[i] : static_cast<uint32_t>(body.size());
  const uint32_t n = kEntryFixed + static_cast<uint32_t>(k.size());
  body.insert(at, n, '\0');
  char* e = body.data() + at;
  EncodeFixed32(e, static_cast<uint32_t>(k.size()));
  std::memcpy(e + 4, k.data(), k.size());
  EncodeFixed64(e + 4 + k.size(), r.off);
  EncodeFixed32(e + 12 + k.size(), r.len);
  pos.insert(pos.begin() + static_cast<std::ptrdiff_t>(i), at);
  for (size_t j = i + 1; j < pos.size(); ++j) pos[j] += n;
}

void KvStore::Node::Erase(size_t i) {
  const uint32_t at = pos[i];
  const uint32_t n =
      (i + 1 < count() ? pos[i + 1] : static_cast<uint32_t>(body.size())) -
      at;
  body.erase(at, n);
  pos.erase(pos.begin() + static_cast<std::ptrdiff_t>(i));
  for (size_t j = i; j < pos.size(); ++j) pos[j] -= n;
}

void KvStore::Node::SetRef(size_t i, NodeRef r) {
  char* e = body.data() + pos[i];
  e += 4 + DecodeFixed32(e);
  EncodeFixed64(e, r.off);
  EncodeFixed32(e + 8, r.len);
}

void KvStore::Node::SetKey(size_t i, Slice k) {
  const uint32_t at = pos[i];
  const uint32_t old_len = DecodeFixed32(body.data() + at);
  const uint32_t new_len = static_cast<uint32_t>(k.size());
  body.replace(at + 4, old_len, k.data(), new_len);
  EncodeFixed32(body.data() + at, new_len);
  for (size_t j = i + 1; j < pos.size(); ++j) {
    pos[j] = pos[j] - old_len + new_len;
  }
}

void KvStore::Node::SplitAt(size_t i, Node* right) {
  const uint32_t at = pos[i];
  right->leaf = leaf;
  right->body.assign(body, at, std::string::npos);
  right->pos.assign(pos.begin() + static_cast<std::ptrdiff_t>(i), pos.end());
  for (uint32_t& p : right->pos) p -= at;
  body.resize(at);
  pos.resize(i);
}

// The split rule's size estimate: it prices the count and each key length
// at two bytes where the chunk stores four. Kept as it is because the split
// points, and so every file byte, follow from it.
uint32_t KvStore::Node::SerializedSize() const {
  return kChunkOverhead + 3 + static_cast<uint32_t>(body.size()) -
         2 * static_cast<uint32_t>(count());
}

KvStore::KvStore(SimFileSystem* fs, SimFile* file, std::string name,
                 Options options)
    : fs_(fs),
      file_(file),
      name_(std::move(name)),
      opts_(options),
      h_commit_ns_(metrics_.GetHistogram("kv.commit_ns")),
      h_fsync_ns_(metrics_.GetHistogram("kv.fsync_ns")) {}

void KvStore::NoteCommitted() {
  committed_root_ = root_;
  committed_seq_ = seq_;
  committed_doc_count_ = doc_count_;
  committed_live_bytes_ = live_bytes_;
  committed_boundary_ = tail_base_;
}

void KvStore::RestoreCommitted() {
  root_ = committed_root_;
  seq_ = committed_seq_;
  doc_count_ = committed_doc_count_;
  live_bytes_ = committed_live_bytes_;
  tail_base_ = committed_boundary_;
  append_offset_ = committed_boundary_;
  tail_.clear();
  updates_since_commit_ = 0;
  // Cached nodes at or past the boundary describe the discarded tail.
  node_cache_.erase(node_cache_.lower_bound(committed_boundary_),
                    node_cache_.end());
}

Status KvStore::ReadOnlyError() const {
  return Status::ResourceExhausted("kvstore is read-only: " +
                                   degraded_reason_);
}

void KvStore::EnterReadOnly(IoContext& io, const Status& cause) {
  if (read_only_) return;
  read_only_ = true;
  degraded_reason_ = cause.message();
  const uint64_t dropped = seq_ - committed_seq_;
  RestoreCommitted();
  stats_.degraded_aborts++;
  if (tracer_) {
    tracer_->Record(io.now, TraceEventType::kTxnAbort, dropped,
                    static_cast<uint64_t>(cause.code()));
  }
}

StatusOr<std::unique_ptr<KvStore>> KvStore::Open(IoContext& io,
                                                 SimFileSystem* fs,
                                                 const std::string& name,
                                                 Options options) {
  const bool existing = fs->Exists(name);
  SimFile* file = fs->Open(name);
  auto store = std::unique_ptr<KvStore>(
      new KvStore(fs, file, name, options));
  if (existing && file->size() > 0) {
    DURASSD_RETURN_IF_ERROR(store->Recover(io));
  }
  return store;
}

// ---------------------------------------------------------------------------
// Chunk encoding
// ---------------------------------------------------------------------------

size_t KvStore::BeginChunk(uint8_t type) {
  const size_t start = tail_.size();
  tail_.append(8, '\0');  // total_len and crc, filled in by EndChunk.
  tail_.push_back(static_cast<char>(type));
  return start;
}

uint64_t KvStore::EndChunk(size_t start, uint32_t* total_len) {
  char* chunk = tail_.data() + start;
  const size_t framed = tail_.size() - start - 8;  // Type byte + body.
  *total_len = static_cast<uint32_t>(framed) + 8;
  EncodeFixed32(chunk, *total_len);
  EncodeFixed32(chunk + 4, Crc32c(chunk + 8, framed));
  append_offset_ = tail_base_ + tail_.size();
  return tail_base_ + start;
}

KvStore::NodeRef KvStore::AppendNode(Node node) {
  const size_t start = BeginChunk(kChunkNode);
  tail_.push_back(node.leaf ? 1 : 0);
  PutFixed32(&tail_, static_cast<uint32_t>(node.count()));
  tail_.append(node.body);
  uint32_t len = 0;
  const uint64_t off = EndChunk(start, &len);
  stats_.node_appends++;
  node_cache_[off] = std::move(node);
  if (node_cache_.size() > 4096) {
    // Immutable cache: evicting the oldest offsets is safe and cheap.
    node_cache_.erase(node_cache_.begin(),
                      std::next(node_cache_.begin(), 1024));
  }
  return NodeRef{off, len};
}

uint64_t KvStore::AppendDoc(Slice key, Slice value, uint32_t* len) {
  const size_t start = BeginChunk(kChunkDoc);
  PutLengthPrefixed(&tail_, key);
  PutLengthPrefixed(&tail_, value);
  const uint64_t off = EndChunk(start, len);
  stats_.doc_appends++;
  return off;
}

Status KvStore::ReadChunk(IoContext& io, NodeRef ref, std::string* buf,
                          Slice* raw) {
  if (ref.off >= tail_base_) {
    const uint64_t at = ref.off - tail_base_;
    if (at > tail_.size() || ref.len > tail_.size() - at) {
      return Status::Corruption("chunk reference past the tail");
    }
    *raw = Slice(tail_.data() + at, ref.len);
    return Status::OK();
  }
  if (ref.len > file_->size() || ref.off > file_->size() - ref.len) {
    return Status::Corruption("chunk reference past the file");
  }
  const SimFile::IoResult r = file_->Read(io.now, ref.off, ref.len, buf);
  DURASSD_RETURN_IF_ERROR(r.status);
  io.AdvanceTo(r.done);
  *raw = Slice(*buf);
  return Status::OK();
}

Status KvStore::LoadNode(IoContext& io, NodeRef ref, const Node** out) {
  auto cached = node_cache_.find(ref.off);
  if (cached != node_cache_.end()) {
    *out = &cached->second;
    return Status::OK();
  }
  std::string buf;
  Slice in;
  DURASSD_RETURN_IF_ERROR(ReadChunk(io, ref, &buf, &in));
  if (in.size() < kChunkOverhead) return Status::Corruption("short node");
  const size_t raw_size = in.size();
  uint32_t total = 0, crc = 0;
  GetFixed32(&in, &total);
  GetFixed32(&in, &crc);
  if (total != raw_size || Crc32c(in.data(), in.size()) != crc) {
    return Status::Corruption("node chunk crc mismatch");
  }
  if (in[0] != kChunkNode) return Status::Corruption("not a node chunk");
  in.remove_prefix(1);

  Node node;
  if (in.empty()) return Status::Corruption("node body empty");
  node.leaf = in[0] != 0;
  in.remove_prefix(1);
  uint32_t count = 0;
  if (!GetFixed32(&in, &count)) return Status::Corruption("node count");
  // Index the entries, each of which must lie wholly inside the chunk.
  node.pos.reserve(std::min<size_t>(count, in.size() / kEntryFixed));
  size_t end = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t left = in.size() - end;
    if (left < kEntryFixed ||
        DecodeFixed32(in.data() + end) > left - kEntryFixed) {
      return Status::Corruption("node entry truncated");
    }
    node.pos.push_back(static_cast<uint32_t>(end));
    end += kEntryFixed + DecodeFixed32(in.data() + end);
  }
  node.body.assign(in.data(), end);
  cached = node_cache_.insert_or_assign(ref.off, std::move(node)).first;
  *out = &cached->second;
  return Status::OK();
}

Status KvStore::LoadDoc(IoContext& io, NodeRef doc, std::string* key,
                        std::string* value) {
  std::string buf;
  Slice in;
  DURASSD_RETURN_IF_ERROR(ReadChunk(io, doc, &buf, &in));
  if (in.size() < kChunkOverhead) return Status::Corruption("short doc");
  const size_t raw_size = in.size();
  uint32_t total = 0, crc = 0;
  GetFixed32(&in, &total);
  GetFixed32(&in, &crc);
  if (total != raw_size || Crc32c(in.data(), in.size()) != crc) {
    return Status::Corruption("doc chunk crc mismatch");
  }
  if (in[0] != kChunkDoc) return Status::Corruption("not a doc chunk");
  in.remove_prefix(1);
  Slice k, v;
  if (!GetLengthPrefixed(&in, &k) || !GetLengthPrefixed(&in, &v)) {
    return Status::Corruption("doc truncated");
  }
  if (key != nullptr) *key = k.ToString();
  if (value != nullptr) *value = v.ToString();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// COW B+-tree
// ---------------------------------------------------------------------------

Status KvStore::CowInsertRec(IoContext& io, NodeRef ref, int depth, Slice key,
                             bool is_delete, uint64_t doc_off,
                             uint32_t doc_len, bool* found, CowResult* out) {
  if (depth >= kMaxTreeDepth) return Status::Corruption("tree too deep");
  const Node* cached = nullptr;
  DURASSD_RETURN_IF_ERROR(LoadNode(io, ref, &cached));
  // This level's one copy: the cached node stays immutable (and the
  // recursion below may evict it). Room for the one entry a level can gain.
  Node node;
  node.leaf = cached->leaf;
  node.body.reserve(cached->body.size() + kEntryFixed + key.size());
  node.body.append(cached->body);
  node.pos.reserve(cached->count() + 1);
  node.pos.assign(cached->pos.begin(), cached->pos.end());

  if (node.leaf) {
    const size_t i = node.LowerBound(key);
    const bool exact = i < node.count() && node.key(i) == key;
    *found = exact;
    if (is_delete) {
      if (!exact) return Status::NotFound();
      live_bytes_ -= node.ref(i).len;
      node.Erase(i);
    } else if (exact) {
      live_bytes_ += doc_len;
      live_bytes_ -= node.ref(i).len;
      node.SetRef(i, NodeRef{doc_off, doc_len});
    } else {
      live_bytes_ += doc_len;
      node.Insert(i, key, NodeRef{doc_off, doc_len});
    }
  } else {
    if (node.count() == 0) return Status::Corruption("empty internal node");
    // Descend into the last entry with key <= target; a key smaller than
    // every separator descends leftmost (and lowers that separator through
    // the child's new minimum).
    size_t i = node.UpperBound(key);
    if (i > 0) --i;
    CowResult child;
    DURASSD_RETURN_IF_ERROR(CowInsertRec(io, node.ref(i), depth + 1, key,
                                         is_delete, doc_off, doc_len, found,
                                         &child));
    node.SetRef(i, child.left);
    // Keep the separator = min key of the child subtree.
    if (child.left_min) node.SetKey(i, *child.left_min);
    if (child.split) node.Insert(i + 1, child.sep, child.right);
  }

  // Serialize (splitting if oversized).
  if (node.SerializedSize() > opts_.node_size && node.count() >= 2) {
    Node right;
    node.SplitAt(node.count() / 2, &right);
    out->left_min = node.key(0).ToString();
    out->sep = right.key(0).ToString();
    out->left = AppendNode(std::move(node));
    out->split = true;
    out->right = AppendNode(std::move(right));
  } else {
    if (node.count() > 0) out->left_min = node.key(0).ToString();
    out->left = AppendNode(std::move(node));
    out->split = false;
  }
  return Status::OK();
}

StatusOr<KvStore::NodeRef> KvStore::CowUpdate(IoContext& io, NodeRef root,
                                              Slice key, bool is_delete,
                                              uint64_t doc_off,
                                              uint32_t doc_len, bool* found) {
  *found = false;
  if (root.len == 0) {
    if (is_delete) return Status::NotFound();
    Node leaf;
    leaf.leaf = true;
    leaf.Insert(0, key, NodeRef{doc_off, doc_len});
    live_bytes_ += doc_len;
    return AppendNode(std::move(leaf));
  }
  CowResult res;
  DURASSD_RETURN_IF_ERROR(CowInsertRec(io, root, 0, key, is_delete, doc_off,
                                       doc_len, found, &res));
  if (!res.split) return res.left;
  Node new_root;
  new_root.leaf = false;
  new_root.Insert(0, res.left_min ? Slice(*res.left_min) : Slice(), res.left);
  new_root.Insert(1, res.sep, res.right);
  return AppendNode(std::move(new_root));
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

Status KvStore::Put(IoContext& io, Slice key, Slice value) {
  if (read_only_) return ReadOnlyError();
  stats_.puts++;
  uint32_t doc_len = 0;
  const uint64_t doc_off = AppendDoc(key, value, &doc_len);
  bool found = false;
  StatusOr<NodeRef> new_root =
      CowUpdate(io, root_, key, /*is_delete=*/false, doc_off, doc_len,
                &found);
  if (!new_root.ok()) return new_root.status();
  root_ = *new_root;
  if (!found) doc_count_++;
  seq_++;
  updates_since_commit_++;
  Status s = MaybeCommit(io);
  if (s.IsResourceExhausted()) {
    EnterReadOnly(io, s);
    return ReadOnlyError();
  }
  return s;
}

Status KvStore::Delete(IoContext& io, Slice key) {
  if (read_only_) return ReadOnlyError();
  stats_.deletes++;
  bool found = false;
  StatusOr<NodeRef> new_root =
      CowUpdate(io, root_, key, /*is_delete=*/true, 0, 0, &found);
  if (!new_root.ok()) return new_root.status();
  root_ = *new_root;
  doc_count_--;
  seq_++;
  updates_since_commit_++;
  Status s = MaybeCommit(io);
  if (s.IsResourceExhausted()) {
    EnterReadOnly(io, s);
    return ReadOnlyError();
  }
  return s;
}

Status KvStore::Get(IoContext& io, Slice key, std::string* value) {
  stats_.gets++;
  if (root_.len == 0) return Status::NotFound();
  NodeRef ref = root_;
  for (int depth = 0; depth < kMaxTreeDepth; ++depth) {
    const Node* node = nullptr;
    DURASSD_RETURN_IF_ERROR(LoadNode(io, ref, &node));
    if (node->leaf) {
      const size_t i = node->LowerBound(key);
      if (i == node->count() || node->key(i) != key) {
        return Status::NotFound();
      }
      return LoadDoc(io, node->ref(i), nullptr, value);
    }
    const size_t i = node->UpperBound(key);
    if (i == 0) return Status::NotFound();
    ref = node->ref(i - 1);
  }
  return Status::Corruption("tree too deep");
}

Status KvStore::MaybeCommit(IoContext& io) {
  if (updates_since_commit_ >= opts_.batch_size) {
    return Commit(io);
  }
  return Status::OK();
}

Status KvStore::WriteHeader(IoContext& io) {
  // Pad to the next 4KB boundary, then append the header block.
  const uint64_t size_now = tail_base_ + tail_.size();
  const uint64_t pad =
      (kBlockSize - size_now % kBlockSize) % kBlockSize;
  tail_.append(pad, '\0');

  std::string body;
  PutFixed32(&body, kHeaderMagic);
  PutFixed64(&body, seq_);
  PutFixed64(&body, root_.off);
  PutFixed32(&body, root_.len);
  PutFixed64(&body, doc_count_);
  PutFixed64(&body, live_bytes_);
  std::string block;
  PutFixed32(&block, Crc32c(body.data(), body.size()));
  block.append(body);
  block.resize(kBlockSize, '\0');
  tail_.append(block);
  append_offset_ = tail_base_ + tail_.size();

  // Write data (everything buffered), then make it durable. The fsync
  // orders the header after the data it points to when barriers are on;
  // kBarrier gets the same ordering from the device's epoch machinery
  // without waiting on media.
  const SimFile::IoResult w = file_->Write(io.now, tail_base_, tail_);
  DURASSD_RETURN_IF_ERROR(w.status);
  io.AdvanceTo(w.done);
  const SimTime sync_start = io.now;
  const bool use_barrier =
      opts_.durability_mode == DurabilityMode::kBarrier;
  const SimFile::IoResult s =
      use_barrier ? file_->Barrier(io.now) : file_->Sync(io.now);
  DURASSD_RETURN_IF_ERROR(s.status);
  if (use_barrier) stats_.barrier_commits++;
  io.AdvanceTo(s.done);
  h_fsync_ns_->Record(io.now - sync_start);
  // Group-commit accounting: headers whose fsync coalesced into the same
  // device sync (same completion instant) share one durability point.
  if (s.done == last_sync_done_) {
    cur_group_++;
  } else {
    cur_group_ = 1;
    stats_.sync_groups++;
    last_sync_done_ = s.done;
  }
  stats_.max_group_commit = std::max(stats_.max_group_commit, cur_group_);
  if (tracer_) {
    tracer_->Record(io.now, TraceEventType::kFsync, seq_,
                    static_cast<uint64_t>(io.now - sync_start));
  }

  tail_base_ = append_offset_;
  tail_.clear();
  NoteCommitted();
  return Status::OK();
}

Status KvStore::Commit(IoContext& io) {
  if (read_only_) return ReadOnlyError();
  if (updates_since_commit_ == 0 && tail_.empty()) return Status::OK();
  const SimTime entered = io.now;
  stats_.commits++;
  updates_since_commit_ = 0;
  {
    Status s = WriteHeader(io);
    if (s.IsResourceExhausted()) {
      EnterReadOnly(io, s);
      return ReadOnlyError();
    }
    DURASSD_RETURN_IF_ERROR(s);
  }
  h_commit_ns_->Record(io.now - entered);
  if (tracer_) {
    tracer_->Record(io.now, TraceEventType::kKvCommit, seq_,
                    static_cast<uint64_t>(io.now - entered));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

Status KvStore::Recover(IoContext& io) {
  const uint64_t file_size = file_->size();
  uint64_t boundary = file_size / kBlockSize * kBlockSize;
  // Scan backward over 4KB boundaries for the newest intact header whose
  // root node is readable.
  while (boundary >= kBlockSize) {
    const uint64_t header_off = boundary - kBlockSize;
    std::string block;
    const SimFile::IoResult r =
        file_->Read(io.now, header_off, kBlockSize, &block);
    DURASSD_RETURN_IF_ERROR(r.status);
    io.AdvanceTo(r.done);
    boundary -= kBlockSize;
    if (block.size() < 44) continue;
    Slice in(block);
    uint32_t crc = 0, magic = 0;
    GetFixed32(&in, &crc);
    const char* body = in.data();
    Slice peek = in;
    GetFixed32(&peek, &magic);
    if (magic != kHeaderMagic) continue;
    if (Crc32c(body, 40) != crc) continue;
    Slice parse(body, 40);
    uint64_t seq = 0, root_off = 0, docs = 0, live = 0;
    uint32_t m = 0, root_len = 0;
    GetFixed32(&parse, &m);
    GetFixed64(&parse, &seq);
    GetFixed64(&parse, &root_off);
    GetFixed32(&parse, &root_len);
    GetFixed64(&parse, &docs);
    GetFixed64(&parse, &live);

    // The file before the header must be able to hold its documents.
    if (docs > header_off / kMinDocChunk) continue;
    // Validate the root.
    root_ = NodeRef{root_off, root_len};
    if (root_len != 0) {
      const Node* probe = nullptr;
      tail_base_ = header_off + kBlockSize;  // So LoadNode reads the file.
      if (!LoadNode(io, root_, &probe).ok()) continue;
    }
    seq_ = seq;
    doc_count_ = docs;
    live_bytes_ = live;
    append_offset_ = header_off + kBlockSize;
    tail_base_ = append_offset_;
    stats_.recovered_seq = seq;
    // Drop anything beyond the recovered header so a later backward scan
    // cannot resurrect a stale newer-looking header.
    DURASSD_RETURN_IF_ERROR(file_->Truncate(append_offset_));
    NoteCommitted();
    return Status::OK();
  }
  // No intact header: empty store.
  root_ = NodeRef{};
  seq_ = 0;
  doc_count_ = 0;
  live_bytes_ = 0;
  append_offset_ = 0;
  tail_base_ = 0;
  NoteCommitted();
  return Status::OK();
}

}  // namespace durassd
