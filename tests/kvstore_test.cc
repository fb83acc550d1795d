#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "db/io_context.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

class KvHarness {
 public:
  KvHarness(bool durable_cache, bool write_barriers, uint32_t batch_size) {
    SsdConfig dc =
        durable_cache ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
    dc.geometry = FlashGeometry::Tiny();
    dc.geometry.blocks_per_plane = 256;
    dc.geometry.pages_per_block = 32;  // ~256 MiB raw.
    dc.write_buffer_sectors = 256;
    dc.cache_capacity_sectors = 1024;
    dc.capacitor_budget_bytes = 16 * kMiB;
    device_ = std::make_unique<SsdDevice>(dc);
    SimFileSystem::Options fso;
    fso.write_barriers = write_barriers;
    fs_ = std::make_unique<SimFileSystem>(device_.get(), fso);
    batch_size_ = batch_size;
  }

  Status OpenStore(uint32_t node_size = 4 * kKiB) {
    KvStore::Options o;
    o.batch_size = batch_size_;
    o.node_size = node_size;
    auto s = KvStore::Open(io_, fs_.get(), "bucket.couch", o);
    if (!s.ok()) return s.status();
    store_ = std::move(*s);
    return Status::OK();
  }

  void CloseStore() { store_.reset(); }

  void Crash() {
    store_.reset();
    device_->PowerCut(io_.now);
    device_->PowerOn();
    io_.now = 0;
  }

  KvStore* store() { return store_.get(); }
  IoContext& io() { return io_; }
  SimFileSystem* fs() { return fs_.get(); }

 private:
  std::unique_ptr<SsdDevice> device_;
  std::unique_ptr<SimFileSystem> fs_;
  std::unique_ptr<KvStore> store_;
  uint32_t batch_size_;
  IoContext io_;
};

TEST(KvStoreTest, PutGetRoundTrip) {
  KvHarness h(true, true, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  ASSERT_TRUE(h.store()->Put(h.io(), "doc1", "{\"a\":1}").ok());
  std::string v;
  ASSERT_TRUE(h.store()->Get(h.io(), "doc1", &v).ok());
  EXPECT_EQ(v, "{\"a\":1}");
  EXPECT_EQ(h.store()->doc_count(), 1u);
}

TEST(KvStoreTest, GetMissingNotFound) {
  KvHarness h(true, true, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  std::string v;
  EXPECT_TRUE(h.store()->Get(h.io(), "nope", &v).IsNotFound());
}

TEST(KvStoreTest, UpdateReplacesDocument) {
  KvHarness h(true, true, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  ASSERT_TRUE(h.store()->Put(h.io(), "k", "v1").ok());
  ASSERT_TRUE(h.store()->Put(h.io(), "k", "v2").ok());
  std::string v;
  ASSERT_TRUE(h.store()->Get(h.io(), "k", &v).ok());
  EXPECT_EQ(v, "v2");
  EXPECT_EQ(h.store()->doc_count(), 1u);
}

TEST(KvStoreTest, DeleteRemoves) {
  KvHarness h(true, true, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  ASSERT_TRUE(h.store()->Put(h.io(), "k", "v").ok());
  ASSERT_TRUE(h.store()->Delete(h.io(), "k").ok());
  std::string v;
  EXPECT_TRUE(h.store()->Get(h.io(), "k", &v).IsNotFound());
  EXPECT_EQ(h.store()->doc_count(), 0u);
  EXPECT_TRUE(h.store()->Delete(h.io(), "k").IsNotFound());
}

TEST(KvStoreTest, ManyDocsSplitTree) {
  KvHarness h(true, true, 100);
  ASSERT_TRUE(h.OpenStore().ok());
  const std::string value(1024, 'd');  // YCSB-sized documents.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        h.store()->Put(h.io(), "user" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(h.store()->Commit(h.io()).ok());
  EXPECT_EQ(h.store()->doc_count(), 2000u);
  for (int i = 0; i < 2000; i += 37) {
    std::string v;
    ASSERT_TRUE(h.store()->Get(h.io(), "user" + std::to_string(i), &v).ok())
        << i;
    EXPECT_EQ(v.size(), value.size());
  }
}

TEST(KvStoreTest, RandomizedMatchesModel) {
  KvHarness h(true, true, 10);
  ASSERT_TRUE(h.OpenStore().ok());
  Random rng(23);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 4000; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(300));
    if (rng.Bernoulli(0.7)) {
      const std::string value = "v" + std::to_string(rng.Next() % 10000);
      ASSERT_TRUE(h.store()->Put(h.io(), key, value).ok());
      model[key] = value;
    } else {
      const Status s = h.store()->Delete(h.io(), key);
      if (model.erase(key) > 0) {
        EXPECT_TRUE(s.ok());
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    }
  }
  EXPECT_EQ(h.store()->doc_count(), model.size());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(h.store()->Get(h.io(), k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
}

TEST(KvStoreTest, BatchSizeControlsFsyncFrequency) {
  KvHarness h1(true, true, 1);
  KvHarness h100(true, true, 100);
  ASSERT_TRUE(h1.OpenStore().ok());
  ASSERT_TRUE(h100.OpenStore().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(h1.store()->Put(h1.io(), "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(
        h100.store()->Put(h100.io(), "k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(h1.store()->stats().commits, 200u);
  EXPECT_EQ(h100.store()->stats().commits, 2u);
  // Fewer fsyncs => dramatically less virtual time (Table 5's effect).
  EXPECT_LT(h100.io().now * 5, h1.io().now);
}

TEST(KvStoreTest, CommittedBatchesSurviveCrash) {
  KvHarness h(true, true, 10);
  ASSERT_TRUE(h.OpenStore().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.store()->Put(h.io(), "k" + std::to_string(i), "v").ok());
  }
  // 100 puts at batch 10 => all committed.
  h.Crash();
  ASSERT_TRUE(h.OpenStore().ok());
  EXPECT_EQ(h.store()->doc_count(), 100u);
  for (int i = 0; i < 100; ++i) {
    std::string v;
    ASSERT_TRUE(h.store()->Get(h.io(), "k" + std::to_string(i), &v).ok())
        << i;
  }
}

TEST(KvStoreTest, UncommittedTailLostOnCrash) {
  KvHarness h(true, true, 100);
  ASSERT_TRUE(h.OpenStore().ok());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(h.store()->Put(h.io(), "k" + std::to_string(i), "v").ok());
  }
  // 150 puts at batch 100: one commit at 100; 50 in the tail.
  h.Crash();
  ASSERT_TRUE(h.OpenStore().ok());
  EXPECT_EQ(h.store()->doc_count(), 100u);
  std::string v;
  EXPECT_TRUE(h.store()->Get(h.io(), "k99", &v).ok());
  EXPECT_TRUE(h.store()->Get(h.io(), "k100", &v).IsNotFound());
}

TEST(KvStoreTest, VolatileNoBarrierLosesCommittedBatches) {
  // The Couchbase version of the paper's warning: barriers off on a
  // volatile device, commits evaporate.
  KvHarness h(false, false, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(h.store()->Put(h.io(), "k" + std::to_string(i), "v").ok());
  }
  h.Crash();
  ASSERT_TRUE(h.OpenStore().ok());
  EXPECT_LT(h.store()->doc_count(), 30u);
}

TEST(KvStoreTest, DuraSsdNoBarrierKeepsCommittedBatches) {
  KvHarness h(true, false, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(h.store()->Put(h.io(), "k" + std::to_string(i), "v").ok());
  }
  h.Crash();
  ASSERT_TRUE(h.OpenStore().ok());
  EXPECT_EQ(h.store()->doc_count(), 30u);
}

TEST(KvStoreTest, EachUpdateRewritesRootToLeafPath) {
  // Sec. 4.3.3: an update appends the doc plus every node on the path.
  KvHarness h(true, true, 1000000);  // Never auto-commit.
  ASSERT_TRUE(h.OpenStore().ok());
  const std::string value(1024, 'p');
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(
        h.store()->Put(h.io(), "doc" + std::to_string(i), value).ok());
  }
  const uint64_t nodes_before = h.store()->stats().node_appends;
  ASSERT_TRUE(h.store()->Put(h.io(), "doc0", value).ok());
  const uint64_t path_nodes = h.store()->stats().node_appends - nodes_before;
  EXPECT_GE(path_nodes, 2u);  // Root + leaf at least.
  EXPECT_LE(path_nodes, 5u);
}

TEST(KvStoreTest, SeededMixKeepsPinnedFileBytes) {
  // Small nodes give a three-level tree with leaf and internal splits and
  // new roots. The mix empties whole leaves and appends far more than the
  // node cache's 4096 entries (so it evicts). The file bytes, node appends
  // and final virtual time are pinned: a change to the append path or the
  // node cache that moves one byte or one virtual nanosecond fails here.
  KvHarness h(true, true, 20);
  ASSERT_TRUE(h.OpenStore(/*node_size=*/512).ok());
  Random rng(777);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 6000; ++op) {
    const std::string key = "key" + std::to_string(rng.Uniform(1500));
    if (op == 2500) {
      // Empty every leaf of the key range ["key2", "key4").
      for (int i = 0; i < 1500; ++i) {
        const std::string k = "key" + std::to_string(i);
        if (k[3] != '2' && k[3] != '3') continue;
        const Status s = h.store()->Delete(h.io(), k);
        ASSERT_EQ(s.ok(), model.erase(k) > 0) << k << " " << s.ToString();
      }
    }
    if (rng.Bernoulli(0.8)) {
      const std::string value(40 + rng.Uniform(200),
                              static_cast<char>('a' + op % 26));
      ASSERT_TRUE(h.store()->Put(h.io(), key, value).ok());
      model[key] = value;
    } else {
      const Status s = h.store()->Delete(h.io(), key);
      ASSERT_EQ(s.ok(), model.erase(key) > 0) << key << " " << s.ToString();
    }
  }
  ASSERT_TRUE(h.store()->Commit(h.io()).ok());
  EXPECT_EQ(h.store()->doc_count(), model.size());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(h.store()->Get(h.io(), k, &got).ok()) << k;
    ASSERT_EQ(got, v) << k;
  }
  EXPECT_EQ(h.store()->stats().node_appends, 16517u);
  EXPECT_EQ(h.io().now, 1522408196);

  SimFile* file = h.fs()->Open("bucket.couch");
  std::string bytes;
  ASSERT_TRUE(file->Read(h.io().now, 0, file->size(), &bytes).status.ok());
  ASSERT_EQ(bytes.size(), h.store()->file_bytes());
  uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001B3ull;
  }
  EXPECT_EQ(hash, 7107476421147866260ull);
}

// --- Decoding untrusted bytes ----------------------------------------------

TEST(KvStoreTest, HeaderRootPastItsOwnEndIsSkipped) {
  // The file's only block is a header with a valid CRC whose root lies at
  // 8192, past the header's own end at 4096. Recovery must reject that
  // header (and so find no store), not read outside its buffers.
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.geometry.blocks_per_plane = 128;
  SsdDevice device(cfg);
  SimFileSystem fs(&device, SimFileSystem::Options{});
  std::string body;
  PutFixed32(&body, 0xC0C4B453);  // Header magic.
  PutFixed64(&body, 1);           // seq
  PutFixed64(&body, 8192);        // root offset
  PutFixed32(&body, 64);          // root length
  PutFixed64(&body, 1);           // documents
  PutFixed64(&body, 100);         // live bytes
  std::string block;
  PutFixed32(&block, Crc32c(body.data(), body.size()));
  block += body;
  block.resize(4096, '\0');
  ASSERT_TRUE(fs.Open("s.couch")->Write(0, 0, block).status.ok());

  IoContext io;
  auto store = KvStore::Open(io, &fs, "s.couch", KvStore::Options{});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->committed_seq(), 0u);
  EXPECT_EQ((*store)->doc_count(), 0u);
  std::string v;
  EXPECT_TRUE((*store)->Get(io, "k", &v).IsNotFound());
}

// A store with two commits: its file bytes, and what recovery must land on
// when the newest header is unusable.
struct TwoHeaderStore {
  std::string bytes;
  std::map<std::string, std::string> first;  ///< State at the first header.
  uint64_t first_seq = 0;
  std::vector<std::string> later_keys;  ///< Keys only the newest has.
};

void BuildTwoHeaderStore(KvHarness* h, TwoHeaderStore* st) {
  ASSERT_TRUE(h->OpenStore().ok());
  for (int i = 0; i < 5; ++i) {
    const std::string k = "key" + std::to_string(i);
    st->first[k] = "v1-" + std::to_string(i);
    ASSERT_TRUE(h->store()->Put(h->io(), k, st->first[k]).ok());
  }
  ASSERT_TRUE(h->store()->Commit(h->io()).ok());
  st->first_seq = h->store()->committed_seq();
  ASSERT_TRUE(h->store()->Put(h->io(), "key0", "v2-0").ok());
  for (int i = 5; i < 10; ++i) {
    st->later_keys.push_back("key" + std::to_string(i));
    ASSERT_TRUE(h->store()->Put(h->io(), st->later_keys.back(), "v2").ok());
  }
  ASSERT_TRUE(h->store()->Commit(h->io()).ok());
  h->CloseStore();
  SimFile* file = h->fs()->Open("bucket.couch");
  ASSERT_TRUE(
      file->Read(h->io().now, 0, file->size(), &st->bytes).status.ok());
}

// Reopens the store and checks it recovered exactly the first header's
// state.
void ExpectFirstHeaderState(KvHarness* h, const TwoHeaderStore& st) {
  ASSERT_TRUE(h->OpenStore().ok());
  EXPECT_EQ(h->store()->committed_seq(), st.first_seq);
  EXPECT_EQ(h->store()->doc_count(), st.first.size());
  std::string got;
  for (const auto& [k, v] : st.first) {
    ASSERT_TRUE(h->store()->Get(h->io(), k, &got).ok()) << k;
    EXPECT_EQ(got, v) << k;
  }
  for (const std::string& k : st.later_keys) {
    EXPECT_TRUE(h->store()->Get(h->io(), k, &got).IsNotFound()) << k;
  }
}

// Rewrites the header block at `off` with a fresh CRC over its body.
void ResealHeader(std::string* bytes, size_t off) {
  EncodeFixed32(bytes->data() + off, Crc32c(bytes->data() + off + 4, 40));
}

TEST(KvStoreTest, ImplausibleDocCountIsSkipped) {
  // The newest header is CRC-valid but claims 2^60 documents, more than
  // the file before it can hold. Recovery must skip it, as it skips a
  // header whose root lies past its end, and land on the previous header.
  KvHarness h(true, true, 100000);
  TwoHeaderStore st;
  ASSERT_NO_FATAL_FAILURE(BuildTwoHeaderStore(&h, &st));
  const size_t header = st.bytes.size() - 4096;
  // [crc u32][magic u32][seq u64][root off u64][root len u32][docs u64].
  EncodeFixed64(st.bytes.data() + header + 28, 1ull << 60);
  ResealHeader(&st.bytes, header);
  ASSERT_TRUE(h.fs()->Open("bucket.couch")->Write(0, 0, st.bytes).status.ok());
  ExpectFirstHeaderState(&h, st);
}

TEST(KvStoreTest, MutatedNewestHeaderFallsBackToThePreviousOne) {
  // Seeded damage to the newest header block of a real two-commit store:
  // one to three flipped bits in the CRC-covered bytes, a file truncated
  // inside the block, or a resealed document count the file cannot hold.
  // Open must not crash, the damaged header must never be accepted, and
  // recovery must land on the previous header.
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    KvHarness h(true, true, 100000);
    TwoHeaderStore st;
    ASSERT_NO_FATAL_FAILURE(BuildTwoHeaderStore(&h, &st));
    const size_t header = st.bytes.size() - 4096;
    SimFile* file = h.fs()->Open("bucket.couch");
    switch (seed % 3) {
      case 0: {
        const uint64_t flips = 1 + rng.Uniform(3);
        std::vector<uint64_t> bits;
        while (bits.size() < flips) {
          const uint64_t b = rng.Uniform(44 * 8);
          if (std::find(bits.begin(), bits.end(), b) == bits.end()) {
            bits.push_back(b);
          }
        }
        for (const uint64_t b : bits) {
          st.bytes[header + b / 8] =
              static_cast<char>(st.bytes[header + b / 8] ^ (1 << (b % 8)));
        }
        ASSERT_TRUE(file->Write(0, 0, st.bytes).status.ok());
        break;
      }
      case 1:
        ASSERT_TRUE(file->Truncate(header + rng.Uniform(4096)).ok());
        break;
      default:
        EncodeFixed64(st.bytes.data() + header + 28,
                      header / 17 + 1 + rng.Uniform(1ull << 62));
        ResealHeader(&st.bytes, header);
        ASSERT_TRUE(file->Write(0, 0, st.bytes).status.ok());
        break;
    }
    ExpectFirstHeaderState(&h, st);
  }
}

// One entry of a node chunk as the test reads it from the file bytes.
struct RawEntry {
  std::string key;
  uint64_t off;
  uint32_t len;
  size_t at;  ///< File offset of the entry's key length.
};

// Parses the node chunk at `off` of `file`: [total u32][crc u32][type u8]
// [leaf u8][count u32] then [key len u32][key][off u64][len u32] each.
bool ParseNodeChunk(const std::string& file, uint64_t off, bool* leaf,
                    std::vector<RawEntry>* entries) {
  if (off + 14 > file.size() || file[off + 8] != 2) return false;
  *leaf = file[off + 9] != 0;
  const uint32_t count = DecodeFixed32(file.data() + off + 10);
  size_t at = off + 14;
  entries->clear();
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t klen = DecodeFixed32(file.data() + at);
    RawEntry e{file.substr(at + 4, klen),
               DecodeFixed64(file.data() + at + 4 + klen),
               DecodeFixed32(file.data() + at + 12 + klen), at};
    entries->push_back(e);
    at += 16 + klen;
  }
  return true;
}

// Recomputes the CRC of the chunk at `off` after its body was edited.
void ResealChunk(std::string* file, uint64_t off) {
  const uint32_t total = DecodeFixed32(file->data() + off);
  EncodeFixed32(file->data() + off + 4,
                Crc32c(file->data() + off + 8, total - 8));
}

TEST(KvStoreTest, MutatedNodeChunksReadAsCorruption) {
  // Seeded edits of a real store's node chunks, each resealed with a valid
  // CRC: a leaf count past the body, a leaf key length past the chunk, and
  // a root child offset past the file (or past the empty tail). Every Get
  // must return the right value or Corruption, and a Get that reaches the
  // edited node must return Corruption.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    KvHarness h(true, true, 100000);
    ASSERT_TRUE(h.OpenStore(/*node_size=*/512).ok());
    std::map<std::string, std::string> model;
    for (int i = 0; i < 300; ++i) {
      const std::string key = "key" + std::to_string(1000 + i);
      model[key] = std::string(20 + rng.Uniform(60), static_cast<char>('a' + i % 26));
      ASSERT_TRUE(h.store()->Put(h.io(), key, model[key]).ok());
    }
    ASSERT_TRUE(h.store()->Commit(h.io()).ok());
    h.CloseStore();

    SimFile* file = h.fs()->Open("bucket.couch");
    std::string bytes;
    ASSERT_TRUE(file->Read(h.io().now, 0, file->size(), &bytes).status.ok());
    // The one header is the last block: [crc][magic][seq][root off][len].
    const uint64_t root_off =
        DecodeFixed64(bytes.data() + bytes.size() - 4096 + 16);
    bool leaf = false;
    std::vector<RawEntry> root;
    ASSERT_TRUE(ParseNodeChunk(bytes, root_off, &leaf, &root));
    ASSERT_FALSE(leaf);
    ASSERT_GE(root.size(), 2u);

    std::string probe;  // A key whose Get reaches the edited node.
    const uint64_t kind = seed % 3;
    if (kind == 2) {
      RawEntry& e = root[rng.Uniform(root.size())];
      const uint64_t off =
          rng.Bernoulli(0.5) ? bytes.size() + rng.Uniform(1 << 20)
                             : bytes.size() - 1 - rng.Uniform(e.len - 1);
      EncodeFixed64(bytes.data() + e.at + 4 + e.key.size(), off);
      ResealChunk(&bytes, root_off);
      probe = e.key;
    } else {
      // Descend from the root along seeded children to a leaf.
      uint64_t off = root_off;
      std::vector<RawEntry> node = root;
      while (!leaf) {
        off = node[rng.Uniform(node.size())].off;
        ASSERT_TRUE(ParseNodeChunk(bytes, off, &leaf, &node));
      }
      ASSERT_FALSE(node.empty());
      const uint32_t total = DecodeFixed32(bytes.data() + off);
      if (kind == 0) {
        EncodeFixed32(bytes.data() + off + 10,
                      static_cast<uint32_t>(node.size()) + 1 +
                          static_cast<uint32_t>(rng.Uniform(1000)));
      } else {
        const RawEntry& e = node[rng.Uniform(node.size())];
        const uint64_t left = off + total - (e.at + 4);
        // The smallest length past the chunk is left - 11: key plus off and
        // len would then end one byte beyond it.
        EncodeFixed32(bytes.data() + e.at,
                      static_cast<uint32_t>(left - 11 + rng.Uniform(1 << 20)));
      }
      ResealChunk(&bytes, off);
      probe = node.front().key;
    }
    ASSERT_TRUE(file->Write(h.io().now, 0, bytes).status.ok());

    ASSERT_TRUE(h.OpenStore(/*node_size=*/512).ok());
    ASSERT_EQ(h.store()->doc_count(), model.size());
    std::string got;
    const Status hit = h.store()->Get(h.io(), probe, &got);
    EXPECT_TRUE(hit.IsCorruption()) << probe << ": " << hit.ToString();
    for (const auto& [k, v] : model) {
      const Status s = h.store()->Get(h.io(), k, &got);
      if (s.ok()) {
        EXPECT_EQ(got, v) << k;
      } else {
        EXPECT_TRUE(s.IsCorruption()) << k << ": " << s.ToString();
      }
    }
  }
}

// Fills a store with 300 keys at 512-byte nodes (a multi-level tree),
// closes it, and returns its file bytes and the root chunk's reference.
void BuildSmallNodeStore(KvHarness* h, std::string* bytes, uint64_t* root_off,
                         uint32_t* root_len) {
  ASSERT_TRUE(h->OpenStore(/*node_size=*/512).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(h->store()
                    ->Put(h->io(), "key" + std::to_string(1000 + i),
                          std::string(40, static_cast<char>('a' + i % 26)))
                    .ok());
  }
  ASSERT_TRUE(h->store()->Commit(h->io()).ok());
  h->CloseStore();
  SimFile* file = h->fs()->Open("bucket.couch");
  ASSERT_TRUE(file->Read(h->io().now, 0, file->size(), bytes).status.ok());
  // The one header is the last block: [crc][magic][seq][root off][len].
  const char* header = bytes->data() + bytes->size() - 4096;
  *root_off = DecodeFixed64(header + 16);
  *root_len = DecodeFixed32(header + 24);
}

// Points root entry `i`'s child reference at (off, len), reseals the root
// chunk and writes the file back.
void RepointRootChild(KvHarness* h, std::string* bytes, uint64_t root_off,
                      size_t i, uint64_t off, uint32_t len) {
  bool leaf = true;
  std::vector<RawEntry> root;
  ASSERT_TRUE(ParseNodeChunk(*bytes, root_off, &leaf, &root));
  ASSERT_FALSE(leaf);
  ASSERT_LT(i, root.size());
  const RawEntry& e = root[i];
  EncodeFixed64(bytes->data() + e.at + 4 + e.key.size(), off);
  EncodeFixed32(bytes->data() + e.at + 12 + e.key.size(), len);
  ResealChunk(bytes, root_off);
  ASSERT_TRUE(h->fs()->Open("bucket.couch")->Write(h->io().now, 0, *bytes)
                  .status.ok());
}

TEST(KvStoreTest, ChildCycleReadsAsCorruption) {
  // The root's first child reference points back at the root itself, under
  // a valid CRC. Get stops at the depth bound, and a Put whose key sorts
  // below every separator descends leftmost into the same cycle. Both must
  // return Corruption.
  KvHarness h(true, true, 100000);
  std::string bytes;
  uint64_t root_off = 0;
  uint32_t root_len = 0;
  ASSERT_NO_FATAL_FAILURE(
      BuildSmallNodeStore(&h, &bytes, &root_off, &root_len));
  ASSERT_NO_FATAL_FAILURE(
      RepointRootChild(&h, &bytes, root_off, 0, root_off, root_len));

  ASSERT_TRUE(h.OpenStore(/*node_size=*/512).ok());
  std::string got;
  const Status get = h.store()->Get(h.io(), "key1000", &got);
  EXPECT_TRUE(get.IsCorruption()) << get.ToString();
  const Status put = h.store()->Put(h.io(), "a", "x");
  EXPECT_TRUE(put.IsCorruption()) << put.ToString();
}

}  // namespace
}  // namespace durassd
