#ifndef DURASSD_HOST_SIM_FILE_H_
#define DURASSD_HOST_SIM_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"
#include "host/block_device.h"

namespace durassd {

class SimFileSystem;

/// A file mapped onto device sectors (extent lists, grown in chunks).
/// Models O_DIRECT semantics: no host page cache, every Write goes to the
/// device; partial-sector writes are read-modify-write. Sync() performs the
/// fsync of Fig. 2: journal (metadata) write, then FLUSH CACHE when write
/// barriers are enabled.
class SimFile {
 public:
  struct IoResult {
    Status status;
    SimTime done = 0;
  };

  SimFile(const SimFile&) = delete;
  SimFile& operator=(const SimFile&) = delete;

  const std::string& name() const { return name_; }
  uint64_t size() const { return size_; }

  /// Writes `data` at `offset`, growing the file's extents as needed. Each
  /// whole-sector run within an extent chunk is one device command, and
  /// the runs do not wait for one another, so they overlap in the device.
  /// A partial-sector edge is a read-modify-write. `done` is the latest
  /// completion.
  IoResult Write(SimTime now, uint64_t offset, Slice data);
  IoResult Read(SimTime now, uint64_t offset, uint64_t len, std::string* out);

  /// fsync(2): persists data + metadata. With barriers on, issues FLUSH
  /// CACHE to the device; with barriers off (the DuraSSD deployment mode),
  /// only the journal write happens and the call returns quickly.
  IoResult Sync(SimTime now);
  /// fdatasync-style sync that skips the metadata/journal write.
  IoResult DataSync(SimTime now);
  /// Barrier-enabled fsync (fbarrier(2) in Won et al.): orders everything
  /// written so far against everything written later, without waiting for
  /// media. On devices without barrier support this degenerates to a full
  /// Sync — ordering can then only be had by draining.
  IoResult Barrier(SimTime now);

  /// Pre-sizes the file (like fallocate); useful for log files.
  Status Allocate(uint64_t new_size);
  Status Truncate(uint64_t new_size);

  /// True when a size/extent change has not been journaled yet.
  bool metadata_dirty() const { return metadata_dirty_; }

 private:
  friend class SimFileSystem;
  SimFile(SimFileSystem* fs, std::string name) : fs_(fs), name_(std::move(name)) {}

  /// Device LPN backing byte `offset`, growing the extent list on demand.
  StatusOr<Lpn> MapOffset(uint64_t offset, bool grow);

  SimFileSystem* fs_;
  std::string name_;
  uint64_t size_ = 0;
  bool metadata_dirty_ = true;  ///< Creation itself is a metadata change.
  /// Chunked extents: chunk i covers file sectors
  /// [i * chunk_sectors, (i+1) * chunk_sectors).
  std::vector<Lpn> chunks_;
};

/// Minimal file system over a BlockDevice: bump allocation in fixed-size
/// chunks, a journal area for fsync metadata writes, and a write-barrier
/// switch (the nobarrier mount option the paper toggles).
///
/// Simplification vs a real FS: the namespace and extent maps live in host
/// memory and survive simulated reboots (a journaling FS keeps its metadata
/// consistent; we do not model FS-metadata loss — the paper's experiments
/// never involve it).
class SimFileSystem {
 public:
  struct Options {
    bool write_barriers = true;
    /// Extent chunk size in sectors (1024 x 4KB = 4 MiB).
    uint32_t chunk_sectors = 1024;
    /// Sectors reserved at LPN 0 for the journal ring.
    uint32_t journal_area_sectors = 256;
  };

  SimFileSystem(BlockDevice* device, Options options);

  SimFileSystem(const SimFileSystem&) = delete;
  SimFileSystem& operator=(const SimFileSystem&) = delete;

  /// Opens (creating if absent) a file.
  SimFile* Open(const std::string& name);
  bool Exists(const std::string& name) const;

  BlockDevice* device() { return device_; }
  const Options& options() const { return opts_; }
  void set_write_barriers(bool on) { opts_.write_barriers = on; }

  struct Stats {
    uint64_t syncs = 0;
    uint64_t batched_syncs = 0;  ///< fsyncs that rode another's commit.
    uint64_t journal_writes = 0;
    uint64_t flush_cmds = 0;  ///< FLUSH CACHE actually sent to the device.
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class SimFile;

  StatusOr<Lpn> AllocateChunk();
  SimFile::IoResult SyncInternal(SimTime now, SimFile* file,
                                 bool write_journal);
  SimFile::IoResult BarrierInternal(SimTime now, SimFile* file);

  BlockDevice* device_;
  Options opts_;
  uint64_t next_lpn_;
  uint32_t journal_cursor_ = 0;
  /// The journal stand-in's sector: one zero sector, written as is by
  /// every journal transaction.
  const std::string journal_sector_;
  SimTime last_sync_start_ = -1;
  SimTime last_sync_done_ = -1;
  SimTime last_barrier_start_ = -1;
  SimTime last_barrier_done_ = -1;
  std::unordered_map<std::string, std::unique_ptr<SimFile>> files_;
  Stats stats_;
};

}  // namespace durassd

#endif  // DURASSD_HOST_SIM_FILE_H_
