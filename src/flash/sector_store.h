#ifndef DURASSD_FLASH_SECTOR_STORE_H_
#define DURASSD_FLASH_SECTOR_STORE_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"

namespace durassd {

/// The one byte store under the SSD: reference-counted frames that the
/// device cache and the NAND pages share. A host sector is copied into a
/// frame once, when it enters the cache; destage, multi-plane programs and
/// GC relocation then hand the frame id around, each holder taking its own
/// reference.
///
/// A frame keeps only its sector's non-zero prefix: engines pad their
/// durable writes with zeros, and the store holds the prefix in the
/// smallest power-of-two frame class, 64 bytes to the sector size, that
/// covers its last non-zero byte. The class comes from the bytes and sits
/// in the frame id's top bits. A frame reads back as its stored bytes
/// followed by zeros. Frame 0 is the shared all-zero frame: Put returns it
/// for any all-zero sector, a slot that holds no data names it, it stores
/// no bytes, and it is never counted or freed.
///
/// Each class allocates page-aligned 1 MiB chunks, left uninitialised so
/// frames never handed out cost no resident memory (and a 4 KiB frame is
/// one page), and hands frames out by bumping a cursor through them.
/// Resident memory goes first: a class takes its own released frame, else
/// a released frame of the smallest larger class that has one, and only
/// then the next frame past its cursor or a new chunk. Chunks never move,
/// so a view of a frame stays valid until its last reference is released.
class SectorStore {
 public:
  using Frame = uint32_t;
  static constexpr Frame kZeroFrame = 0;
  /// The smallest frame class.
  static constexpr uint32_t kMinFrameBytes = 64;
  /// The frame id has room for eight classes, so sectors of up to 8 KiB.
  static constexpr uint32_t kMaxClasses = 8;
  static constexpr uint32_t kMaxSectorBytes = kMinFrameBytes
                                              << (kMaxClasses - 1);
  static constexpr size_t kChunkBytes = size_t{1} << 20;

  struct Stats {
    uint64_t live_frames = 0;  ///< Frames holding a reference (not frame 0).
    uint64_t live_bytes = 0;   ///< Their frame classes' bytes, summed.
    uint64_t chunk_bytes = 0;  ///< Chunk memory allocated; never returned.
  };

  /// `sector_size` must be a power of two from kMinFrameBytes to
  /// kMaxSectorBytes.
  explicit SectorStore(uint32_t sector_size);

  SectorStore(const SectorStore&) = delete;
  SectorStore& operator=(const SectorStore&) = delete;

  uint32_t sector_size() const { return sector_size_; }

  /// Copies the non-zero prefix of `bytes` (at most sector_size; the rest
  /// of the sector reads as zeros) into a frame holding one reference for
  /// the caller, or returns kZeroFrame when every byte is zero.
  Frame Put(Slice bytes);
  /// The frame's stored bytes: its class's size, empty for the zero frame.
  /// The sector's bytes past them are zeros.
  Slice Stored(Frame frame) const {
    if (frame == kZeroFrame) return Slice();
    return Slice(FrameBytes(frame), classes_[ClassOf(frame)].frame_bytes);
  }
  /// Appends the frame's whole sector to `out`: its stored bytes, then
  /// zeros up to sector_size.
  void AppendSector(Frame frame, std::string* out) const;
  void Ref(Frame frame) {
    if (frame != kZeroFrame) classes_[ClassOf(frame)].refs[IndexOf(frame)]++;
  }
  /// Drops one reference; the frame is free once none is left.
  void Release(Frame frame) {
    if (frame == kZeroFrame) return;
    FrameClass& c = classes_[ClassOf(frame)];
    uint32_t& refs = c.refs[IndexOf(frame)];
    assert(refs > 0);
    if (--refs == 0) {
      c.free.push_back(IndexOf(frame));
      stats_.live_frames--;
      stats_.live_bytes -= c.frame_bytes;
    }
  }

  const Stats& stats() const { return stats_; }

 private:
  static constexpr int kIndexBits = 29;
  static constexpr Frame kIndexMask = (Frame{1} << kIndexBits) - 1;

  struct FrameClass {
    /// kMinFrameBytes << class. Read from here rather than computed from
    /// the id: a copy size the compiler can bound gets inlined as `rep
    /// movs`, which copies a 4 KiB sector slower than the library memcpy.
    uint32_t frame_bytes = 0;
    std::vector<std::unique_ptr<char, decltype(&std::free)>> chunks;
    /// Per frame handed out so far, so its size is the bump cursor; 0 =
    /// released. Grown a frame at a time: a chunk's worth of counts for
    /// the 64-byte class alone would be 64 KiB of memory.
    std::vector<uint32_t> refs;
    std::vector<uint32_t> free;  ///< Released frame indexes.
  };

  static uint32_t ClassOf(Frame frame) { return frame >> kIndexBits; }
  static uint32_t IndexOf(Frame frame) { return frame & kIndexMask; }
  /// For a class without a released frame: the smallest larger class
  /// with one, else `cls` itself, with a chunk added when its cursor has
  /// reached the end of its chunks.
  uint32_t MakeRoom(uint32_t cls);
  char* FrameBytes(Frame frame) const {
    const FrameClass& c = classes_[ClassOf(frame)];
    const size_t offset = static_cast<size_t>(IndexOf(frame)) * c.frame_bytes;
    return c.chunks[offset / kChunkBytes].get() + offset % kChunkBytes;
  }

  uint32_t sector_size_;
  uint32_t num_classes_;
  std::array<FrameClass, kMaxClasses> classes_;
  Stats stats_;
};

/// A page image the controller builds itself (a dump page, a log-segment
/// header) put into the store one sector-size piece at a time, for a
/// program to take its own references; the image's references are released
/// when it goes out of scope.
class PageImage {
 public:
  PageImage(SectorStore* store, Slice image);
  ~PageImage();

  PageImage(const PageImage&) = delete;
  PageImage& operator=(const PageImage&) = delete;

  std::span<const SectorStore::Frame> frames() const { return frames_; }

 private:
  SectorStore* store_;
  std::vector<SectorStore::Frame> frames_;
};

}  // namespace durassd

#endif  // DURASSD_FLASH_SECTOR_STORE_H_
