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
/// smallest frame class that covers its last non-zero byte. The classes are
/// powers of two from 64 bytes to a quarter sector, then eighth-sector
/// steps to the sector (for 4 KiB sectors: 64, 128, 256, 512 B, 1, 1.5, 2,
/// 2.5, 3, 3.5 and 4 KiB). The class comes from the bytes and sits in the
/// frame id's top 4 bits. A frame reads back as its stored bytes followed
/// by zeros. Frame 0 is the shared all-zero frame: Put returns it for any
/// all-zero sector, a slot that holds no data names it, it stores no bytes,
/// and it is never counted or freed.
///
/// Each class allocates page-aligned chunks of a power-of-two number of
/// frames (at most 1 MiB), left uninitialised so frames never handed out
/// cost no resident memory, and hands frames out by bumping a cursor
/// through them. A sector takes a frame of its own class only: a released
/// frame that is still resident, else a released frame whose pages went
/// back to the OS, else the frame past the cursor or a new chunk. A class
/// whose frames are whole system pages keeps a chunk's worth of released
/// frames resident (256 of 4 KiB) and returns the pages of any further
/// released frame to the OS. Chunks never move, so a view of a frame stays
/// valid until its last reference is released.
class SectorStore {
 public:
  using Frame = uint32_t;
  static constexpr Frame kZeroFrame = 0;
  /// The smallest frame class.
  static constexpr uint32_t kMinFrameBytes = 64;
  /// Sector sizes the classes are built for: an eighth sector must be a
  /// whole number of kMinFrameBytes, and the frame id has room for sixteen
  /// classes (8 KiB sectors use twelve).
  static constexpr uint32_t kMinSectorBytes = 8 * kMinFrameBytes;
  static constexpr uint32_t kMaxSectorBytes = 8 * 1024;
  static constexpr size_t kChunkBytes = size_t{1} << 20;

  struct Stats {
    uint64_t live_frames = 0;  ///< Frames holding a reference (not frame 0).
    uint64_t live_bytes = 0;   ///< Their frame classes' bytes, summed.
    uint64_t chunk_bytes = 0;  ///< Chunk memory allocated; never freed.
    /// Frames handed out so far (so written, unlike the chunk space past
    /// the cursors), less those whose pages went back to the OS.
    uint64_t resident_bytes = 0;
  };

  /// `sector_size` must be a power of two from kMinSectorBytes to
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
      stats_.live_frames--;
      stats_.live_bytes -= c.frame_bytes;
      if (c.free.size() >= c.resident_cap) {
        ReturnPages(frame);
      } else {
        c.free.push_back(IndexOf(frame));
      }
    }
  }

  const Stats& stats() const { return stats_; }

 private:
  static constexpr int kIndexBits = 28;
  static constexpr Frame kIndexMask = (Frame{1} << kIndexBits) - 1;
  static constexpr uint32_t kMaxClasses = 16;

  struct FrameClass {
    /// Read from here rather than computed from the id: a copy size the
    /// compiler can bound gets inlined as `rep movs`, which copies a 4 KiB
    /// sector slower than the library memcpy.
    uint32_t frame_bytes = 0;
    uint32_t chunk_shift = 0;  ///< log2 of the frames per chunk.
    /// Released frames kept resident; past them, a released frame's pages
    /// go back to the OS. A class whose frames are whole, aligned pages
    /// keeps a chunk's worth, so churn below that costs no system call or
    /// page fault: a device at GC steady state (perfbench's device_gc)
    /// releases and retakes its 4 KiB frames in bursts of under 200, and
    /// returning every released frame cut its wall throughput to 0.41x.
    /// Other classes keep all.
    size_t resident_cap = 0;
    std::vector<std::unique_ptr<char, decltype(&std::free)>> chunks;
    /// Per frame handed out so far, so its size is the bump cursor; 0 =
    /// released. Grown a frame at a time: a chunk's worth of counts for
    /// the 64-byte class alone would be 64 KiB of memory.
    std::vector<uint32_t> refs;
    std::vector<uint32_t> free;      ///< Released, still resident.
    std::vector<uint32_t> returned;  ///< Released, pages returned to the OS.
  };

  static uint32_t ClassOf(Frame frame) { return frame >> kIndexBits; }
  static uint32_t IndexOf(Frame frame) { return frame & kIndexMask; }
  /// Index of the tables below for an input of `bytes` bytes.
  static size_t StepOf(size_t bytes) {
    return (bytes + kMinFrameBytes - 1) / kMinFrameBytes;
  }
  /// The smallest class whose frame holds `bytes` bytes (at most a sector).
  uint32_t CoverOf(size_t bytes) const { return cover_[StepOf(bytes)]; }
  /// The smallest class that covers the last non-zero byte of `bytes`, or
  /// -1 when every byte is zero.
  int ClassFor(Slice bytes) const;
  /// A frame index of `cls` for a class without a resident released frame:
  /// a returned one, else the frame past the cursor, in a new chunk when
  /// the cursor has reached the end of the chunks.
  uint32_t TakeFrame(uint32_t cls);
  /// Gives a released frame's pages back to the OS and files it as
  /// returned (or, should the OS refuse, as resident).
  void ReturnPages(Frame frame);
  char* FrameBytes(Frame frame) const {
    const FrameClass& c = classes_[ClassOf(frame)];
    const uint32_t index = IndexOf(frame);
    const size_t within = index & ((uint32_t{1} << c.chunk_shift) - 1);
    return c.chunks[index >> c.chunk_shift].get() + within * c.frame_bytes;
  }

  uint32_t sector_size_;
  size_t page_bytes_;
  std::array<FrameClass, kMaxClasses> classes_;
  /// CoverOf's answer per kMinFrameBytes step, 0 to kMaxSectorBytes.
  std::array<uint8_t, kMaxSectorBytes / kMinFrameBytes + 1> cover_{};
  /// Per step, the input size from which ClassFor's last-word check
  /// applies: the last word must lie above the next smaller class. A table
  /// rather than that class's frame_bytes: the dependent load cost a
  /// full-sector Put about 4%.
  std::array<uint16_t, kMaxSectorBytes / kMinFrameBytes + 1> last_word_from_{};
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
