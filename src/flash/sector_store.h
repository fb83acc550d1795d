#ifndef DURASSD_FLASH_SECTOR_STORE_H_
#define DURASSD_FLASH_SECTOR_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/slice.h"

namespace durassd {

/// The one byte store under the SSD: reference-counted sector-size frames
/// that the device cache and the NAND pages share. A host sector is copied
/// into a frame once, when it enters the cache; destage, multi-plane
/// programs and GC relocation then hand the frame id around, each holder
/// taking its own reference. Frame 0 is the shared all-zero frame: Put
/// returns it for any all-zero sector, a slot that holds no data names it,
/// and it is never counted or freed. Frames are allocated kFramesPerChunk
/// at a time and recycled through a free list; chunks never move, so a
/// Slice of a frame stays valid until its last reference is released.
class SectorStore {
 public:
  using Frame = uint32_t;
  static constexpr Frame kZeroFrame = 0;

  explicit SectorStore(uint32_t sector_size);

  SectorStore(const SectorStore&) = delete;
  SectorStore& operator=(const SectorStore&) = delete;

  uint32_t sector_size() const { return sector_size_; }

  /// Copies `bytes` (at most sector_size; the rest of the frame reads as
  /// zeros) into a frame holding one reference for the caller, or returns
  /// kZeroFrame when every byte is zero.
  Frame Put(Slice bytes);
  /// The frame's sector_size bytes.
  Slice Bytes(Frame frame) const {
    return Slice(FrameBytes(frame), sector_size_);
  }
  void Ref(Frame frame) {
    if (frame != kZeroFrame) refs_[frame]++;
  }
  /// Drops one reference; the frame is free once none is left.
  void Release(Frame frame);

  /// Frames other than the zero frame that hold at least one reference.
  size_t live_frames() const { return live_; }

 private:
  static constexpr uint32_t kFramesPerChunk = 256;

  char* FrameBytes(Frame frame) const {
    return chunks_[frame / kFramesPerChunk].get() +
           static_cast<size_t>(frame % kFramesPerChunk) * sector_size_;
  }

  uint32_t sector_size_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<uint32_t> refs_;  ///< Per frame; 0 = on the free list.
  std::vector<Frame> free_;
  size_t live_ = 0;
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
