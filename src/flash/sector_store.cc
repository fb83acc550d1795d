#include "flash/sector_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace durassd {

SectorStore::SectorStore(uint32_t sector_size) : sector_size_(sector_size) {
  // The first chunk's frame 0 is the zero frame; it never joins the free
  // list.
  chunks_.push_back(std::make_unique<char[]>(
      static_cast<size_t>(kFramesPerChunk) * sector_size_));
  refs_.assign(kFramesPerChunk, 0);
  for (Frame f = kFramesPerChunk; f-- > 1;) free_.push_back(f);
}

SectorStore::Frame SectorStore::Put(Slice bytes) {
  assert(bytes.size() <= sector_size_);
  const char* const zeros = FrameBytes(kZeroFrame);
  if (std::memcmp(bytes.data(), zeros, bytes.size()) == 0) return kZeroFrame;
  if (free_.empty()) {
    const Frame base =
        static_cast<Frame>(chunks_.size()) * kFramesPerChunk;
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(
        static_cast<size_t>(kFramesPerChunk) * sector_size_));
    refs_.resize(refs_.size() + kFramesPerChunk, 0);
    for (Frame f = base + kFramesPerChunk; f-- > base;) free_.push_back(f);
  }
  const Frame frame = free_.back();
  free_.pop_back();
  char* const dst = FrameBytes(frame);
  std::memcpy(dst, bytes.data(), bytes.size());
  std::memset(dst + bytes.size(), 0, sector_size_ - bytes.size());
  refs_[frame] = 1;
  live_++;
  return frame;
}

void SectorStore::Release(Frame frame) {
  if (frame == kZeroFrame) return;
  assert(refs_[frame] > 0);
  if (--refs_[frame] == 0) {
    free_.push_back(frame);
    live_--;
  }
}

PageImage::PageImage(SectorStore* store, Slice image) : store_(store) {
  const uint32_t sector = store->sector_size();
  for (size_t off = 0; off < image.size(); off += sector) {
    const size_t len = std::min<size_t>(sector, image.size() - off);
    frames_.push_back(store->Put(Slice(image.data() + off, len)));
  }
}

PageImage::~PageImage() {
  for (const SectorStore::Frame frame : frames_) store_->Release(frame);
}

}  // namespace durassd
