#include "flash/sector_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

namespace durassd {

namespace {

// Compared against a sector's upper halves; a class's upper half is at most
// half the largest sector.
constexpr char kZeros[SectorStore::kMaxSectorBytes / 2] = {};

uint32_t ClassBytes(int cls) { return SectorStore::kMinFrameBytes << cls; }

// The smallest class whose frame covers the last non-zero byte of `bytes`,
// or -1 when every byte is zero.
int ClassFor(Slice bytes) {
  const char* const p = bytes.data();
  size_t n = bytes.size();
  if (n == 0) return -1;
  int cls = n <= SectorStore::kMinFrameBytes
                ? 0
                : std::bit_width(n - 1) -
                      std::countr_zero(SectorStore::kMinFrameBytes);
  // Most sectors end in data: their last word, when it lies above the next
  // smaller class, settles them. Otherwise each class's upper half is
  // compared against zeros, largest class first.
  uint64_t last = 0;
  if (n >= (cls > 0 ? ClassBytes(cls - 1) : 0) + sizeof(last)) {
    std::memcpy(&last, p + n - sizeof(last), sizeof(last));
    if (last != 0) return cls;
  }
  for (; cls > 0; --cls) {
    const size_t half = ClassBytes(cls - 1);
    if (std::memcmp(p + half, kZeros, n - half) != 0) return cls;
    n = half;
  }
  return std::memcmp(p, kZeros, n) != 0 ? 0 : -1;
}

}  // namespace

SectorStore::SectorStore(uint32_t sector_size)
    : sector_size_(sector_size),
      num_classes_(std::countr_zero(sector_size / kMinFrameBytes) + 1) {
  if (!std::has_single_bit(sector_size) || sector_size < kMinFrameBytes ||
      sector_size > kMaxSectorBytes) {
    throw std::invalid_argument("SectorStore: unsupported sector size");
  }
  for (uint32_t c = 0; c < num_classes_; ++c) {
    classes_[c].frame_bytes = ClassBytes(c);
  }
  // Index 0 of the smallest class is the zero frame's id; it stores nothing
  // and is never handed out.
  classes_[0].refs.push_back(0);
}

uint32_t SectorStore::MakeRoom(uint32_t cls) {
  // A released larger frame is already resident; the frame past the cursor
  // is not.
  for (uint32_t larger = cls + 1; larger < num_classes_; ++larger) {
    if (!classes_[larger].free.empty()) return larger;
  }
  FrameClass& c = classes_[cls];
  const size_t per_chunk = kChunkBytes / c.frame_bytes;
  if (c.refs.size() < c.chunks.size() * per_chunk) return cls;
  if ((c.chunks.size() + 1) * per_chunk > size_t{kIndexMask} + 1) {
    // One more chunk would give frames ids outside the class's index bits,
    // aliasing another class's frames.
    throw std::length_error("SectorStore: frame class out of ids");
  }
  char* const chunk = static_cast<char*>(std::aligned_alloc(4096, kChunkBytes));
  if (chunk == nullptr) throw std::bad_alloc();
  c.chunks.emplace_back(chunk, &std::free);
  stats_.chunk_bytes += kChunkBytes;
  return cls;
}

SectorStore::Frame SectorStore::Put(Slice bytes) {
  assert(bytes.size() <= sector_size_);
  const int needed = ClassFor(bytes);
  if (needed < 0) return kZeroFrame;
  uint32_t cls = static_cast<uint32_t>(needed);
  if (classes_[cls].free.empty()) cls = MakeRoom(cls);
  FrameClass& c = classes_[cls];
  uint32_t index;
  if (c.free.empty()) {
    index = static_cast<uint32_t>(c.refs.size());
    c.refs.push_back(1);
  } else {
    index = c.free.back();
    c.free.pop_back();
    c.refs[index] = 1;
  }
  stats_.live_frames++;
  stats_.live_bytes += c.frame_bytes;

  const Frame frame = (cls << kIndexBits) | index;
  char* const dst = FrameBytes(frame);
  const size_t size = c.frame_bytes;
  // The input is zero past the class. A shorter input, or a frame of a
  // larger class, is zero-filled to the frame's end.
  if (bytes.size() >= size) {
    std::memcpy(dst, bytes.data(), size);
  } else {
    std::memcpy(dst, bytes.data(), bytes.size());
    std::memset(dst + bytes.size(), 0, size - bytes.size());
  }
  return frame;
}

void SectorStore::AppendSector(Frame frame, std::string* out) const {
  const Slice stored = Stored(frame);
  out->append(stored.data(), stored.size());
  out->append(sector_size_ - stored.size(), '\0');
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
