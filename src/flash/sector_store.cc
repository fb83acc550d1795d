#include "flash/sector_store.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

namespace durassd {

namespace {

// Compared against a sector's upper parts; each part is at most half the
// largest sector.
constexpr char kZeros[SectorStore::kMaxSectorBytes / 2] = {};

size_t SystemPageBytes() {
  const long page = sysconf(_SC_PAGESIZE);
  return page > 0 ? static_cast<size_t>(page) : 4096;
}

}  // namespace

SectorStore::SectorStore(uint32_t sector_size)
    : sector_size_(sector_size), page_bytes_(SystemPageBytes()) {
  if (!std::has_single_bit(sector_size) || sector_size < kMinSectorBytes ||
      sector_size > kMaxSectorBytes) {
    throw std::invalid_argument("SectorStore: unsupported sector size");
  }
  const uint32_t quarter = sector_size / 4, eighth = sector_size / 8;
  std::vector<uint32_t> sizes;
  for (uint32_t b = kMinFrameBytes; b <= quarter; b *= 2) sizes.push_back(b);
  for (uint32_t b = quarter + eighth; b <= sector_size; b += eighth) {
    sizes.push_back(b);
  }
  assert(sizes.size() <= kMaxClasses);
  for (size_t c = 0; c < sizes.size(); ++c) {
    FrameClass& fc = classes_[c];
    fc.frame_bytes = sizes[c];
    fc.chunk_shift = std::bit_width(kChunkBytes / sizes[c]) - 1;
    fc.resident_cap = sizes[c] % page_bytes_ == 0
                          ? size_t{1} << fc.chunk_shift
                          : std::numeric_limits<size_t>::max();
  }
  for (size_t step = 0, c = 0; step * kMinFrameBytes <= sector_size; ++step) {
    while (sizes[c] < step * kMinFrameBytes) c++;
    cover_[step] = static_cast<uint8_t>(c);
    last_word_from_[step] =
        static_cast<uint16_t>((c > 0 ? sizes[c - 1] : 0) + sizeof(uint64_t));
  }
  // Index 0 of the smallest class is the zero frame's id; it stores nothing
  // and is never handed out.
  classes_[0].refs.push_back(0);
}

// Inline: Put, its one caller, is the device cache insert.
inline int SectorStore::ClassFor(Slice bytes) const {
  const char* const p = bytes.data();
  size_t end = bytes.size();
  if (end == 0) return -1;
  // Most sectors end in data: their last word, when it lies above the next
  // smaller class, settles them.
  if (end >= last_word_from_[StepOf(end)]) {
    uint64_t last;
    std::memcpy(&last, p + end - sizeof(last), sizeof(last));
    if (last != 0) return static_cast<int>(CoverOf(end));
  }
  // Otherwise halve: the bytes from the power of two below `end` are
  // compared against zeros, until they are not all zero.
  if (end <= kMinFrameBytes) return std::memcmp(p, kZeros, end) != 0 ? 0 : -1;
  size_t base = std::bit_floor(end - 1);
  while (std::memcmp(p + base, kZeros, end - base) == 0) {
    if (base == kMinFrameBytes) {
      return std::memcmp(p, kZeros, base) != 0 ? 0 : -1;
    }
    end = base;
    base /= 2;
  }
  // The prefix ends in (base, end]. Below a quarter sector one class spans
  // that; above it, a binary search over the eighth-sector class
  // boundaries takes at most two more compares.
  uint32_t lo = CoverOf(base) + 1, hi = CoverOf(end);
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    const size_t at = classes_[mid].frame_bytes;
    if (std::memcmp(p + at, kZeros, end - at) == 0) {
      hi = mid;
      end = at;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<int>(hi);
}

uint32_t SectorStore::TakeFrame(uint32_t cls) {
  FrameClass& c = classes_[cls];
  if (!c.returned.empty()) {
    // Its pages fault back in, zero-filled, when Put copies into it.
    const uint32_t index = c.returned.back();
    c.returned.pop_back();
    c.refs[index] = 1;
    stats_.resident_bytes += c.frame_bytes;
    return index;
  }
  const size_t per_chunk = size_t{1} << c.chunk_shift;
  if (c.refs.size() >= c.chunks.size() * per_chunk) {
    if ((c.chunks.size() + 1) * per_chunk > size_t{kIndexMask} + 1) {
      // One more chunk would give frames ids outside the class's index
      // bits, aliasing another class's frames.
      throw std::length_error("SectorStore: frame class out of ids");
    }
    const size_t bytes = per_chunk * c.frame_bytes;
    const size_t alloc = (bytes + page_bytes_ - 1) / page_bytes_ * page_bytes_;
    char* const chunk =
        static_cast<char*>(std::aligned_alloc(page_bytes_, alloc));
    if (chunk == nullptr) throw std::bad_alloc();
    c.chunks.emplace_back(chunk, &std::free);
    stats_.chunk_bytes += alloc;
  }
  c.refs.push_back(1);
  stats_.resident_bytes += c.frame_bytes;
  return static_cast<uint32_t>(c.refs.size() - 1);
}

void SectorStore::ReturnPages(Frame frame) {
  FrameClass& c = classes_[ClassOf(frame)];
  if (madvise(FrameBytes(frame), c.frame_bytes, MADV_DONTNEED) != 0) {
    c.free.push_back(IndexOf(frame));
    return;
  }
  c.returned.push_back(IndexOf(frame));
  stats_.resident_bytes -= c.frame_bytes;
}

SectorStore::Frame SectorStore::Put(Slice bytes) {
  assert(bytes.size() <= sector_size_);
  const int needed = ClassFor(bytes);
  if (needed < 0) return kZeroFrame;
  const uint32_t cls = static_cast<uint32_t>(needed);
  FrameClass& c = classes_[cls];
  uint32_t index;
  if (c.free.empty()) {
    index = TakeFrame(cls);
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
  // The input is zero past the class; a shorter one is zero-filled to the
  // frame's end.
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
