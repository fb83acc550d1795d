#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "flash/flash_array.h"
#include "flash/geometry.h"
#include "flash/sector_store.h"

namespace durassd {
namespace {

FlashArray::Options TinyOptions() {
  return FlashArray::Options{FlashGeometry::Tiny()};
}

// Programs the page image `image` into `ppn`: the image goes into store
// frames, the page takes its own references, and the image's are released.
Status Program(FlashArray& flash, SimTime now, Ppn ppn, Slice image,
               SimTime* done, SimTime* start = nullptr) {
  const PageImage frames(&flash.store(), image);
  return flash.ProgramPage(now, ppn, frames.frames(), done, start);
}

std::string PageBytes(const FlashArray& flash, Ppn ppn) {
  std::string out;
  flash.CopyPage(ppn, &out);
  return out;
}

TEST(FlashGeometryTest, PpnEncodingRoundTrips) {
  const FlashGeometry g = FlashGeometry::Tiny();
  for (uint32_t plane = 0; plane < g.total_planes(); ++plane) {
    for (uint32_t block = 0; block < g.blocks_per_plane; block += 3) {
      for (uint32_t page = 0; page < g.pages_per_block; page += 2) {
        const Ppn ppn = g.MakePpn(plane, block, page);
        EXPECT_EQ(g.PlaneOf(ppn), plane);
        EXPECT_EQ(g.BlockOf(ppn), block);
        EXPECT_EQ(g.PageOf(ppn), page);
      }
    }
  }
}

TEST(FlashGeometryTest, DefaultMatchesPaperExample) {
  const FlashGeometry g;
  // Sec 2.3: 8 channels x 4 packages x 4 chips x 2 planes = 256.
  EXPECT_EQ(g.total_planes(), 256u);
  EXPECT_EQ(g.page_size, 8u * kKiB);
}

TEST(FlashArrayTest, ProgramThenReadRoundTrips) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  const Ppn ppn = g.MakePpn(0, 0, 0);

  std::string data(g.page_size, 'x');
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, ppn, data, &done).ok());
  EXPECT_GT(done, 0);

  std::string out;
  flash.ReadPage(done, ppn, &out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(flash.page_state(ppn), PageState::kValid);
}

TEST(FlashArrayTest, ShortProgramPadsWithZeros) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "abc", &done).ok());
  std::string out;
  flash.ReadPage(done, g.MakePpn(0, 0, 0), &out);
  ASSERT_EQ(out.size(), g.page_size);
  EXPECT_EQ(out.substr(0, 3), "abc");
  EXPECT_EQ(out[3], '\0');
}

TEST(FlashArrayTest, RejectsProgramToProgrammedPage) {
  FlashArray flash(TinyOptions());
  const Ppn ppn = flash.geometry().MakePpn(0, 0, 0);
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, ppn, "a", &done).ok());
  EXPECT_TRUE(Program(flash, done, ppn, "b", &done).IsIoError());
}

TEST(FlashArrayTest, EnforcesInOrderProgrammingWithinBlock) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  SimTime done = 0;
  // Page 1 before page 0: rejected.
  EXPECT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 1), "x", &done).IsIoError());
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "x", &done).ok());
  EXPECT_TRUE(Program(flash, done, g.MakePpn(0, 0, 1), "x", &done).ok());
}

TEST(FlashArrayTest, EraseResetsBlockAndBumpsWear) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  SimTime done = 0;
  for (uint32_t p = 0; p < g.pages_per_block; ++p) {
    ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, p), "z", &done).ok());
  }
  EXPECT_EQ(flash.valid_pages_in_block(0, 0), g.pages_per_block);

  SimTime erased = 0;
  ASSERT_TRUE(flash.EraseBlock(done, 0, 0, &erased).ok());
  EXPECT_GT(erased, done);
  EXPECT_EQ(flash.erase_count(0, 0), 1u);
  EXPECT_EQ(flash.valid_pages_in_block(0, 0), 0u);
  EXPECT_EQ(flash.next_program_page(0, 0), 0u);
  EXPECT_EQ(flash.page_state(g.MakePpn(0, 0, 0)), PageState::kFree);

  // Erased pages read back as zeros and are programmable again.
  std::string out;
  flash.ReadPage(erased, g.MakePpn(0, 0, 0), &out);
  EXPECT_EQ(out, std::string(g.page_size, '\0'));
  EXPECT_TRUE(Program(flash, erased, g.MakePpn(0, 0, 0), "y", &done).ok());
}

TEST(FlashArrayTest, MarkInvalidDropsValidCount) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "a", &done).ok());
  flash.MarkInvalid(g.MakePpn(0, 0, 0));
  EXPECT_EQ(flash.page_state(g.MakePpn(0, 0, 0)), PageState::kInvalid);
  EXPECT_EQ(flash.valid_pages_in_block(0, 0), 0u);
  // Idempotent.
  flash.MarkInvalid(g.MakePpn(0, 0, 0));
  EXPECT_EQ(flash.valid_pages_in_block(0, 0), 0u);
}

TEST(FlashArrayTest, RevalidateRestoresCount) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "a", &done).ok());
  flash.MarkInvalid(g.MakePpn(0, 0, 0));
  flash.RevalidatePage(g.MakePpn(0, 0, 0));
  EXPECT_EQ(flash.page_state(g.MakePpn(0, 0, 0)), PageState::kValid);
  EXPECT_EQ(flash.valid_pages_in_block(0, 0), 1u);
}

// --------------------------- Timing ---------------------------------------

TEST(FlashArrayTest, PlaneSerializesPrograms) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  SimTime d1 = 0, d2 = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "", &d1).ok());
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 1), "", &d2).ok());
  // Same plane: the second program waits for the first.
  EXPECT_GE(d2, d1 + g.program_latency);
}

TEST(FlashArrayTest, DifferentChannelsRunInParallel) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  // Tiny geometry: planes 0,1 on channel 0; planes 2,3 on channel 1.
  SimTime d1 = 0, d2 = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "", &d1).ok());
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(2, 0, 0), "", &d2).ok());
  // Different channel + different plane: nearly identical completion.
  EXPECT_LT(d2 - d1, g.program_latency / 4);
}

TEST(FlashArrayTest, SameChannelSerializesTransferOnly) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  SimTime d1 = 0, d2 = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "", &d1).ok());
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(1, 0, 0), "", &d2).ok());
  // Same channel, different planes: programs overlap, transfers serialize.
  EXPECT_EQ(d2 - d1, g.channel_transfer_time());
}

// --------------------------- Power cut ------------------------------------

TEST(FlashArrayTest, PowerCutMidProgramTearsPage) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  const Ppn ppn = g.MakePpn(0, 0, 0);
  std::string data(g.page_size, 'T');
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, ppn, data, &done).ok());

  // Cut halfway through the program.
  flash.PowerCut(done - g.program_latency / 2);
  EXPECT_TRUE(flash.IsTorn(ppn));
  EXPECT_EQ(flash.stats().torn_pages, 1u);

  std::string out;
  flash.ReadPage(0, ppn, &out);
  EXPECT_EQ(out.substr(0, g.page_size / 4), std::string(g.page_size / 4, 'T'));
  EXPECT_EQ(out.substr(g.page_size / 4),
            std::string(3 * (g.page_size / 4), '\0'));
}

TEST(FlashArrayTest, PowerCutAfterCompletionKeepsPage) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  const Ppn ppn = g.MakePpn(0, 0, 0);
  std::string data(g.page_size, 'K');
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, ppn, data, &done).ok());

  flash.PowerCut(done + 1);
  EXPECT_FALSE(flash.IsTorn(ppn));
  std::string out;
  flash.ReadPage(0, ppn, &out);
  EXPECT_EQ(out, data);
}

TEST(FlashArrayTest, PowerCutBeforeStartRollsBackToErased) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  // Two programs on the same plane: the second starts only after the first
  // finishes. Cut during the first => second never started.
  SimTime d1 = 0, d2 = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "a", &d1).ok());
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 1), "b", &d2).ok());
  flash.PowerCut(d1 - 1);

  EXPECT_TRUE(flash.IsTorn(g.MakePpn(0, 0, 0)));
  EXPECT_EQ(flash.page_state(g.MakePpn(0, 0, 1)), PageState::kFree);
  EXPECT_FALSE(flash.IsTorn(g.MakePpn(0, 0, 1)));
}

TEST(FlashArrayTest, PowerCutMidEraseInvalidatesBlock) {
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "a", &done).ok());
  SimTime erase_done = 0;
  ASSERT_TRUE(flash.EraseBlock(done, 0, 0, &erase_done).ok());
  flash.PowerCut(erase_done - 1);

  // Block is unusable until a clean re-erase.
  SimTime d = 0;
  EXPECT_FALSE(Program(flash, 0, g.MakePpn(0, 0, 0), "x", &d).ok());
  ASSERT_TRUE(flash.EraseBlock(0, 0, 0).ok());
  EXPECT_TRUE(Program(flash, 1, g.MakePpn(0, 0, 0), "x", &d).ok());
}

TEST(FlashArrayTest, TimingOnlyModeStoresNothing) {
  // A timing-only write hands the array no frames: the page is programmed
  // (state, wear and time as usual) but holds no bytes.
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  const Ppn ppn = g.MakePpn(0, 0, 0);
  SimTime done = 0;
  ASSERT_TRUE(flash.ProgramPage(0, ppn, {}, &done).ok());
  EXPECT_GT(done, 0);
  EXPECT_EQ(flash.page_state(ppn), PageState::kValid);
  EXPECT_EQ(flash.SlotFrame(ppn, 0), SectorStore::kZeroFrame);
  EXPECT_EQ(flash.store().stats().live_frames, 0u);
  std::string out;
  flash.ReadPage(done, ppn, &out);
  EXPECT_EQ(out, std::string(g.page_size, '\0'));
  // The next page of the block stores exactly what it is handed.
  const std::string data(g.page_size, 'q');
  ASSERT_TRUE(Program(flash, done, g.MakePpn(0, 0, 1), data, &done).ok());
  EXPECT_EQ(flash.store().stats().live_frames, flash.slots_per_page());
  EXPECT_EQ(PageBytes(flash, g.MakePpn(0, 0, 1)), data);
}

TEST(FlashArrayTest, PagesShareFramesByReference) {
  // A second page programmed with the first one's frame ids (what a GC move
  // does) copies no bytes and takes its own references: erasing the first
  // page's block leaves the second page's bytes alone.
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  const Ppn src = g.MakePpn(0, 0, 0);
  const Ppn dst = g.MakePpn(1, 0, 0);
  const std::string data(g.page_size, 'r');
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, src, data, &done).ok());
  const FlashArray::Frame frames[] = {flash.SlotFrame(src, 0),
                                      flash.SlotFrame(src, 1)};
  ASSERT_TRUE(flash.ProgramPage(done, dst, frames, &done).ok());
  EXPECT_EQ(flash.store().stats().live_frames, 2u);
  ASSERT_TRUE(flash.EraseBlock(done, 0, 0, &done).ok());
  EXPECT_EQ(PageBytes(flash, src), std::string(g.page_size, '\0'));
  EXPECT_EQ(PageBytes(flash, dst), data);
  flash.ReleaseSlot(dst, 0);
  EXPECT_EQ(flash.store().stats().live_frames, 1u);
  std::string released;
  flash.store().AppendSector(flash.SlotFrame(dst, 0), &released);
  EXPECT_EQ(released, std::string(4 * kKiB, '\0'));
}

TEST(FlashArrayTest, TornGcDestinationLeavesSourceSlotBytes) {
  // GC relocation programs the destination with the source slots' frames.
  // A cut mid-way through that program tears the destination, and the tear
  // must land in fresh frames: the source slot (a rollback target, or the
  // cache's copy of a clean sector) still reads its bytes.
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  const Ppn src = g.MakePpn(0, 0, 0);
  const Ppn dst = g.MakePpn(1, 0, 0);
  std::string data(g.page_size, 'S');
  data[g.page_size / 8] = 'x';
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, src, data, &done).ok());
  const FlashArray::Frame frames[] = {flash.SlotFrame(src, 0),
                                      flash.SlotFrame(src, 1)};
  SimTime gc_done = 0;
  ASSERT_TRUE(flash.ProgramPage(done, dst, frames, &gc_done).ok());
  flash.PowerCut(gc_done - g.program_latency / 2);

  EXPECT_TRUE(flash.IsTorn(dst));
  const std::string torn = PageBytes(flash, dst);
  EXPECT_EQ(torn.substr(0, g.page_size / 4), data.substr(0, g.page_size / 4));
  EXPECT_EQ(torn.substr(g.page_size / 4),
            std::string(g.page_size - g.page_size / 4, '\0'));
  EXPECT_FALSE(flash.IsTorn(src));
  EXPECT_EQ(PageBytes(flash, src), data);
  EXPECT_EQ(flash.SlotFrame(src, 0), frames[0]);
  EXPECT_NE(flash.SlotFrame(dst, 0), frames[0]);
}

// ----------------------- Reference model ----------------------------------

// Byte-level model of the page store: a map from PPN to the page image the
// rules say it holds. A page absent from the map reads as zeros.
//   - A successful program stores its image, zero-padded to the page.
//   - A failed program, and a program not yet started at a power cut, leave
//     no data.
//   - A program cut mid-flight keeps only the first quarter of its page.
//   - Erase (successful or failed), retirement and an interrupted erase
//     drop every page of the block.
class PageStoreModel {
 public:
  explicit PageStoreModel(const FlashGeometry& g) : g_(g) {}

  void Program(Ppn ppn, std::string image) {
    image.resize(g_.page_size, '\0');
    pages_[ppn] = std::move(image);
  }
  void Drop(Ppn ppn) { pages_.erase(ppn); }
  void DropBlock(uint32_t plane, uint32_t block) {
    for (uint32_t p = 0; p < g_.pages_per_block; ++p) {
      pages_.erase(g_.MakePpn(plane, block, p));
    }
  }
  void Tear(Ppn ppn) {
    auto it = pages_.find(ppn);
    if (it == pages_.end()) return;
    std::fill(it->second.begin() + g_.page_size / 4, it->second.end(), '\0');
  }
  std::string Expected(Ppn ppn) const {
    auto it = pages_.find(ppn);
    return it == pages_.end() ? std::string(g_.page_size, '\0') : it->second;
  }

 private:
  FlashGeometry g_;
  std::map<Ppn, std::string> pages_;
};

// Offset of the first byte where `a` and `b` differ, or -1 when equal.
int64_t FirstDiff(Slice a, Slice b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return static_cast<int64_t>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<int64_t>(n);
}

std::string RandomBytes(Random& rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(255) + 1);
  return out;
}

// Drives a seeded mix of every storage operation, with program, erase and
// read faults injected, and checks every byte the array returns against
// PageStoreModel. Some programs reuse another page's frame ids, as a GC move
// does, so erases and tears hit frames that other pages share; once every
// block is erased at the end, no frame may still be live.
TEST(FlashArrayModelTest, StoredBytesFollowTheReferenceModel) {
  FlashGeometry g = FlashGeometry::Tiny();
  g.blocks_per_plane = 16;
  // Rule coverage across all seeds.
  uint64_t program_fails = 0, never_started = 0, torn = 0;
  uint64_t interrupted_erases = 0, bad_blocks = 0, multi_plane = 0;
  uint64_t shared_programs = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    FaultInjector::Options faults;
    faults.seed = seed;
    faults.read_bit_flip_mean = 2.0;
    faults.program_fail_rate = 0.05;
    faults.erase_fail_rate = 0.02;
    FlashArray flash(FlashArray::Options{g, faults});
    PageStoreModel model(g);
    Random rng(seed * 7919);

    struct InFlightProgram {
      Ppn ppn;
      SimTime start, done;
    };
    struct InFlightErase {
      uint32_t plane, block;
      SimTime done;
    };
    std::vector<InFlightProgram> programs;
    std::vector<InFlightErase> erases;
    SimTime now = 0;

    auto check_page = [&](Ppn ppn, const char* when) {
      const std::string expected = model.Expected(ppn);
      ASSERT_EQ(FirstDiff(PageBytes(flash, ppn), expected), -1)
          << "CopyPage, seed " << seed << " ppn " << ppn << " " << when;
      std::string out;
      uint32_t raw = 0;
      flash.ReadPage(now, ppn, &out, &raw);
      ASSERT_EQ(FirstDiff(out, expected), -1)
          << "ReadPage, seed " << seed << " ppn " << ppn << " " << when;
    };
    // A page image, sometimes shorter than the page, sometimes with an
    // all-zero first sector (the store's zero frame), and with some sectors
    // zero from a random offset on, as engines pad their writes (short
    // frames).
    auto random_image = [&]() {
      const size_t total = rng.Bernoulli(0.5)
                               ? g.page_size
                               : rng.UniformRange(0, g.page_size);
      std::string image = RandomBytes(rng, total);
      if (rng.Bernoulli(0.2)) {
        std::fill_n(image.begin(), std::min<size_t>(total, 4 * kKiB), '\0');
      }
      for (size_t off = 0; off < total; off += 4 * kKiB) {
        if (!rng.Bernoulli(0.3)) continue;
        const size_t end = std::min<size_t>(total, off + 4 * kKiB);
        std::fill(image.begin() + off + rng.UniformRange(0, end - off),
                  image.begin() + end, '\0');
      }
      return image;
    };
    // A block that can take a program at its cursor, or false.
    auto programmable = [&](uint32_t plane, uint32_t block) {
      return !flash.is_bad_block(plane, block) &&
             flash.next_program_page(plane, block) < g.pages_per_block;
    };

    for (int op = 0; op < 3000; ++op) {
      now += static_cast<SimTime>(rng.Uniform(400 * kMicrosecond));
      const uint64_t kind = rng.Uniform(100);
      const uint32_t plane =
          static_cast<uint32_t>(rng.Uniform(g.total_planes()));
      const uint32_t block =
          static_cast<uint32_t>(rng.Uniform(g.blocks_per_plane));
      if (kind < 35) {
        if (!programmable(plane, block)) continue;
        const Ppn ppn =
            g.MakePpn(plane, block, flash.next_program_page(plane, block));
        std::string image;
        std::vector<FlashArray::Frame> frames;
        if (rng.Bernoulli(0.3)) {
          // A GC-style move: the page takes another page's frame ids.
          const Ppn src = rng.Uniform(g.total_pages());
          for (uint32_t s = 0; s < flash.slots_per_page(); ++s) {
            frames.push_back(flash.SlotFrame(src, s));
          }
          image = model.Expected(src);
          shared_programs++;
        } else {
          image = random_image();
        }
        const PageImage owned(&flash.store(), image);
        if (frames.empty()) {
          frames.assign(owned.frames().begin(), owned.frames().end());
        }
        SimTime done = 0, start = 0;
        const Status st = flash.ProgramPage(now, ppn, frames, &done, &start);
        if (st.ok()) {
          model.Program(ppn, image);
          programs.push_back({ppn, start, done});
        } else {
          ASSERT_TRUE(st.IsIoError()) << st.ToString();
          model.Drop(ppn);
        }
      } else if (kind < 45) {
        // Two-plane program on the sibling planes of one chip.
        const uint32_t p0 = plane - plane % g.planes_per_chip;
        const uint32_t b1 =
            static_cast<uint32_t>(rng.Uniform(g.blocks_per_plane));
        if (!programmable(p0, block) || !programmable(p0 + 1, b1)) continue;
        const Ppn ppns[2] = {
            g.MakePpn(p0, block, flash.next_program_page(p0, block)),
            g.MakePpn(p0 + 1, b1, flash.next_program_page(p0 + 1, b1))};
        const std::string images[2] = {random_image(), random_image()};
        const PageImage frames0(&flash.store(), images[0]);
        const PageImage frames1(&flash.store(), images[1]);
        SimTime done = 0, start = 0;
        bool failed[2] = {false, false};
        const Status st = flash.ProgramPagesMultiPlane(
            now, ppns[0], ppns[1], frames0.frames(), frames1.frames(), &done,
            &start, failed);
        ASSERT_TRUE(st.ok() || st.IsIoError()) << st.ToString();
        for (int i = 0; i < 2; ++i) {
          if (failed[i]) {
            model.Drop(ppns[i]);
          } else {
            model.Program(ppns[i], images[i]);
            programs.push_back({ppns[i], start, done});
          }
        }
      } else if (kind < 70) {
        const Ppn ppn = rng.Uniform(g.total_pages());
        ASSERT_NO_FATAL_FAILURE(check_page(ppn, "after read"));
      } else if (kind < 82) {
        if (flash.is_bad_block(plane, block)) continue;
        SimTime done = 0;
        const Status st = flash.EraseBlock(now, plane, block, &done);
        model.DropBlock(plane, block);
        if (st.ok()) erases.push_back({plane, block, done});
      } else if (kind < 83) {
        if (!rng.Bernoulli(0.25)) continue;  // Keep most blocks in service.
        flash.RetireBlock(plane, block);
        model.DropBlock(plane, block);
      } else if (kind < 95) {
        // State changes that must leave the bytes alone.
        const Ppn ppn = g.MakePpn(plane, block, 0) +
                        rng.Uniform(g.pages_per_block);
        if (rng.Bernoulli(0.5)) {
          flash.MarkInvalid(ppn);
        } else {
          flash.RevalidatePage(ppn);
        }
        ASSERT_NO_FATAL_FAILURE(check_page(ppn, "after state change"));
      } else {
        // Power cut at or after every instant issued so far, often inside
        // a program or an erase.
        const SimTime cut =
            now + static_cast<SimTime>(rng.Uniform(g.erase_latency));
        flash.PowerCut(cut);
        for (const InFlightProgram& p : programs) {
          if (p.done <= cut) continue;
          if (p.start >= cut) {
            model.Drop(p.ppn);
            never_started++;
          } else {
            model.Tear(p.ppn);
            torn++;
          }
        }
        for (const InFlightErase& e : erases) {
          if (e.done <= cut) continue;
          model.DropBlock(e.plane, e.block);
          interrupted_erases++;
        }
        programs.clear();
        erases.clear();
        now = cut;
      }
      if (op % 100 == 99) {
        for (Ppn ppn = 0; ppn < g.total_pages(); ++ppn) {
          ASSERT_NO_FATAL_FAILURE(check_page(ppn, "in full scan"));
        }
      }
    }
    program_fails += flash.stats().program_fails;
    bad_blocks += flash.stats().bad_blocks;
    multi_plane += flash.stats().multi_plane_programs;

    // Every frame belongs to some page; erasing (or retiring) every block
    // must hand each one back.
    for (uint32_t p = 0; p < g.total_planes(); ++p) {
      for (uint32_t b = 0; b < g.blocks_per_plane; ++b) {
        if (!flash.is_bad_block(p, b)) (void)flash.EraseBlock(now, p, b);
      }
    }
    EXPECT_EQ(flash.store().stats().live_frames, 0u) << "seed " << seed;
  }
  EXPECT_GT(program_fails, 0u);
  EXPECT_GT(never_started, 0u);
  EXPECT_GT(torn, 0u);
  EXPECT_GT(interrupted_erases, 0u);
  EXPECT_GT(bad_blocks, 0u);
  EXPECT_GT(multi_plane, 0u);
  EXPECT_GT(shared_programs, 0u);
}

TEST(FlashArrayModelTest, GatherProgramConcatenatesParts) {
  // A page is the concatenation of the frames it is handed, one per slot:
  // the zero frame reads as a zero sector, and a list longer than the
  // page's slots is refused.
  FlashArray flash(TinyOptions());
  const FlashGeometry& g = flash.geometry();
  const uint32_t sector = flash.store().sector_size();
  const std::string a(sector, 'a');
  SectorStore& store = flash.store();
  const FlashArray::Frame parts[] = {SectorStore::kZeroFrame, store.Put(a)};
  SimTime done = 0;
  ASSERT_TRUE(flash.ProgramPage(0, g.MakePpn(0, 0, 0), parts, &done).ok());
  EXPECT_EQ(PageBytes(flash, g.MakePpn(0, 0, 0)),
            std::string(sector, '\0') + a);

  const FlashArray::Frame too_big[] = {parts[1], parts[1], parts[1]};
  EXPECT_FALSE(
      flash.ProgramPage(done, g.MakePpn(0, 0, 1), too_big, &done).ok());
  store.Release(parts[1]);
  EXPECT_EQ(store.stats().live_frames, 1u);  // The page's reference.
}

// The bytes `frame` appends: its whole sector.
std::string SectorBytes(const SectorStore& store, SectorStore::Frame frame) {
  std::string out;
  store.AppendSector(frame, &out);
  return out;
}

TEST(SectorStoreTest, ZeroSectorsShareTheZeroFrame) {
  SectorStore store(4 * kKiB);
  EXPECT_EQ(store.Put(std::string(4 * kKiB, '\0')), SectorStore::kZeroFrame);
  EXPECT_EQ(store.Put(Slice()), SectorStore::kZeroFrame);
  EXPECT_EQ(store.stats().live_frames, 0u);
  EXPECT_EQ(store.stats().chunk_bytes, 0u);
  store.Release(SectorStore::kZeroFrame);  // A no-op.
  EXPECT_TRUE(store.Stored(SectorStore::kZeroFrame).empty());
  EXPECT_EQ(SectorBytes(store, SectorStore::kZeroFrame),
            std::string(4 * kKiB, '\0'));

  // A short image is zero-padded; frames recycle once released.
  const SectorStore::Frame f = store.Put("abc");
  ASSERT_NE(f, SectorStore::kZeroFrame);
  EXPECT_EQ(SectorBytes(store, f), "abc" + std::string(4 * kKiB - 3, '\0'));
  store.Ref(f);
  store.Release(f);
  EXPECT_EQ(store.stats().live_frames, 1u);
  store.Release(f);
  EXPECT_EQ(store.stats().live_frames, 0u);
  EXPECT_EQ(store.Put("xyz"), f);
}

// Random sectors whose non-zero prefix ends at or next to every class
// boundary, with random extra references and releases, checked against a
// model of the store's rules:
//   - a frame appends back exactly the sector it was put with, zero tail
//     included, also when it was handed out again after its pages went
//     back to the OS;
//   - its class is the smallest that covers the prefix: powers of two to a
//     quarter sector, then eighth-sector steps. It never takes a larger
//     class's frame;
//   - a class takes its resident released frame, then a returned one, then
//     the frame past its cursor, and only then a new chunk of a
//     power-of-two number of frames (at most 1 MiB);
//   - a class whose frames are whole system pages returns a released
//     frame's pages once it keeps a chunk's worth of resident released
//     frames;
//   - live frames, live bytes, chunk bytes and resident bytes (frames
//     handed out less those returned) follow, and releasing everything
//     ends at 0 live frames.
TEST(SectorStoreTest, FramesFollowTheReferenceModel) {
  constexpr uint32_t kSector = 4 * kKiB;
  const std::vector<size_t> class_bytes = {64,   128,  256,  512,
                                           1024, 1536, 2048, 2560,
                                           3072, 3584, 4096};
  const uint32_t classes = static_cast<uint32_t>(class_bytes.size());
  std::vector<size_t> prefixes = {0, 1};
  for (const size_t b : class_bytes) {
    prefixes.push_back(b - 1);
    prefixes.push_back(b);
    if (b < kSector) prefixes.push_back(b + 1);
  }
  auto class_of = [&](size_t prefix) {
    uint32_t c = 0;
    while (class_bytes[c] < prefix) c++;
    return c;
  };
  auto frames_per_chunk = [&](uint32_t c) {
    size_t n = 1;
    while (2 * n * class_bytes[c] <= SectorStore::kChunkBytes) n *= 2;
    return n;
  };

  // Only a class whose frames are whole system pages returns pages.
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  uint64_t all_returned = 0, all_retaken = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SectorStore store(kSector);
    auto chunk_bytes_of = [&](uint32_t c) {
      return (frames_per_chunk(c) * class_bytes[c] + page - 1) / page * page;
    };
    Random rng(seed * 104729);
    struct Live {
      std::string sector;
      uint32_t refs;
      uint32_t cls;
    };
    std::map<SectorStore::Frame, Live> live;
    uint64_t live_bytes = 0, chunk_bytes = 0, resident_bytes = 0;
    std::vector<uint64_t> released(classes, 0);  // Free and resident.
    std::vector<uint64_t> returned(classes, 0);  // Free, pages returned.
    std::vector<uint64_t> handed(classes, 0);    // Cursor per class.
    std::vector<uint64_t> chunks(classes, 0);
    handed[0] = 1;  // The zero frame's id is the smallest class's first.
    uint64_t new_chunks = 0;

    auto check_all = [&](const char* when) {
      ASSERT_EQ(store.stats().live_frames, live.size()) << when;
      ASSERT_EQ(store.stats().live_bytes, live_bytes) << when;
      ASSERT_EQ(store.stats().chunk_bytes, chunk_bytes) << when;
      ASSERT_EQ(store.stats().resident_bytes, resident_bytes) << when;
      for (const auto& [frame, l] : live) {
        ASSERT_EQ(SectorBytes(store, frame), l.sector)
            << "seed " << seed << " frame " << frame << " " << when;
      }
    };
    auto release = [&](std::map<SectorStore::Frame, Live>::iterator it) {
      store.Release(it->first);
      if (--it->second.refs > 0) return;
      const uint32_t cls = it->second.cls;
      if (class_bytes[cls] % page == 0 &&
          released[cls] >= frames_per_chunk(cls)) {
        returned[cls]++;
        resident_bytes -= class_bytes[cls];
        all_returned++;
      } else {
        released[cls]++;
      }
      live_bytes -= class_bytes[cls];
      live.erase(it);
    };

    auto release_all = [&]() {
      while (!live.empty()) {
        auto it = live.begin();
        while (it != live.end()) release(it++);
      }
    };

    // Half the sectors fall in one hot class, so it runs through chunks.
    // Halfway every frame is released, so the hot class returns pages past
    // its resident reserve, and the second half takes them back.
    const uint32_t hot = seed == 2 ? 7 : classes - 1;  // 2.5 or 4 KiB.
    size_t target = 0;
    for (int op = 0; op < 12000; ++op) {
      if (op == 6000) {
        release_all();
        ASSERT_NO_FATAL_FAILURE(check_all("halfway"));
      }
      if (op % 2000 == 0) target = rng.UniformRange(300, 1500);
      const bool put = live.empty() ||
                       rng.Bernoulli(live.size() < target ? 0.7 : 0.3);
      if (put) {
        const size_t prefix =
            rng.Bernoulli(0.5)
                ? rng.UniformRange(class_bytes[hot - 1] + 1, class_bytes[hot])
                : prefixes[rng.Uniform(prefixes.size())];
        std::string sector(kSector, '\0');
        for (size_t i = 0; i < prefix; ++i) {
          sector[i] = static_cast<char>(rng.Uniform(256));
        }
        if (prefix > 0) {
          sector[prefix - 1] = static_cast<char>(rng.Uniform(255) + 1);
        }
        // The store takes anything up to a sector; the rest reads as zeros.
        const size_t len = rng.UniformRange(prefix, kSector);
        const SectorStore::Frame frame = store.Put(Slice(sector.data(), len));
        if (prefix == 0) {
          ASSERT_EQ(frame, SectorStore::kZeroFrame);
          continue;
        }
        ASSERT_NE(frame, SectorStore::kZeroFrame);
        ASSERT_EQ(live.count(frame), 0u) << "frame ids alias";
        const uint32_t cls = class_of(prefix);
        if (released[cls] > 0) {
          released[cls]--;
        } else if (returned[cls] > 0) {
          returned[cls]--;
          resident_bytes += class_bytes[cls];
          all_retaken++;
        } else {
          if (handed[cls] >= chunks[cls] * frames_per_chunk(cls)) {
            chunks[cls]++;
            chunk_bytes += chunk_bytes_of(cls);
            new_chunks++;
          }
          handed[cls]++;
          resident_bytes += class_bytes[cls];
        }
        ASSERT_EQ(store.Stored(frame).size(), class_bytes[cls])
            << "seed " << seed << " prefix " << prefix << " len " << len;
        live[frame] = {sector, 1, cls};
        live_bytes += class_bytes[cls];
        ASSERT_EQ(SectorBytes(store, frame), sector);
      } else {
        auto it = live.begin();
        std::advance(it, rng.Uniform(live.size()));
        if (rng.Bernoulli(0.25)) {
          store.Ref(it->first);
          it->second.refs++;
        } else {
          release(it);
        }
      }
      if (op % 1000 == 999) {
        ASSERT_NO_FATAL_FAILURE(check_all("in scan"));
      }
    }
    ASSERT_NO_FATAL_FAILURE(check_all("at end"));
    EXPECT_GT(new_chunks, classes) << "seed " << seed;

    release_all();
    ASSERT_NO_FATAL_FAILURE(check_all("all released"));
    EXPECT_EQ(store.stats().live_frames, 0u);
    EXPECT_EQ(store.stats().live_bytes, 0u);
  }
  // On a host whose pages are larger than the 4 KiB frames, nothing is
  // returned and the model above still holds.
  if (page <= kSector) {
    EXPECT_GT(all_returned, 0u);
    EXPECT_GT(all_retaken, 0u);
  }
}

}  // namespace
}  // namespace durassd
