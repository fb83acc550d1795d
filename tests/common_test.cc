#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/resource.h"
#include "common/slice.h"
#include "common/status.h"

namespace durassd {
namespace {

// --------------------------- Status ---------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("torn page 17");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.ToString(), "Corruption: torn page 17");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::IoError().IsIoError());
  EXPECT_TRUE(Status::DeviceOffline().IsDeviceOffline());
  EXPECT_TRUE(Status::OutOfSpace().IsOutOfSpace());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::DataLoss().IsDataLoss());
  EXPECT_TRUE(Status::ResourceExhausted().IsResourceExhausted());
}

TEST(StatusTest, ResourceExhaustedIsItsOwnCode) {
  // Distinct from kOutOfSpace: OutOfSpace is a transient allocation failure
  // (GC may reclaim space); ResourceExhausted is the permanent read-only
  // degraded condition.
  const Status re = Status::ResourceExhausted("spares gone");
  EXPECT_FALSE(re.ok());
  EXPECT_TRUE(re.IsResourceExhausted());
  EXPECT_FALSE(re.IsOutOfSpace());
  EXPECT_FALSE(Status::OutOfSpace().IsResourceExhausted());
  EXPECT_EQ(re.ToString(), "ResourceExhausted: spares gone");
  EXPECT_EQ(Status::ResourceExhausted().ToString(),
            "ResourceExhausted: resource exhausted");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  StatusOr<int> bad(Status::NotFound("x"));
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

// --------------------------- Slice ----------------------------------------

TEST(SliceTest, CompareAndEquality) {
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("b").compare(Slice("abc")), 0);
}

TEST(SliceTest, RemovePrefix) {
  Slice s("hello world");
  s.remove_prefix(6);
  EXPECT_EQ(s.ToString(), "world");
}

// --------------------------- CRC32C ---------------------------------------

TEST(Crc32cTest, KnownVector) {
  // Standard check vector plus the RFC 3720 B.4 vectors, on both the
  // dispatched path and the table path.
  std::vector<std::pair<std::string, uint32_t>> vectors{
      {"123456789", 0xE3069283u},
      {std::string(32, '\x00'), 0x8A9136AAu},
      {std::string(32, '\xFF'), 0x62A8AB43u},
  };
  std::string ascending, descending;
  for (int i = 0; i < 32; ++i) {
    ascending.push_back(static_cast<char>(i));
    descending.push_back(static_cast<char>(31 - i));
  }
  vectors.emplace_back(ascending, 0x46DD794Eu);
  vectors.emplace_back(descending, 0x113FDB5Cu);
  for (const auto& [data, crc] : vectors) {
    EXPECT_EQ(Crc32c(data.data(), data.size()), crc);
    EXPECT_EQ(Crc32cPortable(data.data(), data.size()), crc);
  }
}

TEST(Crc32cTest, DispatchedMatchesTableAtEveryLengthAndAlignment) {
  Random rng(32);
  std::string buf(1024 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 1024; ++n) {
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32c(buf.data() + offset, n, seed),
                Crc32cPortable(buf.data() + offset, n, seed))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(4096, 'a');
  const uint32_t before = Crc32c(data.data(), data.size());
  data[2048] ^= 0x01;
  EXPECT_NE(before, Crc32c(data.data(), data.size()));
}

TEST(Crc32cTest, SeedChaining) {
  const uint32_t direct = Crc32c("abcdef", 6);
  const uint32_t part = Crc32c("abc", 3);
  EXPECT_EQ(direct, Crc32c("def", 3, part));

  // Chaining at every split point of a page gives the whole page's CRC.
  Random rng(4096);
  std::string page(4096, '\0');
  for (char& c : page) c = static_cast<char>(rng.Next());
  const uint32_t whole = Crc32c(page.data(), page.size());
  for (size_t split = 0; split <= page.size(); ++split) {
    const uint32_t head = Crc32c(page.data(), split);
    ASSERT_EQ(Crc32c(page.data() + split, page.size() - split, head), whole)
        << "split " << split;
  }
}

// --------------------------- Coding ---------------------------------------

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEF);
  Slice in(buf);
  uint32_t v = 0;
  ASSERT_TRUE(GetFixed32(&in, &v));
  EXPECT_EQ(v, 0xDEADBEEFu);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint64_t v = 0;
  ASSERT_TRUE(GetFixed64(&in, &v));
  EXPECT_EQ(v, 0x0123456789ABCDEFull);
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, "world");
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&in, &a));
  ASSERT_TRUE(GetLengthPrefixed(&in, &b));
  ASSERT_TRUE(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_EQ(b.ToString(), "");
  EXPECT_EQ(c.ToString(), "world");
  EXPECT_FALSE(GetLengthPrefixed(&in, &a));  // Exhausted.
}

TEST(CodingTest, GetLengthPrefixedRejectsUnderflow) {
  std::string buf;
  PutFixed32(&buf, 100);  // Claims 100 bytes, provides none.
  Slice in(buf);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixed(&in, &out));
}

// --------------------------- Random ---------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformStaysInRange) {
  Random r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    const uint64_t x = r.UniformRange(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
  }
}

TEST(RandomTest, BernoulliRoughlyFair) {
  Random r(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.Bernoulli(0.3);
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(ZipfianTest, SkewsTowardHotKeys) {
  Random r(5);
  ZipfianGenerator zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.Next(r)]++;
  // Item 0 should dominate; top-10 should absorb a large share.
  EXPECT_GT(counts[0], counts[500] * 10);
  int top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += counts[i];
  EXPECT_GT(top10, 100000 / 4);
}

TEST(ZipfianTest, ScrambledCoversRangeAndStaysSkewed) {
  Random r(6);
  ZipfianGenerator zipf(100, 0.99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = zipf.NextScrambled(r);
    ASSERT_LT(v, 100u);
    seen.insert(v);
  }
  EXPECT_GT(seen.size(), 50u);  // Spreads across the space.
}

// --------------------------- Histogram ------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * kMillisecond);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1 * kMillisecond);
  EXPECT_EQ(h.max(), 100 * kMillisecond);
  EXPECT_NEAR(h.Mean(), 50.5 * kMillisecond, kMillisecond);
  // Geometric buckets: allow ~7% relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 50 * kMillisecond,
              5.0 * kMillisecond);
  EXPECT_NEAR(static_cast<double>(h.Percentile(99)), 99 * kMillisecond,
              8.0 * kMillisecond);
}

TEST(HistogramTest, MergeMatchesCombined) {
  Histogram a, b, all;
  Random r(9);
  for (int i = 0; i < 500; ++i) {
    const SimTime v = static_cast<SimTime>(r.Uniform(1000000)) + 1;
    ((i % 2 == 0) ? a : b).Record(v);
    all.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.Mean(), all.Mean());
  EXPECT_EQ(a.Percentile(75), all.Percentile(75));
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0);
  EXPECT_EQ(h.max(), 0);
}

// --------------------------- ResourceTimeline -----------------------------

TEST(ResourceTimelineTest, SerializesAtCapacityOne) {
  ResourceTimeline r(1);
  auto g1 = r.Acquire(0, 100);
  auto g2 = r.Acquire(0, 100);
  EXPECT_EQ(g1.start, 0);
  EXPECT_EQ(g1.done, 100);
  EXPECT_EQ(g2.start, 100);
  EXPECT_EQ(g2.done, 200);
}

TEST(ResourceTimelineTest, ParallelUpToCapacity) {
  ResourceTimeline r(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.Acquire(0, 50).start, 0);
  }
  EXPECT_EQ(r.Acquire(0, 50).start, 50);  // Fourth waits.
}

TEST(ResourceTimelineTest, IdleGapsDoNotAccumulate) {
  ResourceTimeline r(1);
  r.Acquire(0, 10);
  auto g = r.Acquire(1000, 10);  // Arrives long after idle.
  EXPECT_EQ(g.start, 1000);
}

TEST(ResourceTimelineTest, AllFreeReportsDrainTime) {
  ResourceTimeline r(2);
  r.Acquire(0, 100);
  r.Acquire(0, 300);
  EXPECT_EQ(r.AllFree(), 300);
}

}  // namespace
}  // namespace durassd
