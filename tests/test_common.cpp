// Unit tests for common/: Result/Status, CRC32C, Internet checksum, RNG,
// stats. Checksum vectors come from the relevant RFCs and known-good
// implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/inet_csum.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace papm {
namespace {

std::vector<u8> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

// ---------- Status / Result ----------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.errc(), Errc::ok);
  EXPECT_TRUE(static_cast<bool>(s));
}

TEST(Status, CarriesError) {
  Status s = Errc::not_found;
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "not_found");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.errc(), Errc::ok);
}

TEST(Result, HoldsError) {
  Result<int> r = Errc::corrupted;
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.errc(), Errc::corrupted);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

TEST(ErrcToString, AllValuesNamed) {
  for (int i = 0; i <= static_cast<int>(Errc::internal); i++) {
    EXPECT_NE(to_string(static_cast<Errc>(i)), "unknown");
  }
}

// ---------- CRC32C ----------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 (iSCSI) test vectors.
  std::vector<u8> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  std::vector<u8> ones(32, 0xff);
  EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
  std::vector<u8> inc(32);
  std::iota(inc.begin(), inc.end(), u8{0});
  EXPECT_EQ(crc32c(inc), 0x46dd794eu);
  std::vector<u8> dec(32);
  for (int i = 0; i < 32; i++) dec[i] = static_cast<u8>(31 - i);
  EXPECT_EQ(crc32c(dec), 0x113fdb5cu);
}

TEST(Crc32c, Empty) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32c, StreamingMatchesOneShot) {
  const auto data = bytes("The quick brown fox jumps over the lazy dog");
  const u32 whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    u32 crc = crc32c_extend(0, std::span(data).first(split));
    crc = crc32c_extend(crc, std::span(data).subspan(split));
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, MaskRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 100; i++) {
    const u32 v = static_cast<u32>(rng.next());
    EXPECT_EQ(crc32c_unmask(crc32c_mask(v)), v);
    EXPECT_NE(crc32c_mask(v), v);  // mask must change the value
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  auto data = bytes("persistence requires integrity");
  const u32 orig = crc32c(data);
  for (std::size_t byte = 0; byte < data.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      data[byte] ^= static_cast<u8>(1u << bit);
      EXPECT_NE(crc32c(data), orig);
      data[byte] ^= static_cast<u8>(1u << bit);
    }
  }
}

// ---------- Internet checksum ----------

TEST(InetCsum, Rfc1071Example) {
  // RFC 1071 §3 worked example: bytes 00 01 f2 03 f4 f5 f6 f7.
  const std::vector<u8> data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(inet_fold(inet_sum(data)), 0xddf2u);
  EXPECT_EQ(inet_checksum(data), static_cast<u16>(~0xddf2u & 0xffff));
}

TEST(InetCsum, ZeroBufferChecksumIsFFFF) {
  std::vector<u8> zeros(64, 0);
  EXPECT_EQ(inet_checksum(zeros), 0xffffu);
}

TEST(InetCsum, OddLengthPadsWithZero) {
  const std::vector<u8> odd = {0x12, 0x34, 0x56};
  const std::vector<u8> even = {0x12, 0x34, 0x56, 0x00};
  EXPECT_EQ(inet_checksum(odd), inet_checksum(even));
}

TEST(InetCsum, VerifyStyleSumIsZero) {
  // Appending the checksum to (even-length) data makes the folded sum
  // 0xffff (all-ones), the receiver-side validity condition.
  auto data = bytes("some tcp segment payload");
  const u16 csum = inet_checksum(data);
  data.push_back(static_cast<u8>(csum >> 8));
  data.push_back(static_cast<u8>(csum & 0xff));
  EXPECT_EQ(inet_fold(inet_sum(data)), 0xffffu);
}

TEST(InetCsum, ConcatEvenBoundary) {
  Rng rng(7);
  std::vector<u8> data(256);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  for (std::size_t split : {2u, 64u, 128u, 254u}) {
    const u16 a = inet_checksum(std::span(data).first(split));
    const u16 b = inet_checksum(std::span(data).subspan(split));
    EXPECT_EQ(inet_csum_concat(a, split, b, data.size() - split),
              inet_checksum(data))
        << "split " << split;
  }
}

TEST(InetCsum, ConcatOddBoundary) {
  Rng rng(8);
  std::vector<u8> data(255);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  for (std::size_t split : {1u, 3u, 63u, 127u, 253u}) {
    const u16 a = inet_checksum(std::span(data).first(split));
    const u16 b = inet_checksum(std::span(data).subspan(split));
    EXPECT_EQ(inet_csum_concat(a, split, b, data.size() - split),
              inet_checksum(data))
        << "split " << split;
  }
}

TEST(InetCsum, IncrementalUpdateRfc1624) {
  std::vector<u8> data(64);
  Rng rng(9);
  for (auto& b : data) b = static_cast<u8>(rng.next());
  const u16 before = inet_checksum(data);
  // Change the 16-bit word at offset 10.
  const u16 old_word = static_cast<u16>(data[10] << 8 | data[11]);
  data[10] = 0xde;
  data[11] = 0xad;
  const u16 new_word = 0xdead;
  EXPECT_EQ(inet_csum_update(before, old_word, new_word), inet_checksum(data));
}

// ---------- RNG ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; i++) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; i++) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10000; i++) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 100000; i++) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(8);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) sum += rng.next_exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Zipf, SkewsTowardLowIndices) {
  Zipf z(1000, 0.99, 42);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; i++) counts[z.next()]++;
  // Index 0 must be by far the most popular.
  EXPECT_GT(counts[0], counts[500] * 10);
  EXPECT_GT(counts[0], 1000);
}

TEST(Zipf, CoversRange) {
  Zipf z(10, 0.5, 43);
  std::vector<bool> seen(10, false);
  for (int i = 0; i < 10000; i++) seen[z.next()] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

// ---------- Stats ----------

TEST(Stats, BasicMoments) {
  Stats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Stats, PercentileNearestRank) {
  Stats s;
  for (int i = 1; i <= 100; i++) s.add(i);
  // Nearest rank over {1..100}: rank = ceil(p), always an actual sample.
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.01), 100.0);  // ceil(99.01) = 100
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Stats, PercentileEdgeCases) {
  Stats one;
  one.add(42.0);
  // A single sample answers every percentile query.
  EXPECT_DOUBLE_EQ(one.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(100), 42.0);
  // Out-of-range p clamps instead of indexing past the ends.
  EXPECT_DOUBLE_EQ(one.percentile(-5), 42.0);
  EXPECT_DOUBLE_EQ(one.percentile(250), 42.0);

  Stats two;
  two.add(1.0);
  two.add(2.0);
  EXPECT_DOUBLE_EQ(two.percentile(0), 1.0);    // p=0 is the minimum
  EXPECT_DOUBLE_EQ(two.percentile(50), 1.0);   // rank ceil(0.5*2) = 1
  EXPECT_DOUBLE_EQ(two.percentile(50.1), 2.0);  // rank ceil(1.002) = 2
}

TEST(Stats, EmptyIsZero) {
  Stats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
}

TEST(Stats, ClearResets) {
  Stats s;
  s.add(10);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

// ---------- alignment helpers ----------

TEST(Align, UpDown) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
  EXPECT_EQ(align_down(63, 64), 0u);
  EXPECT_EQ(align_down(64, 64), 64u);
  EXPECT_EQ(align_down(127, 64), 64u);
}

}  // namespace
}  // namespace papm
