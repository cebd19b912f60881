#include "util/crc32c.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace garnet::util {
namespace {

// Bit-at-a-time CRC-32C straight from the definition: the reference every
// fast path must equal.
std::uint32_t reference_crc32c(BytesView data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc ^= static_cast<std::uint8_t>(b);
    for (int bit = 0; bit < 8; ++bit) crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

// Published CRC-32C check values.
TEST(Crc32c, KnownVectors) {
  EXPECT_EQ(crc32c(to_bytes("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c(to_bytes("")), 0x00000000u);
  EXPECT_EQ(crc32c(to_bytes("a")), 0xC1D04330u);
  EXPECT_EQ(crc32c(to_bytes("abc")), 0x364B3FB7u);
}

TEST(Crc32c, AllZeros32Bytes) {
  const Bytes zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);  // RFC 3720 B.4 test vector
}

TEST(Crc32c, AllOnes32Bytes) {
  const Bytes ones(32, std::byte{0xFF});
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);  // RFC 3720 B.4 test vector
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  Crc32c crc;
  crc.update(BytesView(data).first(10));
  crc.update(BytesView(data).subspan(10));
  EXPECT_EQ(crc.value(), crc32c(data));
}

TEST(Crc32c, DetectsSingleBitFlip) {
  Bytes data = to_bytes("sensor payload");
  const std::uint32_t before = crc32c(data);
  data[5] ^= std::byte{0x01};
  EXPECT_NE(crc32c(data), before);
}

TEST(Crc32c, DetectsTransposition) {
  const std::uint32_t a = crc32c(to_bytes("ab"));
  const std::uint32_t b = crc32c(to_bytes("ba"));
  EXPECT_NE(a, b);
}

// Every length across the three-lane boundary, at every alignment.
TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::size_t max_len = 3 * kCrc32cLaneBytes + 64;
  const Bytes data = random_bytes(max_len + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= max_len; ++len) {
      const BytesView view = BytesView(data).subspan(offset, len);
      ASSERT_EQ(crc32c(view), reference_crc32c(view)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32c, MatchesBitwiseReferenceOn64KiB) {
  const Bytes data = random_bytes(64 * 1024, 2);
  EXPECT_EQ(crc32c(data), reference_crc32c(data));
}

TEST(Crc32c, UpdateSplitAtRandomPointsMatchesReference) {
  const Bytes data = random_bytes(8 * kCrc32cLaneBytes + 13, 3);
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const auto len = static_cast<std::size_t>(rng.below(data.size() + 1));
    const BytesView whole = BytesView(data).first(len);
    std::vector<std::size_t> cuts = {0, len};
    const auto pieces = rng.below(6);
    for (std::uint64_t i = 0; i < pieces; ++i) {
      cuts.push_back(static_cast<std::size_t>(rng.below(len + 1)));
    }
    std::sort(cuts.begin(), cuts.end());
    Crc32c crc;
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      crc.update(whole.subspan(cuts[i - 1], cuts[i] - cuts[i - 1]));
    }
    ASSERT_EQ(crc.value(), reference_crc32c(whole)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace garnet::util
