#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace garnet::util {
namespace {

TEST(ByteWriter, BigEndianLayout) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u24(0x00ABCDEF);
  w.u32(0xDEADBEEF);
  const Bytes out = std::move(w).take();
  ASSERT_EQ(out.size(), 1u + 2 + 3 + 4);
  EXPECT_EQ(static_cast<unsigned>(out[0]), 0xABu);
  EXPECT_EQ(static_cast<unsigned>(out[1]), 0x12u);
  EXPECT_EQ(static_cast<unsigned>(out[2]), 0x34u);
  EXPECT_EQ(static_cast<unsigned>(out[3]), 0xABu);
  EXPECT_EQ(static_cast<unsigned>(out[4]), 0xCDu);
  EXPECT_EQ(static_cast<unsigned>(out[5]), 0xEFu);
  EXPECT_EQ(static_cast<unsigned>(out[6]), 0xDEu);
}

TEST(ByteRoundTrip, AllPrimitives) {
  ByteWriter w;
  w.u8(0x7F);
  w.u16(0xFFFF);
  w.u24(0xFFFFFF);
  w.u32(0x12345678);
  w.u64(0xFEDCBA9876543210ull);
  w.i64(-123456789);
  w.f64(3.14159);
  w.str("garnet");

  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u16(), 0xFFFF);
  EXPECT_EQ(r.u24(), 0xFFFFFFu);
  EXPECT_EQ(r.u32(), 0x12345678u);
  EXPECT_EQ(r.u64(), 0xFEDCBA9876543210ull);
  EXPECT_EQ(r.i64(), -123456789);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "garnet");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteRoundTrip, FloatSpecials) {
  ByteWriter w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::denorm_min());
  ByteReader r(w.view());
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
}

TEST(ByteReader, TruncationSticks) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.view());
  (void)r.u32();  // needs 4, only 2 available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // subsequent reads keep failing safely
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, EmptyInput) {
  ByteReader r(BytesView{});
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, RawReadsExact) {
  ByteWriter w;
  w.raw(to_bytes("hello world"));
  ByteReader r(w.view());
  EXPECT_EQ(to_string(r.raw(5)), "hello");
  EXPECT_EQ(r.remaining(), 6u);
}

TEST(ByteReader, StrTruncatedLength) {
  ByteWriter w;
  w.u16(100);  // claims 100 bytes, provides none
  ByteReader r(w.view());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, StringHelpersRoundTrip) {
  const Bytes b = to_bytes("abc\0def");
  EXPECT_EQ(to_string(b), std::string("abc"));  // string_view stops at NUL here
  const Bytes full = to_bytes(std::string_view("abc\0def", 7));
  EXPECT_EQ(to_string(full).size(), 7u);
}

TEST(ByteWriter, ConsumedTracksPosition) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.view());
  (void)r.u32();
  EXPECT_EQ(r.consumed(), 4u);
  EXPECT_EQ(r.remaining(), 4u);
}

// Every fixed-width read, truncated at every possible shortfall, after a
// prefix the reader has already consumed: the failed read leaves ok()
// false and consumed() at the end of the input, and every later read of
// any width returns 0 without moving the cursor.
TEST(ByteReader, TruncatedFixedWidthReadsFailAtTheEndOfInput) {
  struct Read {
    const char* name;
    std::size_t width;
    std::function<std::uint64_t(ByteReader&)> read;
  };
  const std::vector<Read> reads = {
      {"u8", 1, [](ByteReader& r) { return std::uint64_t{r.u8()}; }},
      {"u16", 2, [](ByteReader& r) { return std::uint64_t{r.u16()}; }},
      {"u24", 3, [](ByteReader& r) { return std::uint64_t{r.u24()}; }},
      {"u32", 4, [](ByteReader& r) { return std::uint64_t{r.u32()}; }},
      {"u64", 8, [](ByteReader& r) { return r.u64(); }},
      {"i64", 8, [](ByteReader& r) { return static_cast<std::uint64_t>(r.i64()); }},
      {"f64", 8, [](ByteReader& r) { return std::bit_cast<std::uint64_t>(r.f64()); }},
  };
  for (const Read& truncated : reads) {
    for (std::size_t prefix = 0; prefix <= 3; ++prefix) {
      for (std::size_t available = 0; available < truncated.width; ++available) {
        const Bytes input(prefix + available, std::byte{0xA5});
        SCOPED_TRACE(std::string(truncated.name) + " prefix=" + std::to_string(prefix) +
                     " available=" + std::to_string(available));
        ByteReader r(input);
        for (std::size_t i = 0; i < prefix; ++i) EXPECT_EQ(r.u8(), 0xA5u);
        ASSERT_TRUE(r.ok());
        (void)truncated.read(r);
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(r.consumed(), input.size());
        EXPECT_EQ(r.remaining(), 0u);
        for (const Read& later : reads) {
          SCOPED_TRACE(std::string("then ") + later.name);
          EXPECT_EQ(later.read(r), 0u);
          EXPECT_FALSE(r.ok());
          EXPECT_EQ(r.consumed(), input.size());
        }
      }
    }
  }
}

TEST(ByteWriter, EveryWidthIsBigEndian) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u24(0x040506);
  w.u32(0x0708090A);
  w.u64(0x0B0C0D0E0F101112ull);
  w.i64(-2);
  w.f64(1.0);
  const std::vector<unsigned> expected = {
      0x01,                                            // u8
      0x02, 0x03,                                      // u16
      0x04, 0x05, 0x06,                                // u24
      0x07, 0x08, 0x09, 0x0A,                          // u32
      0x0B, 0x0C, 0x0D, 0x0E, 0x0F, 0x10, 0x11, 0x12,  // u64
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE,  // i64 -2
      0x3F, 0xF0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // f64 1.0
  };
  const BytesView out = w.view();
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<unsigned>(out[i]), expected[i]) << "byte " << i;
  }
}

}  // namespace
}  // namespace garnet::util
