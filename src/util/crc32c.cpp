#include "util/crc32c.hpp"

#include <array>
#include <cstring>

namespace garnet::util {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected CRC-32C polynomial

// Slicing-by-8: table[0] is the classic byte-at-a-time table; table[k]
// advances a byte through k additional zero bytes, so eight lookups
// retire eight input bytes per iteration.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[k][i] = tables[0][tables[k - 1][i] & 0xFFu] ^ (tables[k - 1][i] >> 8);
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

std::uint32_t update_sliced(std::uint32_t crc, const std::byte* p, std::size_t n) {
  while (n >= 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);  // little-endian assumed, as elsewhere in util/bytes
    crc ^= static_cast<std::uint32_t>(chunk);
    const auto hi = static_cast<std::uint32_t>(chunk >> 32);
    crc = kTables[7][crc & 0xFFu] ^ kTables[6][(crc >> 8) & 0xFFu] ^
          kTables[5][(crc >> 16) & 0xFFu] ^ kTables[4][crc >> 24] ^ kTables[3][hi & 0xFFu] ^
          kTables[2][(hi >> 8) & 0xFFu] ^ kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ static_cast<std::uint8_t>(*p++)) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && defined(__GNUC__)
// Joining lanes: the CRC register is linear in its state, so the register
// after A‖B is the register after A advanced through |B| zero bytes, xor
// the register after B from zero. kShift[k][b] is the register b << 8k
// advanced through kCrc32cLaneBytes zero bytes; four lookups advance any
// register.
constexpr std::array<std::array<std::uint32_t, 256>, 4> make_shift_tables() {
  std::array<std::uint32_t, 32> basis{};
  for (std::size_t bit = 0; bit < 32; ++bit) {
    std::uint32_t crc = 1u << bit;
    for (std::size_t i = 0; i < kCrc32cLaneBytes; ++i) crc = kTables[0][crc & 0xFFu] ^ (crc >> 8);
    basis[bit] = crc;
  }
  std::array<std::array<std::uint32_t, 256>, 4> tables{};
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1u) tables[k][b] ^= basis[8 * k + bit];
      }
    }
  }
  return tables;
}

constexpr auto kShift = make_shift_tables();

std::uint32_t shift_lane(std::uint32_t crc) {
  return kShift[0][crc & 0xFFu] ^ kShift[1][(crc >> 8) & 0xFFu] ^ kShift[2][(crc >> 16) & 0xFFu] ^
         kShift[3][crc >> 24];
}

inline std::uint64_t load64(const std::byte* p) {
  std::uint64_t chunk = 0;
  std::memcpy(&chunk, p, 8);
  return chunk;
}

// crc32 has a three-cycle latency but issues every cycle, so one chain
// uses a third of the unit. Runs of three lane blocks get three
// independent chains (the first continues the running register, the
// others start from zero), joined by shift_lane.
__attribute__((target("sse4.2"))) std::uint32_t update_hw(std::uint32_t crc, const std::byte* p,
                                                          std::size_t n) {
  constexpr std::size_t kLane = kCrc32cLaneBytes;
  std::uint64_t crc64 = crc;
  while (n >= 3 * kLane) {
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < kLane; i += 8) {
      crc64 = __builtin_ia32_crc32di(crc64, load64(p + i));
      crc1 = __builtin_ia32_crc32di(crc1, load64(p + kLane + i));
      crc2 = __builtin_ia32_crc32di(crc2, load64(p + 2 * kLane + i));
    }
    crc64 = shift_lane(static_cast<std::uint32_t>(crc64)) ^ crc1;
    crc64 = shift_lane(static_cast<std::uint32_t>(crc64)) ^ crc2;
    p += 3 * kLane;
    n -= 3 * kLane;
  }
  while (n >= 8) {
    crc64 = __builtin_ia32_crc32di(crc64, load64(p));
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
  while (n-- > 0) {
    crc = __builtin_ia32_crc32qi(crc, static_cast<std::uint8_t>(*p++));
  }
  return crc;
}

bool hw_supported() {
  static const bool supported = __builtin_cpu_supports("sse4.2");
  return supported;
}
#else
std::uint32_t update_hw(std::uint32_t crc, const std::byte* p, std::size_t n) {
  return update_sliced(crc, p, n);
}
constexpr bool hw_supported() { return false; }
#endif

}  // namespace

void Crc32c::update(BytesView data) {
  state_ = hw_supported() ? update_hw(state_, data.data(), data.size())
                          : update_sliced(state_, data.data(), data.size());
}

std::uint32_t Crc32c::value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

std::uint32_t crc32c(BytesView data) {
  Crc32c crc;
  crc.update(data);
  return crc.value();
}

}  // namespace garnet::util
