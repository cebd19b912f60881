// Byte-level serialisation helpers.
//
// Garnet's wire format (paper Figure 2) is defined in terms of exact bit
// widths; the codec in core/message builds on these big-endian primitives.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace garnet::util {

using Bytes = std::vector<std::byte>;
using BytesView = std::span<const std::byte>;

/// One element of a scatter-gather write: an immutable byte run that a
/// transport hands to the kernel (POSIX `struct iovec`) without copying.
/// Kept POSIX-free so codec-level code can build slice arrays portably;
/// gw::PosixTransport converts at the syscall boundary.
struct IoSlice {
  const std::byte* data = nullptr;
  std::size_t size = 0;

  [[nodiscard]] static IoSlice of(BytesView bytes) noexcept {
    return {bytes.data(), bytes.size()};
  }
};

/// Appends big-endian encoded primitives to a growing byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { out_.reserve(reserve); }

  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { put<2>(v); }
  /// Low 24 bits only; high byte must be zero.
  void u24(std::uint32_t v) {
    assert((v >> 24) == 0 && "u24 value exceeds 24 bits");
    put<3>(v);
  }
  void u32(std::uint32_t v) { put<4>(v); }
  void u64(std::uint64_t v) { put<8>(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void raw(BytesView data);
  void str(std::string_view s);  ///< u16 length prefix + bytes.

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  [[nodiscard]] BytesView view() const noexcept { return out_; }
  [[nodiscard]] Bytes take() && { return std::move(out_); }

 private:
  /// Appends the low N bytes of v, most significant first.
  template <std::size_t N>
  void put(std::uint64_t v) {
    const std::size_t at = out_.size();
    out_.resize(at + N);
    std::byte* p = out_.data() + at;
    for (std::size_t i = 0; i < N; ++i) p[i] = static_cast<std::byte>(v >> (8 * (N - 1 - i)));
  }

  Bytes out_;
};

enum class DecodeError : std::uint8_t {
  kTruncated,       ///< Fewer bytes remained than the read required.
  kBadChecksum,     ///< CRC trailer did not match the body.
  kBadVersion,      ///< Unsupported format version.
  kMalformed,       ///< Structurally invalid contents.
  kLengthMismatch,  ///< Declared payload size disagrees with actual bytes.
};

[[nodiscard]] std::string_view to_string(DecodeError e);

/// Consumes big-endian primitives from a byte view, tracking truncation.
///
/// All reads after the first failure keep failing and return 0; callers
/// may batch reads and check ok() once at the end. A fixed-width read
/// that runs out of input fails with the cursor at the end of the input.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(fixed<1>()); }
  [[nodiscard]] std::uint16_t u16() { return static_cast<std::uint16_t>(fixed<2>()); }
  [[nodiscard]] std::uint32_t u24() { return static_cast<std::uint32_t>(fixed<3>()); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(fixed<4>()); }
  [[nodiscard]] std::uint64_t u64() { return fixed<8>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] Bytes raw(std::size_t n);
  /// Zero-copy read: a view of the next n bytes, aliasing the reader's
  /// underlying buffer (valid for that buffer's lifetime). Empty on
  /// truncation.
  [[nodiscard]] BytesView view(std::size_t n);
  [[nodiscard]] std::string str();

  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }

 private:
  [[nodiscard]] bool take(std::size_t n);

  /// Reads N big-endian bytes with one bounds check.
  template <std::size_t N>
  [[nodiscard]] std::uint64_t fixed() {
    if (failed_ || data_.size() - pos_ < N) [[unlikely]] {
      if (!failed_) pos_ = data_.size();
      failed_ = true;
      return 0;
    }
    const std::byte* p = data_.data() + pos_;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
    pos_ += N;
    return v;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Convenience: view over a string's bytes (for tests and payload helpers).
[[nodiscard]] Bytes to_bytes(std::string_view s);
[[nodiscard]] std::string to_string(BytesView b);

}  // namespace garnet::util
