// Byte-level serialisation helpers.
//
// Garnet's wire format (paper Figure 2) is defined in terms of exact bit
// widths; the codec in core/message builds on these big-endian primitives.
#pragma once

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
  void u16(std::uint16_t v);
  void u24(std::uint32_t v);  ///< Low 24 bits only; high byte must be zero.
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void raw(BytesView data);
  void str(std::string_view s);  ///< u16 length prefix + bytes.

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  [[nodiscard]] BytesView view() const noexcept { return out_; }
  [[nodiscard]] Bytes take() && { return std::move(out_); }

 private:
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
/// All reads after the first failure keep failing; callers may batch reads
/// and check ok() once at the end.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u24();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
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

  BytesView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Convenience: view over a string's bytes (for tests and payload helpers).
[[nodiscard]] Bytes to_bytes(std::string_view s);
[[nodiscard]] std::string to_string(BytesView b);

}  // namespace garnet::util
