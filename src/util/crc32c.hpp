// CRC-32C (Castagnoli) checksum.
//
// The Actuation Service checksums every stream-update request before it is
// replicated to the transmitters (paper §4.2), and the data-message codec
// appends a CRC trailer standing in for "the usual checksums" the paper
// elides from Figure 2.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace garnet::util {

/// With SSE4.2, buffers of at least three times this many bytes are
/// checksummed as three interleaved lanes of this many bytes each; the
/// result is the same CRC-32C.
inline constexpr std::size_t kCrc32cLaneBytes = 256;

/// One-shot CRC-32C over a byte view.
[[nodiscard]] std::uint32_t crc32c(BytesView data);

/// Incremental CRC-32C.
class Crc32c {
 public:
  void update(BytesView data);
  [[nodiscard]] std::uint32_t value() const noexcept;

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace garnet::util
