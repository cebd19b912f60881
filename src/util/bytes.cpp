#include "util/bytes.hpp"

#include <cassert>
#include <cstring>

namespace garnet::util {

void ByteWriter::raw(BytesView data) { out_.insert(out_.end(), data.begin(), data.end()); }

void ByteWriter::str(std::string_view s) {
  assert(s.size() <= 0xFFFF && "string too long for u16 length prefix");
  u16(static_cast<std::uint16_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  out_.insert(out_.end(), p, p + s.size());
}

std::string_view to_string(DecodeError e) {
  switch (e) {
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadChecksum: return "bad checksum";
    case DecodeError::kBadVersion: return "bad version";
    case DecodeError::kMalformed: return "malformed";
    case DecodeError::kLengthMismatch: return "length mismatch";
  }
  return "unknown";
}

bool ByteReader::take(std::size_t n) {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

Bytes ByteReader::raw(std::size_t n) {
  if (!take(n)) return {};
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

BytesView ByteReader::view(std::size_t n) {
  if (!take(n)) return {};
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::string ByteReader::str() {
  const auto n = u16();
  if (!take(n)) return {};
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

Bytes to_bytes(std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

std::string to_string(BytesView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

}  // namespace garnet::util
