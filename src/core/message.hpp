// Garnet data-message wire format — the paper's Figure 2, bit for bit.
//
//   bit #      0        8                    40        56         72
//              +--------+--------------------+---------+----------+---------+
//              | MsgHdr |      StreamID      | Sequence | PayloadSz| PAYLOAD |
//              +--------+--------------------+---------+----------+---------+
//                8 bits        32 bits          16 bits    16 bits   opaque
//
// The composite StreamID is 24 bits of sensor identity plus 8 bits of
// internal stream number, giving the paper's stated capacities: 16.7M
// sensors, 256 internal streams per sensor, 64K sequence counts and 64K
// byte payloads. A CRC-32C trailer stands in for the "usual checksums"
// the paper says it omits from the figure.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/shared_bytes.hpp"
#include "util/time.hpp"

namespace garnet::core {

/// 24-bit sensor identity. Valid range [0, kMaxSensorId].
using SensorId = std::uint32_t;
inline constexpr SensorId kMaxSensorId = 0xFF'FFFF;  // 16,777,215 — "16.7M sensors"

/// 8-bit internal stream number within one sensor ("256 internal-streams/sensor").
using InternalStreamId = std::uint8_t;

/// 16-bit wrapping sequence number ("64K sequence counts").
using SequenceNo = std::uint16_t;

/// Maximum payload ("payloads of 64K bytes").
inline constexpr std::size_t kMaxPayload = 0xFFFF;

/// Composite stream identifier: which sensor, which of its streams.
struct StreamId {
  SensorId sensor = 0;
  InternalStreamId stream = 0;

  [[nodiscard]] constexpr std::uint32_t packed() const {
    return (sensor << 8) | stream;
  }
  [[nodiscard]] static constexpr StreamId from_packed(std::uint32_t v) {
    return {v >> 8, static_cast<InternalStreamId>(v & 0xFF)};
  }

  constexpr auto operator<=>(const StreamId&) const = default;

  [[nodiscard]] std::string to_string() const;
};

/// Header flag bits. Bit 7..6 carry the format version; the low bits flag
/// optional capabilities/fields, per the paper ("bit-fields which flag
/// additional capabilities and information such as the presence of other
/// data fields, and fused or relayed data").
enum class HeaderFlag : std::uint8_t {
  kAckPresent = 1u << 0,  ///< Stream-update acknowledgement id follows the header.
  kFused = 1u << 1,       ///< Payload was produced by fusing other streams.
  kRelayed = 1u << 2,     ///< Message travelled via multi-hop relay.
  kEncrypted = 1u << 3,   ///< Payload is end-to-end sealed (opaque either way).
  kDerived = 1u << 4,     ///< Stream was generated by a consumer, not a sensor.
};

inline constexpr std::uint8_t kFormatVersion = 1;  // stored in header bits 7..6

struct MsgHeader {
  std::uint8_t version = kFormatVersion;
  std::uint8_t flags = 0;  ///< OR of HeaderFlag bits (low 6 bits).

  [[nodiscard]] constexpr bool has(HeaderFlag f) const {
    return (flags & static_cast<std::uint8_t>(f)) != 0;
  }
  constexpr void set(HeaderFlag f) { flags |= static_cast<std::uint8_t>(f); }
  constexpr void clear(HeaderFlag f) { flags &= static_cast<std::uint8_t>(~static_cast<std::uint8_t>(f)); }

  [[nodiscard]] constexpr std::uint8_t packed() const {
    return static_cast<std::uint8_t>((version << 6) | (flags & 0x3F));
  }
  [[nodiscard]] static constexpr MsgHeader from_packed(std::uint8_t v) {
    return {static_cast<std::uint8_t>(v >> 6), static_cast<std::uint8_t>(v & 0x3F)};
  }
};

/// One message of a Garnet data stream.
struct DataMessage {
  MsgHeader header;
  StreamId stream_id;
  SequenceNo sequence = 0;
  util::Bytes payload;

  /// Present iff header.has(kAckPresent): the stream-update request id
  /// this message acknowledges (paper §4.3: "a stream update request
  /// acknowledgement field is expected to appear in data messages
  /// generated by receive-capable sensors").
  std::optional<std::uint32_t> ack_request_id;

  [[nodiscard]] std::size_t wire_size() const;
};

/// A decoded message whose payload is a view aliasing the wire buffer it
/// was parsed from — the zero-copy read path. The view (and anything
/// derived from it) is valid only while that buffer lives; retain the
/// buffer (e.g. the delivery's SharedBytes) or call to_owned() to keep
/// the data longer. Field names mirror DataMessage so field-reading code
/// is source-compatible with either.
struct DataMessageView {
  MsgHeader header;
  StreamId stream_id;
  SequenceNo sequence = 0;
  util::BytesView payload;  ///< Aliases the wire buffer.
  std::optional<std::uint32_t> ack_request_id;

  /// Materialises an owned message; the payload byte-copy is counted in
  /// the garnet.bus.payload_copies accounting.
  [[nodiscard]] DataMessage to_owned() const;

  [[nodiscard]] std::size_t wire_size() const;
};

/// Borrowing view of an owned message (no bytes copied).
[[nodiscard]] DataMessageView as_view(const DataMessage& msg);

/// Fixed header bytes on the wire (Figure 2's 72 bits).
inline constexpr std::size_t kFixedHeaderBytes = 9;
/// CRC-32C trailer appended after the payload.
inline constexpr std::size_t kChecksumBytes = 4;
/// Optional acknowledgement extension length.
inline constexpr std::size_t kAckExtensionBytes = 4;

/// Serialises a message. Precondition: stream_id.sensor <= kMaxSensorId,
/// payload.size() <= kMaxPayload, and ack_request_id.has_value() matches
/// the kAckPresent flag.
[[nodiscard]] util::Bytes encode(const DataMessage& msg);

/// Appends the Figure-2 encoding of `msg` to `w` (header through CRC).
/// Composite codecs use this to build framed messages in one exact
/// allocation instead of encoding to a scratch vector and copying.
void encode_into(util::ByteWriter& w, const DataMessageView& msg);

/// Whether a decode re-verifies the CRC-32C trailer. Radio-path decodes
/// must verify (frames cross a corrupting medium); consumers of frames
/// encoded in-process and carried by the fixed bus — whose fault model
/// drops, duplicates, delays and reorders but never flips bits — may
/// trust the checksum computed at encode time instead of re-hashing the
/// shared buffer once per subscriber. Structural checks (version,
/// lengths) always run.
enum class ChecksumPolicy : std::uint8_t { kVerify, kTrusted };

/// Parses one message occupying the whole view (checksum-verified unless
/// `policy` is kTrusted). Zero-copy: the result's payload aliases `wire`;
/// call to_owned() on it to keep the message past the buffer's lifetime.
[[nodiscard]] util::Result<DataMessageView, util::DecodeError> decode_view(
    util::BytesView wire, ChecksumPolicy policy = ChecksumPolicy::kVerify);

}  // namespace garnet::core

template <>
struct std::hash<garnet::core::StreamId> {
  std::size_t operator()(const garnet::core::StreamId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.packed());
  }
};
