#include "core/message.hpp"

#include <cassert>

#include "util/crc32c.hpp"

namespace garnet::core {
namespace {

std::size_t wire_size_of(bool has_ack, std::size_t payload_bytes) {
  return kFixedHeaderBytes + (has_ack ? kAckExtensionBytes : 0) + payload_bytes + kChecksumBytes;
}

}  // namespace

std::string StreamId::to_string() const {
  return std::to_string(sensor) + '#' + std::to_string(stream);
}

std::size_t DataMessage::wire_size() const {
  return wire_size_of(ack_request_id.has_value(), payload.size());
}

std::size_t DataMessageView::wire_size() const {
  return wire_size_of(ack_request_id.has_value(), payload.size());
}

DataMessage DataMessageView::to_owned() const {
  DataMessage msg;
  msg.header = header;
  msg.stream_id = stream_id;
  msg.sequence = sequence;
  msg.payload = util::counted_copy(payload);
  msg.ack_request_id = ack_request_id;
  return msg;
}

DataMessageView as_view(const DataMessage& msg) {
  DataMessageView view;
  view.header = msg.header;
  view.stream_id = msg.stream_id;
  view.sequence = msg.sequence;
  view.payload = msg.payload;
  view.ack_request_id = msg.ack_request_id;
  return view;
}

void encode_into(util::ByteWriter& w, const DataMessageView& msg) {
  assert(msg.stream_id.sensor <= kMaxSensorId);
  assert(msg.payload.size() <= kMaxPayload);
  assert(msg.ack_request_id.has_value() == msg.header.has(HeaderFlag::kAckPresent));

  const std::size_t start = w.size();
  w.u8(msg.header.packed());
  w.u24(msg.stream_id.sensor);
  w.u8(msg.stream_id.stream);
  w.u16(msg.sequence);
  w.u16(static_cast<std::uint16_t>(msg.payload.size()));
  if (msg.ack_request_id) w.u32(*msg.ack_request_id);
  w.raw(msg.payload);
  w.u32(util::crc32c(w.view().subspan(start)));
}

util::Bytes encode(const DataMessage& msg) {
  util::ByteWriter w(msg.wire_size());
  encode_into(w, as_view(msg));
  return std::move(w).take();
}

util::Result<DataMessageView, util::DecodeError> decode_view(util::BytesView wire,
                                                             ChecksumPolicy policy) {
  if (wire.size() < kFixedHeaderBytes + kChecksumBytes) {
    return util::Err{util::DecodeError::kTruncated};
  }

  const util::BytesView body = wire.first(wire.size() - kChecksumBytes);
  if (policy == ChecksumPolicy::kVerify) {
    util::ByteReader trailer(wire.subspan(body.size()));
    const std::uint32_t claimed = trailer.u32();
    if (util::crc32c(body) != claimed) return util::Err{util::DecodeError::kBadChecksum};
  }

  util::ByteReader r(body);
  DataMessageView msg;
  msg.header = MsgHeader::from_packed(r.u8());
  if (msg.header.version != kFormatVersion) return util::Err{util::DecodeError::kBadVersion};

  msg.stream_id.sensor = r.u24();
  msg.stream_id.stream = r.u8();
  msg.sequence = r.u16();
  const std::uint16_t payload_size = r.u16();
  if (msg.header.has(HeaderFlag::kAckPresent)) msg.ack_request_id = r.u32();
  msg.payload = r.view(payload_size);

  if (!r.ok()) return util::Err{util::DecodeError::kTruncated};
  if (r.remaining() != 0) return util::Err{util::DecodeError::kLengthMismatch};
  return msg;
}

}  // namespace garnet::core
