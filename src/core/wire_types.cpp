#include "core/wire_types.hpp"

namespace garnet::core {

util::SharedBytes encode_delivery(const DataMessageView& message, util::SimTime first_heard) {
  util::ByteWriter w(8 + message.wire_size());
  w.i64(first_heard.ns);
  encode_into(w, message);
  return util::take_shared(std::move(w));
}

util::Result<DeliveryView, util::DecodeError> decode_delivery_view(util::SharedBytes wire,
                                                                   ChecksumPolicy policy) {
  util::ByteReader r(wire);
  DeliveryView delivery;
  delivery.first_heard.ns = r.i64();
  if (!r.ok()) return util::Err{util::DecodeError::kTruncated};
  auto message = decode_view(wire.span().subspan(r.consumed()), policy);
  if (!message.ok()) return util::Err{message.error()};
  delivery.message = message.value();
  delivery.wire = std::move(wire);
  return delivery;
}

util::Bytes encode(const StateChange& change) {
  util::ByteWriter w(12);
  w.u64(change.consumer_token);
  w.u32(change.state);
  return std::move(w).take();
}

util::Result<StateChange, util::DecodeError> decode_state_change(util::BytesView wire) {
  util::ByteReader r(wire);
  StateChange change;
  change.consumer_token = r.u64();
  change.state = r.u32();
  if (!r.ok()) return util::Err{util::DecodeError::kTruncated};
  return change;
}

util::Bytes encode(const LocationHint& hint) {
  util::ByteWriter w(27);
  w.u24(hint.sensor);
  w.f64(hint.x);
  w.f64(hint.y);
  w.f64(hint.radius_m);
  return std::move(w).take();
}

util::Result<LocationHint, util::DecodeError> decode_location_hint(util::BytesView wire) {
  util::ByteReader r(wire);
  LocationHint hint;
  hint.sensor = r.u24();
  hint.x = r.f64();
  hint.y = r.f64();
  hint.radius_m = r.f64();
  if (!r.ok()) return util::Err{util::DecodeError::kTruncated};
  return hint;
}

}  // namespace garnet::core
