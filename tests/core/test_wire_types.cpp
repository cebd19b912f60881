// Fixed-network payload codecs (docs/PROTOCOL.md §3).
#include "core/wire_types.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace garnet::core {
namespace {

using util::Duration;
using util::SimTime;

// Delivery frames read back from a socket are decoded with kVerify, so
// these cases pin the verifying decode.
util::Result<DeliveryView, util::DecodeError> decode_verified(util::BytesView wire) {
  return decode_delivery_view(util::SharedBytes::copy_of(wire), ChecksumPolicy::kVerify);
}

TEST(DeliveryCodec, RoundTrip) {
  DataMessage message;
  message.stream_id = {42, 3};
  message.sequence = 999;
  message.payload = util::to_bytes("payload");
  const SimTime heard = SimTime{} + Duration::millis(1234);

  const util::SharedBytes wire = encode_delivery(as_view(message), heard);
  const auto decoded = decode_delivery_view(wire, ChecksumPolicy::kVerify);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().first_heard, heard);
  EXPECT_EQ(decoded.value().message.stream_id, message.stream_id);
  EXPECT_EQ(decoded.value().message.sequence, message.sequence);
  EXPECT_TRUE(std::ranges::equal(decoded.value().message.payload, message.payload));
  // The view aliases (and retains) the frame it was parsed from.
  EXPECT_EQ(decoded.value().wire.data(), wire.data());
  EXPECT_GE(decoded.value().message.payload.data(), wire.data());
  EXPECT_LE(decoded.value().message.payload.data() + decoded.value().message.payload.size(),
            wire.data() + wire.size());
}

TEST(DeliveryCodec, PreservesAckExtension) {
  DataMessage message;
  message.stream_id = {1, 0};
  message.header.set(HeaderFlag::kAckPresent);
  message.ack_request_id = 777;
  const auto decoded = decode_verified(encode_delivery(as_view(message), SimTime{}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().message.ack_request_id, 777u);
}

TEST(DeliveryCodec, TruncationFails) {
  DataMessage message;
  message.stream_id = {1, 0};
  const util::SharedBytes wire = encode_delivery(as_view(message), SimTime{});
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    EXPECT_FALSE(decode_verified(wire.span().first(keep)).ok()) << keep;
  }
}

TEST(DeliveryCodec, InnerCorruptionCaughtByMessageChecksum) {
  DataMessage message;
  message.stream_id = {1, 0};
  message.payload = util::to_bytes("abc");
  const util::SharedBytes wire = encode_delivery(as_view(message), SimTime{});
  for (std::size_t i = 8; i < wire.size(); ++i) {
    util::Bytes flipped(wire.span().begin(), wire.span().end());
    flipped[i] ^= std::byte{0x04};  // inside the embedded message
    EXPECT_FALSE(decode_verified(flipped).ok()) << "flip at byte " << i;
  }
}

TEST(StateChangeCodec, RoundTrip) {
  const StateChange change{0xDEADBEEFCAFEF00Dull, 42};
  const auto decoded = decode_state_change(encode(change));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().consumer_token, change.consumer_token);
  EXPECT_EQ(decoded.value().state, change.state);
}

TEST(StateChangeCodec, TruncationFails) {
  const util::Bytes wire = encode(StateChange{1, 2});
  EXPECT_FALSE(decode_state_change(util::BytesView(wire).first(wire.size() - 1)).ok());
  EXPECT_FALSE(decode_state_change({}).ok());
}

TEST(LocationHintCodec, RoundTrip) {
  const LocationHint hint{123456, -12.5, 9000.25, 33.0};
  const auto decoded = decode_location_hint(encode(hint));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sensor, hint.sensor);
  EXPECT_DOUBLE_EQ(decoded.value().x, hint.x);
  EXPECT_DOUBLE_EQ(decoded.value().y, hint.y);
  EXPECT_DOUBLE_EQ(decoded.value().radius_m, hint.radius_m);
}

TEST(LocationHintCodec, MaxSensorId) {
  const LocationHint hint{kMaxSensorId, 0, 0, 1};
  const auto decoded = decode_location_hint(encode(hint));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sensor, kMaxSensorId);
}

TEST(MessageTypes, DistinctTags) {
  EXPECT_NE(kDataDelivery, kStateChange);
  EXPECT_NE(kStateChange, kLocationHint);
  EXPECT_NE(kLocationHint, kDerivedPublish);
  EXPECT_GE(static_cast<std::uint16_t>(kDataDelivery),
            static_cast<std::uint16_t>(net::MessageType::kAppBase));
}

}  // namespace
}  // namespace garnet::core
