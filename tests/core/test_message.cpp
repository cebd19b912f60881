// Figure-2 wire format verification, including the paper's exact
// capacity claims: 16.7M sensors, 256 internal streams per sensor, 64K
// sequence counts, payloads of 64K bytes (experiment E1's correctness
// side).
#include "core/message.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/shared_bytes.hpp"

namespace garnet::core {
namespace {

DataMessage sample_message() {
  DataMessage msg;
  msg.stream_id = {123456, 7};
  msg.sequence = 4242;
  msg.payload = util::to_bytes("reading: 21.5C");
  return msg;
}

TEST(StreamId, PackedRoundTrip) {
  const StreamId id{0xABCDEF, 0x42};
  EXPECT_EQ(StreamId::from_packed(id.packed()), id);
}

TEST(StreamId, CapacityClaims) {
  // "supports up to 16.7M sensors, 256 internal-streams/sensor".
  EXPECT_EQ(kMaxSensorId, 16'777'215u);
  EXPECT_EQ(static_cast<int>(std::numeric_limits<InternalStreamId>::max()), 255);
  EXPECT_EQ(static_cast<int>(std::numeric_limits<SequenceNo>::max()), 65'535);
  EXPECT_EQ(kMaxPayload, 65'535u);
}

TEST(StreamId, ToStringFormat) {
  EXPECT_EQ((StreamId{17, 3}).to_string(), "17#3");
}

TEST(MsgHeader, FlagOperations) {
  MsgHeader h;
  EXPECT_FALSE(h.has(HeaderFlag::kFused));
  h.set(HeaderFlag::kFused);
  h.set(HeaderFlag::kRelayed);
  EXPECT_TRUE(h.has(HeaderFlag::kFused));
  EXPECT_TRUE(h.has(HeaderFlag::kRelayed));
  h.clear(HeaderFlag::kFused);
  EXPECT_FALSE(h.has(HeaderFlag::kFused));
  EXPECT_TRUE(h.has(HeaderFlag::kRelayed));
}

TEST(MsgHeader, PackedVersionAndFlags) {
  MsgHeader h;
  h.set(HeaderFlag::kEncrypted);
  const MsgHeader back = MsgHeader::from_packed(h.packed());
  EXPECT_EQ(back.version, kFormatVersion);
  EXPECT_TRUE(back.has(HeaderFlag::kEncrypted));
}

TEST(MessageCodec, WireLayoutMatchesFigure2) {
  // Figure 2: 8-bit header | 32-bit StreamID | 16-bit sequence |
  // 16-bit payload size | payload. Header is 9 bytes = 72 bits.
  const DataMessage msg = sample_message();
  const util::Bytes wire = encode(msg);
  ASSERT_EQ(wire.size(), kFixedHeaderBytes + msg.payload.size() + kChecksumBytes);

  util::ByteReader r(wire);
  EXPECT_EQ(r.u8(), msg.header.packed());          // bits 0..7
  EXPECT_EQ(r.u24(), msg.stream_id.sensor);        // bits 8..31
  EXPECT_EQ(r.u8(), msg.stream_id.stream);         // bits 32..39
  EXPECT_EQ(r.u16(), msg.sequence);                // bits 40..55
  EXPECT_EQ(r.u16(), msg.payload.size());          // bits 56..71
}

TEST(MessageCodec, RoundTripBasic) {
  const DataMessage msg = sample_message();
  const util::Bytes wire = encode(msg);
  const auto decoded = decode_view(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().stream_id, msg.stream_id);
  EXPECT_EQ(decoded.value().sequence, msg.sequence);
  EXPECT_TRUE(std::ranges::equal(decoded.value().payload, msg.payload));
  EXPECT_FALSE(decoded.value().ack_request_id.has_value());
}

TEST(MessageCodec, RoundTripWithAckExtension) {
  DataMessage msg = sample_message();
  msg.header.set(HeaderFlag::kAckPresent);
  msg.ack_request_id = 0xDEADBEEF;
  const util::Bytes wire = encode(msg);
  const auto decoded = decode_view(wire);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.value().ack_request_id.has_value());
  EXPECT_EQ(*decoded.value().ack_request_id, 0xDEADBEEFu);
}

TEST(MessageCodec, EmptyPayload) {
  DataMessage msg = sample_message();
  msg.payload.clear();
  const util::Bytes wire = encode(msg);
  const auto decoded = decode_view(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().payload.empty());
}

TEST(MessageCodec, MaxPayload) {
  DataMessage msg = sample_message();
  msg.payload.assign(kMaxPayload, std::byte{0x5A});
  const util::Bytes wire = encode(msg);
  const auto decoded = decode_view(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().payload.size(), kMaxPayload);
}

TEST(MessageCodec, MaxPayloadViewRoundTripAliasesWire) {
  // The zero-copy side of the 64KB claim: decode_view must hand back a
  // payload that points into the wire buffer, with no byte copy counted.
  DataMessage msg = sample_message();
  msg.payload.assign(kMaxPayload, std::byte{0xA5});
  const util::Bytes wire = encode(msg);

  const util::PayloadStats before = util::payload_stats();
  const auto view = decode_view(wire);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(util::payload_stats().copies, before.copies);

  const util::BytesView payload = view.value().payload;
  EXPECT_EQ(payload.size(), kMaxPayload);
  EXPECT_GE(payload.data(), wire.data());
  EXPECT_LE(payload.data() + payload.size(), wire.data() + wire.size());

  // Materialising the view costs exactly the one counted copy.
  const DataMessage owned = view.value().to_owned();
  EXPECT_EQ(util::payload_stats().copies, before.copies + 1);
  EXPECT_EQ(owned.payload, msg.payload);
  EXPECT_EQ(owned.stream_id, msg.stream_id);
}

TEST(MessageCodec, DecodeViewTrustedSkipsChecksumButNotStructure) {
  util::Bytes wire = encode(sample_message());
  wire[wire.size() - 1] ^= std::byte{0xFF};  // corrupt the CRC trailer

  const auto strict = decode_view(wire, ChecksumPolicy::kVerify);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.error(), util::DecodeError::kBadChecksum);

  // Trusted consumers (in-process delivery frames) skip the re-hash...
  const auto trusted = decode_view(wire, ChecksumPolicy::kTrusted);
  ASSERT_TRUE(trusted.ok());
  EXPECT_EQ(trusted.value().stream_id, sample_message().stream_id);

  // ...but structural validation still runs under kTrusted.
  const auto truncated =
      decode_view(util::BytesView(wire).first(kFixedHeaderBytes - 1), ChecksumPolicy::kTrusted);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error(), util::DecodeError::kTruncated);
}

#ifndef NDEBUG
TEST(MessageCodecDeathTest, EncodeAssertsSensorIdWithinFigure2Range) {
  // Figure 2 gives the sensor id 24 bits; encoding a wider id would
  // silently truncate, so it is an asserted precondition instead.
  DataMessage msg = sample_message();
  msg.stream_id.sensor = kMaxSensorId + 1;
  EXPECT_DEATH((void)encode(msg), "kMaxSensorId");
}
#endif

TEST(MessageCodec, BoundarySensorIds) {
  for (const SensorId sensor : {SensorId{0}, SensorId{1}, kMaxSensorId - 1, kMaxSensorId}) {
    DataMessage msg = sample_message();
    msg.stream_id.sensor = sensor;
    const util::Bytes wire = encode(msg);
    const auto decoded = decode_view(wire);
    ASSERT_TRUE(decoded.ok()) << sensor;
    EXPECT_EQ(decoded.value().stream_id.sensor, sensor);
  }
}

TEST(MessageCodec, BoundarySequences) {
  for (const SequenceNo seq : {SequenceNo{0}, SequenceNo{1}, SequenceNo{0x7FFF},
                               SequenceNo{0x8000}, SequenceNo{0xFFFF}}) {
    DataMessage msg = sample_message();
    msg.sequence = seq;
    const util::Bytes wire = encode(msg);
    const auto decoded = decode_view(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().sequence, seq);
  }
}

TEST(MessageCodec, AllInternalStreamIds) {
  for (int stream = 0; stream <= 255; ++stream) {
    DataMessage msg = sample_message();
    msg.stream_id.stream = static_cast<InternalStreamId>(stream);
    const util::Bytes wire = encode(msg);
    const auto decoded = decode_view(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().stream_id.stream, stream);
  }
}

TEST(MessageCodec, ChecksumDetectsCorruption) {
  const util::Bytes wire = encode(sample_message());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    util::Bytes corrupt = wire;
    corrupt[i] ^= std::byte{0x01};
    const auto decoded = decode_view(corrupt);
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << i;
  }
}

TEST(MessageCodec, TruncatedFailsCleanly) {
  const util::Bytes wire = encode(sample_message());
  for (std::size_t keep = 0; keep < kFixedHeaderBytes + kChecksumBytes; ++keep) {
    const auto decoded = decode_view(util::BytesView(wire).first(keep));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error(), util::DecodeError::kTruncated);
  }
}

TEST(MessageCodec, TrailingGarbageRejected) {
  util::Bytes wire = encode(sample_message());
  wire.push_back(std::byte{0x00});
  EXPECT_FALSE(decode_view(wire).ok());
}

TEST(MessageCodec, WrongVersionRejected) {
  util::Bytes wire = encode(sample_message());
  // Force version bits to 2, then re-checksum so only the version is bad.
  wire[0] = static_cast<std::byte>((2u << 6) | (static_cast<unsigned>(wire[0]) & 0x3F));
  const util::BytesView body = util::BytesView(wire).first(wire.size() - kChecksumBytes);
  const std::uint32_t crc = util::crc32c(body);
  wire[wire.size() - 4] = static_cast<std::byte>(crc >> 24);
  wire[wire.size() - 3] = static_cast<std::byte>(crc >> 16);
  wire[wire.size() - 2] = static_cast<std::byte>(crc >> 8);
  wire[wire.size() - 1] = static_cast<std::byte>(crc);
  const auto decoded = decode_view(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error(), util::DecodeError::kBadVersion);
}

TEST(MessageCodec, WireSizeMatchesEncoding) {
  DataMessage msg = sample_message();
  EXPECT_EQ(encode(msg).size(), msg.wire_size());
  msg.header.set(HeaderFlag::kAckPresent);
  msg.ack_request_id = 7;
  EXPECT_EQ(encode(msg).size(), msg.wire_size());
}

// Property sweep: random messages across the whole id/seq/payload space
// round-trip bit-exactly, at several deterministic seeds.
class MessageRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageRoundTripProperty, RandomMessagesRoundTrip) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    DataMessage msg;
    msg.stream_id.sensor = static_cast<SensorId>(rng.below(kMaxSensorId + 1));
    msg.stream_id.stream = static_cast<InternalStreamId>(rng.below(256));
    msg.sequence = static_cast<SequenceNo>(rng.below(65536));
    msg.payload.resize(rng.below(512));
    for (auto& b : msg.payload) b = static_cast<std::byte>(rng.next());
    if (rng.chance(0.3)) {
      msg.header.set(HeaderFlag::kAckPresent);
      msg.ack_request_id = static_cast<std::uint32_t>(rng.next());
    }
    if (rng.chance(0.2)) msg.header.set(HeaderFlag::kFused);
    if (rng.chance(0.2)) msg.header.set(HeaderFlag::kRelayed);
    if (rng.chance(0.2)) msg.header.set(HeaderFlag::kEncrypted);

    const util::Bytes wire = encode(msg);
    const auto decoded = decode_view(wire);
    ASSERT_TRUE(decoded.ok());
    const DataMessageView& out = decoded.value();
    EXPECT_EQ(out.stream_id, msg.stream_id);
    EXPECT_EQ(out.sequence, msg.sequence);
    EXPECT_TRUE(std::ranges::equal(out.payload, msg.payload));
    EXPECT_EQ(out.header.flags, msg.header.flags);
    EXPECT_EQ(out.ack_request_id, msg.ack_request_id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageRoundTripProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace garnet::core
