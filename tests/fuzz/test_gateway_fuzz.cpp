// Gateway socket-boundary fuzzing: the ingest listener, the line
// protocols and the connection table face arbitrary bytes from
// anonymous peers. Seeded pseudo-fuzzing throws garbage streams,
// truncated and bit-flipped frames, mid-frame disconnects and hostile
// request lines at a gateway over the loopback transport. Invariants:
// the gateway never crashes, never leaks a connection slot, never
// forwards a corrupt frame into the runtime, and never emits a corrupt
// delivery to a subscriber.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/message.hpp"
#include "core/wire_types.hpp"
#include "garnet/runtime.hpp"
#include "gw/framing.hpp"
#include "gw/gateway.hpp"
#include "gw/transport.hpp"
#include "util/rng.hpp"

namespace garnet::gw {
namespace {

using util::Duration;

util::Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  util::Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

core::DataMessage random_message(util::Rng& rng) {
  core::DataMessage msg;
  msg.stream_id = {static_cast<core::SensorId>(1 + rng.below(100)),
                   static_cast<core::InternalStreamId>(rng.below(4))};
  msg.sequence = static_cast<core::SequenceNo>(rng.below(10000));
  msg.payload = random_bytes(rng, 64);
  return msg;
}

util::Bytes framed(const core::DataMessage& msg) {
  const util::Bytes body = core::encode(msg);
  util::Bytes out(kLengthPrefixBytes);
  put_length_prefix(static_cast<std::uint32_t>(body.size()), out.data());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void send_sliced(LoopbackTransport& transport, ConnId conn, util::BytesView wire,
                 util::Rng& rng) {
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t chunk = std::min(wire.size() - pos, 1 + rng.below(48));
    transport.peer_send(conn, util::BytesView(wire.data() + pos, chunk));
    pos += chunk;
  }
}

struct Harness {
  Runtime runtime;
  LoopbackTransport transport;
  std::unique_ptr<Gateway> gateway;

  Harness() {
    gateway = std::make_unique<Gateway>(runtime, transport, GatewayConfig{});
    gateway->step(Duration::millis(20));
  }

  void turn(int rounds = 1) {
    for (int i = 0; i < rounds; ++i) gateway->step(Duration::millis(5));
  }
};

class GatewayFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GatewayFuzz, GarbageStreamsNeverInjectAndNeverCrash) {
  util::Rng rng(GetParam());
  Harness h;
  for (int round = 0; round < 60; ++round) {
    const ConnId conn = h.transport.connect(Listener::kIngest);
    h.turn();
    for (int burst = 0; burst < 4; ++burst) {
      h.transport.peer_send(conn, random_bytes(rng, 512));
      h.gateway->pump();
    }
    h.turn();
  }
  // Random length prefixes overwhelmingly declare oversized bodies, and
  // any body that does fit still has to survive the Figure-2 CRC; no
  // garbage stream may reach the runtime as a valid message.
  EXPECT_EQ(h.runtime.external_in(), 0u);
  const GatewayStats& stats = h.gateway->stats();
  EXPECT_EQ(stats.ingest_frames, 0u);
  // Oversized declarations poison framing, so those producers are cut;
  // a CRC-rejected body keeps its (still aligned) stream open.
  EXPECT_EQ(stats.closed, stats.ingest_oversized);
  EXPECT_GT(stats.ingest_malformed + stats.ingest_oversized, 0u);
  // Every slot taken by a garbage producer is recoverable.
  EXPECT_EQ(h.gateway->connections(), h.transport.open_connections());
}

TEST_P(GatewayFuzz, ValidFramesSurviveAnySlicingAndArriveUncorrupted) {
  util::Rng rng(GetParam());
  Harness h;
  const ConnId producer = h.transport.connect(Listener::kIngest);
  const ConnId sub = h.transport.connect(Listener::kStream);
  h.turn();
  h.transport.peer_send(sub, [] {
    const std::string line = "SUB *\n";
    util::Bytes bytes(line.size());
    std::transform(line.begin(), line.end(), bytes.begin(),
                   [](char c) { return static_cast<std::byte>(c); });
    return bytes;
  }());
  h.turn();
  (void)h.transport.peer_take(sub);  // the OK ack

  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    send_sliced(h.transport, producer, framed(random_message(rng)), rng);
    h.turn(2);
  }
  h.turn(4);

  EXPECT_EQ(h.gateway->stats().ingest_frames, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(h.gateway->stats().ingest_malformed, 0u);

  // Whatever reached the subscriber must parse as intact deliveries —
  // a corrupt frame on the egress wire is the one unforgivable outcome.
  FrameAssembler assembler;
  ASSERT_TRUE(assembler.push(h.transport.peer_take(sub)));
  std::size_t delivered = 0;
  while (const auto frame = assembler.frame()) {
    ASSERT_TRUE(core::decode_delivery_view(util::SharedBytes::copy_of(*frame),
                                           core::ChecksumPolicy::kVerify)
                    .ok());
    assembler.pop();
    ++delivered;
  }
  EXPECT_EQ(assembler.buffered(), 0u);
  EXPECT_EQ(delivered, static_cast<std::size_t>(kMessages));
}

TEST_P(GatewayFuzz, BitFlippedFramesNeverReachTheRuntime) {
  util::Rng rng(GetParam());
  Harness h;
  std::uint64_t expected_clean = 0;
  for (int round = 0; round < 120; ++round) {
    const ConnId producer = h.transport.connect(Listener::kIngest);
    h.turn();
    util::Bytes wire = framed(random_message(rng));
    const bool flip = rng.below(2) == 0;
    if (flip) {
      // Flip inside the body, sparing the length prefix: framing stays
      // aligned and the Figure-2 checksum must catch it instead.
      const std::size_t at = kLengthPrefixBytes + rng.below(wire.size() - kLengthPrefixBytes);
      wire[at] ^= static_cast<std::byte>(1 + rng.below(255));
    } else {
      ++expected_clean;
    }
    send_sliced(h.transport, producer, wire, rng);
    h.turn(2);
    h.transport.peer_close(producer);
    h.turn();
  }
  EXPECT_EQ(h.runtime.external_in(), expected_clean);
  EXPECT_EQ(h.gateway->stats().ingest_frames, expected_clean);
  EXPECT_EQ(h.gateway->connections(Listener::kIngest), 0u) << "hangups must reap slots";
}

TEST_P(GatewayFuzz, MidFrameDisconnectsAlwaysRecoverTheSlot) {
  util::Rng rng(GetParam());
  Harness h;
  for (int round = 0; round < 150; ++round) {
    const ConnId producer = h.transport.connect(Listener::kIngest);
    h.turn();
    const util::Bytes wire = framed(random_message(rng));
    const std::size_t cut = rng.below(wire.size());  // always truncated
    h.transport.peer_send(producer, util::BytesView(wire.data(), cut));
    h.gateway->pump();
    h.transport.peer_close(producer);
    h.turn();
  }
  EXPECT_EQ(h.gateway->connections(Listener::kIngest), 0u);
  EXPECT_EQ(h.runtime.external_in(), 0u);  // no truncated frame ever injected
  EXPECT_EQ(h.gateway->stats().closed, 150u);
}

TEST_P(GatewayFuzz, HostileRequestLinesNeverCrashTheLineProtocols) {
  util::Rng rng(GetParam());
  Harness h;
  const char* verbs[] = {"GET ", "SUB ", "LIST", "METRICS", "", "PUT ", "get "};
  for (int round = 0; round < 200; ++round) {
    const Listener listener = rng.below(2) == 0 ? Listener::kStream : Listener::kCache;
    const ConnId conn = h.transport.connect(listener);
    h.turn();
    std::string line = verbs[rng.below(std::size(verbs))];
    const std::size_t junk = rng.below(64);
    for (std::size_t i = 0; i < junk; ++i) {
      // Printable-ish junk plus occasional control bytes; '\n' excluded
      // so each round is exactly one request line.
      char c = static_cast<char>(rng.below(256));
      if (c == '\n') c = 'x';
      line.push_back(c);
    }
    line.push_back('\n');
    util::Bytes bytes(line.size());
    std::transform(line.begin(), line.end(), bytes.begin(),
                   [](char c) { return static_cast<std::byte>(c); });
    send_sliced(h.transport, conn, bytes, rng);
    h.turn();
    h.transport.peer_close(conn);
    h.turn();
  }
  EXPECT_EQ(h.gateway->connections(), 0u);
  EXPECT_EQ(h.gateway->subscribers(), 0u);
  // The gateway survived 200 hostile sessions; a final well-formed
  // round-trip proves the shared state is still coherent.
  const ConnId probe = h.transport.connect(Listener::kCache);
  h.turn();
  const std::string get = "GET 1/0\n";
  util::Bytes bytes(get.size());
  std::transform(get.begin(), get.end(), bytes.begin(),
                 [](char c) { return static_cast<std::byte>(c); });
  h.transport.peer_send(probe, bytes);
  h.turn();
  const util::Bytes reply = h.transport.peer_take(probe);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(reply.data()), reply.size()), "MISS 1/0\n");
}

INSTANTIATE_TEST_SUITE_P(Seeds, GatewayFuzz, ::testing::Values(0x6A7Eu, 0x9E77u, 0xC0DEu));

}  // namespace
}  // namespace garnet::gw
