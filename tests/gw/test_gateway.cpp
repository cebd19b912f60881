// Gateway daemon core, driven deterministically through the loopback
// transport: ingest framing → runtime injection → fan-out → shedding →
// URI cache → metrics, with the PR-3 zero-copy invariant asserted
// across the whole path via the payload accounting counters.
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
#include "obs/export.hpp"
#include "util/shared_bytes.hpp"

namespace garnet::gw {
namespace {

using util::Duration;

util::Bytes bytes_of(std::string_view text) {
  util::Bytes out(text.size());
  std::transform(text.begin(), text.end(), out.begin(),
                 [](char c) { return static_cast<std::byte>(c); });
  return out;
}

std::string text_of(util::BytesView bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

core::DataMessage message(core::StreamId id, core::SequenceNo seq, double value) {
  core::DataMessage msg;
  msg.stream_id = id;
  msg.sequence = seq;
  util::ByteWriter payload(8);
  payload.f64(value);
  msg.payload = std::move(payload).take();
  return msg;
}

util::Bytes framed(const core::DataMessage& msg) {
  const util::Bytes body = core::encode(msg);
  util::Bytes out(kLengthPrefixBytes);
  put_length_prefix(static_cast<std::uint32_t>(body.size()), out.data());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// Splits a peer byte stream into length-prefixed delivery frames. The
/// bytes came off a socket, so each frame's CRC is re-verified.
std::vector<core::DeliveryView> parse_deliveries(util::BytesView wire) {
  std::vector<core::DeliveryView> out;
  FrameAssembler assembler;
  EXPECT_TRUE(assembler.push(wire));
  while (const auto frame = assembler.frame()) {
    const auto decoded = core::decode_delivery_view(util::SharedBytes::copy_of(*frame),
                                                    core::ChecksumPolicy::kVerify);
    EXPECT_TRUE(decoded.ok()) << "corrupt delivery frame";
    if (decoded.ok()) out.push_back(decoded.value());
    assembler.pop();
  }
  EXPECT_EQ(assembler.buffered(), 0u) << "trailing partial frame";
  return out;
}

struct Harness {
  Runtime runtime;
  LoopbackTransport transport;
  std::unique_ptr<Gateway> gateway;

  explicit Harness(GatewayConfig config = {}, Runtime::Config runtime_config = {})
      : runtime(runtime_config) {
    gateway = std::make_unique<Gateway>(runtime, transport, config);
    gateway->step(Duration::millis(20));  // settle the subscribe RPC
  }

  /// One full turn: transport events + virtual time for deliveries.
  void turn(int rounds = 1) {
    for (int i = 0; i < rounds; ++i) gateway->step(Duration::millis(10));
  }

  ConnId ingest() { return open(Listener::kIngest); }

  ConnId subscriber(const std::string& pattern) {
    const ConnId id = open(Listener::kStream);
    transport.peer_send(id, bytes_of("SUB " + pattern + "\n"));
    turn();
    const std::string ack = text_of(transport.peer_take(id));
    EXPECT_EQ(ack.rfind("OK SUB", 0), 0u) << ack;
    return id;
  }

  ConnId open(Listener listener) {
    const ConnId id = transport.connect(listener);
    turn();
    return id;
  }

  void push_message(ConnId conn, const core::DataMessage& msg) {
    transport.peer_send(conn, framed(msg));
    turn(2);
  }
};

TEST(Gateway, IngestFlowsToSubscribersAndCache) {
  Harness h;
  const ConnId producer = h.ingest();
  const ConnId matching = h.subscriber("42/*");
  const ConnId other = h.subscriber("7/0");

  h.push_message(producer, message({42, 1}, 9, 23.5));

  const auto deliveries = parse_deliveries(h.transport.peer_take(matching));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].message.stream_id, (core::StreamId{42, 1}));
  EXPECT_EQ(deliveries[0].message.sequence, 9);
  util::ByteReader r(deliveries[0].message.payload);
  EXPECT_DOUBLE_EQ(r.f64(), 23.5);

  EXPECT_EQ(h.transport.peer_pending(other), 0u);  // pattern did not match

  const ConnId reader = h.open(Listener::kCache);
  h.transport.peer_send(reader, bytes_of("GET 42/1\n"));
  h.turn();
  const std::string reply = text_of(h.transport.peer_take(reader));
  EXPECT_EQ(reply.rfind("VALUE 42/1 9 ", 0), 0u) << reply;
  EXPECT_EQ(reply.substr(reply.size() - 12),
            " 8\n" + text_of(deliveries[0].message.payload) + "\n");

  EXPECT_EQ(h.gateway->stats().ingest_frames, 1u);
  EXPECT_EQ(h.runtime.external_in(), 1u);
}

TEST(Gateway, ByteAtATimeIngestStillDelivers) {
  Harness h;
  const ConnId producer = h.ingest();
  const ConnId sub = h.subscriber("*");
  const util::Bytes wire = framed(message({5, 0}, 1, 1.0));
  for (std::size_t i = 0; i < wire.size(); ++i) {
    h.transport.peer_send(producer, util::BytesView(&wire[i], 1));
    h.gateway->pump();
  }
  h.turn(2);
  EXPECT_EQ(parse_deliveries(h.transport.peer_take(sub)).size(), 1u);
}

TEST(Gateway, MalformedFrameSkippedStreamSurvives) {
  Harness h;
  const ConnId producer = h.ingest();
  const ConnId sub = h.subscriber("*");

  // A well-framed but CRC-broken body, then a valid message.
  util::Bytes bad_body = core::encode(message({3, 0}, 1, 1.0));
  bad_body[bad_body.size() - 1] ^= std::byte{0xFF};
  util::Bytes wire(kLengthPrefixBytes);
  put_length_prefix(static_cast<std::uint32_t>(bad_body.size()), wire.data());
  wire.insert(wire.end(), bad_body.begin(), bad_body.end());
  h.transport.peer_send(producer, wire);
  h.push_message(producer, message({3, 0}, 2, 2.0));

  EXPECT_EQ(h.gateway->stats().ingest_malformed, 1u);
  EXPECT_EQ(h.gateway->stats().ingest_frames, 1u);
  EXPECT_FALSE(h.transport.gateway_closed(producer));  // framing stayed aligned
  const auto deliveries = parse_deliveries(h.transport.peer_take(sub));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].message.sequence, 2);
}

TEST(Gateway, OversizedDeclarationCutsProducer) {
  Harness h;
  const ConnId producer = h.ingest();
  std::byte prefix[kLengthPrefixBytes];
  put_length_prefix(static_cast<std::uint32_t>(kMaxFrameBody) + 1, prefix);
  h.transport.peer_send(producer, util::BytesView(prefix, sizeof prefix));
  h.turn();
  EXPECT_EQ(h.gateway->stats().ingest_oversized, 1u);
  EXPECT_TRUE(h.transport.gateway_closed(producer));
  EXPECT_EQ(h.gateway->connections(Listener::kIngest), 0u);
}

TEST(Gateway, SlowConsumerShedsDataNeverControl) {
  GatewayConfig config;
  config.outbox_frames = 4;
  Harness h(config);
  const ConnId producer = h.ingest();
  const ConnId sub = h.open(Listener::kStream);

  // Window 0 from the start: even the SUB ack stays queued.
  h.transport.set_write_window(sub, 0);
  h.transport.peer_send(sub, bytes_of("SUB 9/*\n"));
  h.turn();
  EXPECT_EQ(h.transport.peer_pending(sub), 0u);  // nothing got through

  for (int i = 0; i < 10; ++i) h.push_message(producer, message({9, 0}, i, i));

  // A control reply arrives while 4 data frames queue: it must jump them.
  h.transport.peer_send(sub, bytes_of("UNSUB\n"));
  h.turn();

  const GatewayStats& stats = h.gateway->stats();
  EXPECT_EQ(stats.shed.data_drop_newest, 6u);  // 10 in, bound 4
  EXPECT_EQ(stats.shed.control_total(), 0u);

  h.transport.open_write_window(sub, 1 << 20);
  h.turn(2);
  const std::string out = text_of(h.transport.peer_take(sub));
  EXPECT_EQ(out.rfind("OK SUB 9/*\nOK UNSUB\n", 0), 0u) << out.substr(0, 40);
  const auto deliveries =
      parse_deliveries(bytes_of(out.substr(std::string("OK SUB 9/*\nOK UNSUB\n").size())));
  ASSERT_EQ(deliveries.size(), 4u);  // the surviving bounded outbox
  EXPECT_EQ(deliveries[0].message.sequence, 0);
}

TEST(GatewayAdmission, OutboxBoundDerivesFromTheDataPoolSize) {
  // With admission enabled in the embedding runtime, the per-subscriber
  // outbox bound follows the probed pool: clamp(pool x per_ticket, 1,
  // outbox_frames). A static pool of 2 with one frame per ticket bounds
  // the queue at 2, far below the configured 64.
  Runtime::Config runtime_config;
  runtime_config.admission.enabled = true;
  runtime_config.admission.probing = false;
  runtime_config.admission.probe.initial_concurrency = 2;
  GatewayConfig config;
  config.outbox_frames = 64;
  config.outbox_frames_per_ticket = 1;
  Harness h(config, runtime_config);
  const ConnId producer = h.ingest();
  const ConnId sub = h.subscriber("9/*");
  h.transport.set_write_window(sub, 0);

  for (int i = 0; i < 8; ++i) h.push_message(producer, message({9, 0}, i, i));
  EXPECT_EQ(h.gateway->stats().shed.data_drop_newest, 6u);  // 8 in, bound 2

  h.transport.open_write_window(sub, 1 << 20);
  h.turn(2);
  const auto deliveries = parse_deliveries(h.transport.peer_take(sub));
  ASSERT_EQ(deliveries.size(), 2u);  // the admission-derived outbox
  EXPECT_EQ(deliveries[0].message.sequence, 0);
}

TEST(GatewayAdmission, ZeroPerTicketKeepsTheStaticBound) {
  // outbox_frames_per_ticket = 0 opts out: the bound stays at the
  // configured outbox_frames even though the runtime gates admission.
  Runtime::Config runtime_config;
  runtime_config.admission.enabled = true;
  runtime_config.admission.probing = false;
  runtime_config.admission.probe.initial_concurrency = 2;
  GatewayConfig config;
  config.outbox_frames = 4;
  config.outbox_frames_per_ticket = 0;
  Harness h(config, runtime_config);
  const ConnId producer = h.ingest();
  const ConnId sub = h.subscriber("9/*");
  h.transport.set_write_window(sub, 0);

  for (int i = 0; i < 8; ++i) h.push_message(producer, message({9, 0}, i, i));
  EXPECT_EQ(h.gateway->stats().shed.data_drop_newest, 4u);  // static bound 4

  h.transport.open_write_window(sub, 1 << 20);
  h.turn(2);
  EXPECT_EQ(parse_deliveries(h.transport.peer_take(sub)).size(), 4u);
}

TEST(Gateway, DeadSubscriberDoesNotBlockOthers) {
  Harness h;
  const ConnId producer = h.ingest();
  const ConnId doomed = h.subscriber("*");
  const ConnId healthy = h.subscriber("*");

  h.transport.peer_close(doomed);
  h.push_message(producer, message({2, 0}, 1, 1.0));

  EXPECT_TRUE(h.transport.gateway_closed(doomed));
  EXPECT_EQ(parse_deliveries(h.transport.peer_take(healthy)).size(), 1u);
  EXPECT_EQ(h.gateway->subscribers(), 1u);
}

TEST(Gateway, ShortWritesReassembleAtThePeer) {
  Harness h;
  const ConnId producer = h.ingest();
  const ConnId sub = h.subscriber("*");
  h.transport.set_write_limit(sub, 3);  // every writev comes up short

  for (int i = 0; i < 4; ++i) h.push_message(producer, message({6, 2}, i, i * 1.5));
  h.turn(40);  // each turn moves at most a few bytes

  const auto deliveries = parse_deliveries(h.transport.peer_take(sub));
  ASSERT_EQ(deliveries.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(deliveries[i].message.sequence, i);
  EXPECT_GT(h.gateway->stats().partial_writes, 0u);
}

TEST(Gateway, ZeroCopyFromDecodeToWritev) {
  Harness h;
  const ConnId producer = h.ingest();
  const ConnId a = h.subscriber("*");
  const ConnId b = h.subscriber("*");
  const ConnId c = h.subscriber("*");
  h.turn(2);

  const util::PayloadStats before = util::payload_stats();
  h.push_message(producer, message({8, 3}, 1, 42.0));
  const util::PayloadStats after = util::payload_stats();

  // One shared delivery frame allocated by the dispatcher; the socket
  // ingest decode, the cache update, and all three subscriber writes
  // alias it — zero payload copies across the kernel boundary.
  EXPECT_EQ(after.allocations - before.allocations, 1u);
  EXPECT_EQ(after.copies - before.copies, 0u);

  for (const ConnId conn : {a, b, c}) {
    EXPECT_EQ(parse_deliveries(h.transport.peer_take(conn)).size(), 1u);
  }
  const auto* entry = h.gateway->cache().peek({8, 3});
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->payload.size(), 8u);
}

TEST(Gateway, CacheProtocolMissListQuit) {
  Harness h;
  const ConnId producer = h.ingest();
  const ConnId reader = h.open(Listener::kCache);

  h.transport.peer_send(reader, bytes_of("GET 1/0\n"));
  h.turn();
  EXPECT_EQ(text_of(h.transport.peer_take(reader)), "MISS 1/0\n");

  h.push_message(producer, message({1, 0}, 3, 1.0));
  h.push_message(producer, message({2, 0}, 7, 2.0));

  h.transport.peer_send(reader, bytes_of("LIST\n"));
  h.turn();
  const std::string list = text_of(h.transport.peer_take(reader));
  EXPECT_EQ(list, "STREAMS 2\n1/0 3 8\n2/0 7 8\n");

  h.transport.peer_send(reader, bytes_of("QUIT\n"));
  h.turn();
  EXPECT_EQ(text_of(h.transport.peer_take(reader)), "BYE\n");
  EXPECT_TRUE(h.transport.gateway_closed(reader));
}

TEST(Gateway, BadLinesCountedAndOverflowCuts) {
  Harness h;
  const ConnId sub = h.open(Listener::kStream);
  h.transport.peer_send(sub, bytes_of("FROBNICATE\n"));
  h.turn();
  EXPECT_EQ(text_of(h.transport.peer_take(sub)), "ERR unknown command\n");
  h.transport.peer_send(sub, bytes_of("SUB not-a-pattern\n"));
  h.turn();
  EXPECT_EQ(text_of(h.transport.peer_take(sub)), "ERR bad pattern\n");
  EXPECT_EQ(h.gateway->stats().bad_requests, 2u);
  EXPECT_FALSE(h.transport.gateway_closed(sub));

  // A line that never ends is a resource attack: cut at the bound.
  const util::Bytes runaway(2048, std::byte{'A'});
  h.transport.peer_send(sub, runaway);
  h.turn();
  EXPECT_TRUE(h.transport.gateway_closed(sub));
  EXPECT_EQ(h.gateway->stats().bad_requests, 3u);
}

TEST(Gateway, CapacityLimitRejectsExtraConnections) {
  GatewayConfig config;
  config.max_connections = 2;
  Harness h(config);
  h.open(Listener::kStream);
  h.open(Listener::kStream);
  const ConnId third = h.open(Listener::kStream);
  EXPECT_TRUE(h.transport.gateway_closed(third));
  EXPECT_EQ(h.gateway->stats().rejected_capacity, 1u);
  EXPECT_EQ(h.gateway->connections(), 2u);
}

TEST(Gateway, MetricsExposedThroughPrometheus) {
  Harness h;
  const ConnId producer = h.ingest();
  const ConnId sub = h.subscriber("*");
  h.push_message(producer, message({4, 0}, 1, 5.0));
  (void)h.transport.peer_take(sub);

  const std::string exposition = obs::render_prometheus(
      h.runtime.telemetry().registry.snapshot(0));
  EXPECT_NE(exposition.find("garnet_gw_ingest_frames 1"), std::string::npos) << exposition;
  EXPECT_NE(exposition.find("garnet_gw_egress_frames 1"), std::string::npos);
  EXPECT_NE(exposition.find("garnet_gw_cache_entries 1"), std::string::npos);
  EXPECT_NE(exposition.find("garnet_gw_connections{listener=\"stream\"} 1"), std::string::npos);
  // The control-shed zero must be *present* — it is the invariant.
  EXPECT_NE(exposition.find("garnet_gw_shed{class=\"control\",policy=\"drop_newest\"} 0"),
            std::string::npos);
  EXPECT_NE(exposition.find("garnet_gw_delivery_latency_ns"), std::string::npos);

  // The cache port serves the same exposition over the wire.
  const ConnId reader = h.open(Listener::kCache);
  h.transport.peer_send(reader, bytes_of("METRICS\n"));
  h.turn();
  const std::string reply = text_of(h.transport.peer_take(reader));
  EXPECT_EQ(reply.rfind("METRICS ", 0), 0u);
  EXPECT_NE(reply.find("garnet_gw_ingest_frames"), std::string::npos);
}

}  // namespace
}  // namespace garnet::gw
