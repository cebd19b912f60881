// Gateway egress batching: deliveries queue and each subscriber is
// flushed with one gathered writev per pump (or per kBatchFrames frames),
// while the shedding, control-priority and QUIT contracts hold. Driven
// through LoopbackTransport behind a decorator that counts writev calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/consumer.hpp"
#include "core/message.hpp"
#include "core/wire_types.hpp"
#include "garnet/runtime.hpp"
#include "gw/framing.hpp"
#include "gw/gateway.hpp"
#include "gw/transport.hpp"
#include "sim/realtime.hpp"

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

core::DataMessage message(core::SequenceNo seq) {
  core::DataMessage msg;
  msg.stream_id = {5, 0};
  msg.sequence = seq;
  util::ByteWriter payload(8);
  payload.f64(seq * 0.5);
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

/// Sequence numbers of the CRC-verified delivery frames in a peer stream.
std::vector<core::SequenceNo> sequences(util::BytesView wire) {
  std::vector<core::SequenceNo> out;
  FrameAssembler assembler;
  EXPECT_TRUE(assembler.push(wire));
  while (const auto frame = assembler.frame()) {
    const auto decoded = core::decode_delivery_view(util::SharedBytes::copy_of(*frame),
                                                    core::ChecksumPolicy::kVerify);
    EXPECT_TRUE(decoded.ok()) << "corrupt delivery frame";
    if (decoded.ok()) out.push_back(decoded.value().message.sequence);
    assembler.pop();
  }
  EXPECT_EQ(assembler.buffered(), 0u) << "trailing partial frame";
  return out;
}

/// Forwards to a LoopbackTransport and counts writev calls per peer.
class CountingTransport final : public Transport {
 public:
  explicit CountingTransport(Transport& inner) : inner_(inner) {}

  void poll(std::vector<TransportEvent>& out) override { inner_.poll(out); }
  std::ptrdiff_t read(ConnId conn, std::span<std::byte> buf) override {
    return inner_.read(conn, buf);
  }
  std::ptrdiff_t writev(ConnId conn, std::span<const util::IoSlice> slices) override {
    ++writevs_[conn];
    return inner_.writev(conn, slices);
  }
  void want_writable(ConnId conn, bool want) override { inner_.want_writable(conn, want); }
  void close(ConnId conn) override { inner_.close(conn); }

  [[nodiscard]] std::size_t writevs(ConnId conn) const {
    const auto it = writevs_.find(conn);
    return it == writevs_.end() ? 0 : it->second;
  }
  void reset() { writevs_.clear(); }

 private:
  Transport& inner_;
  std::map<ConnId, std::size_t> writevs_;
};

struct Harness {
  Runtime runtime;
  LoopbackTransport transport;
  CountingTransport counting{transport};
  std::unique_ptr<Gateway> gateway;

  explicit Harness(GatewayConfig config = {}, Runtime::Config runtime_config = {})
      : runtime(runtime_config) {
    gateway = std::make_unique<Gateway>(runtime, counting, config);
    gateway->step(Duration::millis(20));  // settle the subscribe RPC
  }

  ConnId open(Listener listener) {
    const ConnId id = transport.connect(listener);
    gateway->step(Duration::millis(10));
    return id;
  }

  ConnId subscriber() {
    const ConnId id = open(Listener::kStream);
    transport.peer_send(id, bytes_of("SUB *\n"));
    gateway->step(Duration::millis(10));
    EXPECT_EQ(text_of(transport.peer_take(id)), "OK SUB */*\n");
    return id;
  }

  /// Schedules `count` in-process injections 1 ms apart, so a whole
  /// burst lands inside one run_for (and stays inside a lease-500us
  /// admission pool of one ticket). The messages outlive the run.
  void schedule_burst(std::vector<core::DataMessage>& messages, std::size_t count) {
    messages.clear();
    for (std::size_t i = 0; i < count; ++i) messages.push_back(message(i));
    for (std::size_t i = 0; i < count; ++i) {
      runtime.scheduler().schedule_after(Duration::millis(1 + static_cast<std::int64_t>(i)),
                                         [this, &messages, i] {
                                           runtime.inject_external(core::as_view(messages[i]));
                                         });
    }
  }
};

TEST(GatewayBatching, OneStepOfDeliveriesCostsAFewWritevsPerSubscriber) {
  Harness h;
  const ConnId producer = h.open(Listener::kIngest);
  const ConnId a = h.subscriber();
  const ConnId b = h.subscriber();

  constexpr std::size_t kMessages = 100;
  util::Bytes wire;
  for (std::size_t i = 0; i < kMessages; ++i) {
    const util::Bytes one = framed(message(i));
    wire.insert(wire.end(), one.begin(), one.end());
  }
  h.transport.peer_send(producer, wire);
  h.counting.reset();
  h.gateway->step(Duration::millis(10));

  // ceil(100 / 32) = 4 gathered writes per subscriber: three early
  // flushes at the 32-frame batch cap, one at the end-of-step pump.
  constexpr std::size_t kBound = (kMessages + 31) / 32;
  EXPECT_LE(h.counting.writevs(a) + h.counting.writevs(b), 2 * kBound);
  EXPECT_EQ(h.gateway->stats().egress_frames, 2 * kMessages);
  EXPECT_EQ(sequences(h.transport.peer_take(a)).size(), kMessages);
  EXPECT_EQ(sequences(h.transport.peer_take(b)).size(), kMessages);
}

/// The delivery frames an in-process subscriber saw, in arrival order:
/// exactly what the gateway must have put on each socket.
struct WireRecorder {
  core::Consumer consumer;
  util::Bytes expected;

  explicit WireRecorder(Runtime& runtime) : consumer(runtime.bus(), "consumer.recorder") {
    runtime.provision(consumer, "recorder");
    consumer.set_data_handler([this](const core::DeliveryView& d) {
      std::byte prefix[kLengthPrefixBytes];
      put_length_prefix(static_cast<std::uint32_t>(d.wire.size()), prefix);
      expected.insert(expected.end(), prefix, prefix + kLengthPrefixBytes);
      expected.insert(expected.end(), d.wire.data(), d.wire.data() + d.wire.size());
    });
    consumer.subscribe(core::StreamPattern::everything());
  }
};

void burst_reaches_fast_peer_intact(GatewayConfig config, Runtime::Config runtime_config,
                                    std::size_t expected_bound) {
  Harness h(config, runtime_config);
  WireRecorder recorder(h.runtime);
  const ConnId sub = h.subscriber();
  h.gateway->step(Duration::millis(10));
  if (net::AdmissionGate* gate = h.runtime.admission()) {
    ASSERT_EQ(gate->data_pool_size() * config.outbox_frames_per_ticket, expected_bound);
  }

  constexpr std::size_t kBurst = 1000;
  std::vector<core::DataMessage> messages;
  h.schedule_burst(messages, kBurst);
  h.gateway->pump();
  h.runtime.run_for(Duration::millis(kBurst + 10));  // the whole burst, one run_for
  h.gateway->pump();

  EXPECT_EQ(h.runtime.external_in(), kBurst);
  EXPECT_EQ(h.gateway->stats().shed.data_total(), 0u);
  const util::Bytes got = h.transport.peer_take(sub);
  EXPECT_EQ(got.size(), recorder.expected.size());
  EXPECT_TRUE(got == recorder.expected) << "egress is not byte-exact";
  const std::vector<core::SequenceNo> seqs = sequences(got);
  ASSERT_EQ(seqs.size(), kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(GatewayBatching, BurstPastTheStaticOutboxShedsNothingForAFastPeer) {
  GatewayConfig config;
  config.outbox_frames = 256;
  burst_reaches_fast_peer_intact(config, {}, 256);
}

TEST(GatewayBatching, BurstPastTheAdmissionDerivedOutboxShedsNothingForAFastPeer) {
  // One data ticket x 4 frames per ticket: a bound of 4, far below the
  // 32-frame batch cap, so only flush-before-shed keeps the burst whole.
  Runtime::Config runtime_config;
  runtime_config.admission.enabled = true;
  runtime_config.admission.probing = false;
  runtime_config.admission.probe.initial_concurrency = 1;
  runtime_config.admission.probe.min_concurrency = 1;
  GatewayConfig config;
  config.outbox_frames = 256;
  config.outbox_frames_per_ticket = 4;
  burst_reaches_fast_peer_intact(config, runtime_config, 4);
}

TEST(GatewayBatching, FrozenPeerShedsDataNeverControl) {
  GatewayConfig config;
  config.outbox_frames = 8;
  Harness h(config);
  const ConnId frozen = h.subscriber();
  const ConnId healthy = h.subscriber();
  h.transport.set_write_window(frozen, 0);

  constexpr std::size_t kBurst = 50;
  std::vector<core::DataMessage> messages;
  h.schedule_burst(messages, kBurst);
  h.gateway->step(Duration::millis(kBurst + 10));

  // A control reply while the frozen peer's outbox is full: queued, not shed.
  h.transport.peer_send(frozen, bytes_of("UNSUB\n"));
  h.gateway->step(Duration::millis(10));

  const GatewayStats& stats = h.gateway->stats();
  EXPECT_EQ(stats.shed.data_drop_newest, kBurst - 8);
  EXPECT_EQ(stats.shed.control_total(), 0u);
  EXPECT_EQ(sequences(h.transport.peer_take(healthy)).size(), kBurst);

  h.transport.open_write_window(frozen, 1 << 20);
  h.gateway->step(Duration::millis(10));
  const std::string out = text_of(h.transport.peer_take(frozen));
  ASSERT_EQ(out.rfind("OK UNSUB\n", 0), 0u) << out.substr(0, 16);
  const std::vector<core::SequenceNo> seqs = sequences(bytes_of(out.substr(9)));
  ASSERT_EQ(seqs.size(), 8u);  // the bounded outbox, oldest first
  EXPECT_EQ(seqs.front(), 0u);
  EXPECT_EQ(seqs.back(), 7u);
}

TEST(GatewayBatching, RepliesKeepTheirPlaceBehindDataTheSchedulerQueued) {
  // Deliveries queued while the scheduler ran go out at the start of the
  // next pump, before the request that pump reads is answered: the peer
  // sees the same byte order as when every delivery flushed at once.
  Harness h;
  const ConnId sub = h.subscriber();
  std::vector<core::DataMessage> messages;
  h.schedule_burst(messages, 3);
  h.runtime.run_for(Duration::millis(10));
  EXPECT_EQ(h.transport.peer_pending(sub), 0u);  // queued, not yet written

  h.transport.peer_send(sub, bytes_of("UNSUB\n"));
  h.gateway->pump();
  const std::string out = text_of(h.transport.peer_take(sub));
  ASSERT_GE(out.size(), 9u);
  EXPECT_EQ(out.substr(out.size() - 9), "OK UNSUB\n");
  EXPECT_EQ(sequences(bytes_of(out.substr(0, out.size() - 9))),
            (std::vector<core::SequenceNo>{0, 1, 2}));
}

TEST(GatewayBatching, QuitAfterQueuedRepliesDrainsThenCloses) {
  Harness h;
  const ConnId producer = h.open(Listener::kIngest);
  h.transport.peer_send(producer, framed(message(3)));
  h.gateway->step(Duration::millis(10));
  const ConnId reader = h.open(Listener::kCache);
  h.transport.set_write_window(reader, 0);

  h.transport.peer_send(reader, bytes_of("GET 5/0\nLIST\nGET 5/0\nQUIT\n"));
  h.gateway->step(Duration::millis(10));
  EXPECT_FALSE(h.transport.gateway_closed(reader)) << "closed before the replies drained";

  h.transport.set_write_limit(reader, 7);  // and drain in short writes
  h.transport.open_write_window(reader, 1 << 20);
  for (int i = 0; i < 100 && !h.transport.gateway_closed(reader); ++i) {
    h.gateway->step(Duration::millis(1));
  }
  EXPECT_TRUE(h.transport.gateway_closed(reader));
  const std::string out = text_of(h.transport.peer_take(reader));
  EXPECT_EQ(out.rfind("VALUE 5/0 3 ", 0), 0u) << out;
  EXPECT_NE(out.find("STREAMS 1\n5/0 3 8\n"), std::string::npos) << out;
  EXPECT_EQ(out.substr(out.size() - 4), "BYE\n");
  EXPECT_EQ(h.gateway->stats().shed.control_total(), 0u);
}

TEST(GatewayBatching, RealtimeDriverPumpsTheGatewayBeforeTheSliceEnds) {
  Harness h;
  const ConnId producer = h.open(Listener::kIngest);
  const ConnId sub = h.subscriber();
  h.transport.peer_send(producer, framed(message(1)));

  // The ingest frame is read, dispatched and written out while the
  // driver idles between events, not at the next pump after run_for.
  constexpr Duration kSlice = Duration::millis(40);
  const util::SimTime end = h.runtime.scheduler().now() + kSlice;
  std::optional<util::SimTime> arrived;
  sim::RealtimeDriver driver(h.runtime.scheduler(), 1.0);
  driver.run_for(kSlice, [&] {
    h.gateway->pump();
    if (!arrived && h.transport.peer_pending(sub) > 0) arrived = h.runtime.scheduler().now();
  });
  ASSERT_TRUE(arrived.has_value()) << "no delivery inside the slice";
  EXPECT_LT(arrived->ns, end.ns);
  EXPECT_EQ(sequences(h.transport.peer_take(sub)), std::vector<core::SequenceNo>{1});
}

}  // namespace
}  // namespace garnet::gw
