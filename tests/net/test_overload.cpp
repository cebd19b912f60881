// Overload-control unit suite: bounded inboxes (both overflow
// policies), the control-over-data priority invariant, the per-callee
// circuit breaker lifecycle in the RPC layer, and the byte-comparable
// shed journal.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/bus.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace garnet::net {
namespace {

using util::Duration;

constexpr MessageType kData = app_type(0);
constexpr MessageType kAppControl = app_type(7);

util::SharedBytes tagged(std::uint32_t tag) {
  util::ByteWriter w(4);
  w.u32(tag);
  return util::take_shared(std::move(w));
}

std::uint32_t tag_of(const Envelope& envelope) {
  util::ByteReader r(envelope.payload);
  return r.u32();
}

/// Bus with deterministic transport (no jitter) and one bounded endpoint
/// "sink" whose handler records the tag of every envelope it serves.
struct OverloadFixture : ::testing::Test {
  sim::Scheduler scheduler;

  MessageBus::Config config_with(InboxConfig inbox) {
    MessageBus::Config config;
    config.latency = Duration::micros(10);
    config.max_jitter = Duration{};
    config.control_types = {kAppControl};
    config.inboxes["sink"] = inbox;
    return config;
  }

  static InboxConfig small_inbox(OverflowPolicy policy) {
    InboxConfig inbox;
    inbox.capacity = 2;
    inbox.policy = policy;
    inbox.service_time = Duration::millis(1);
    return inbox;
  }
};

TEST_F(OverloadFixture, InactiveInboxDeliversDirectlyAndShedsNothing) {
  MessageBus bus(scheduler, {});  // no inbox config anywhere
  std::vector<std::uint32_t> served;
  const Address sink = bus.add_endpoint("sink", [&](Envelope e) { served.push_back(tag_of(e)); });
  const Address src = bus.add_endpoint("src", [](Envelope) {});

  for (std::uint32_t i = 0; i < 100; ++i) bus.post(src, sink, kData, tagged(i));
  scheduler.run();

  EXPECT_EQ(served.size(), 100u);
  EXPECT_EQ(bus.shed_stats().data_total(), 0u);
  EXPECT_EQ(bus.shed_stats().control_total(), 0u);
  EXPECT_EQ(bus.inbox_depth(sink), 0u);
}

TEST_F(OverloadFixture, DropNewestShedsTheArrivingEnvelope) {
  MessageBus bus(scheduler, config_with(small_inbox(OverflowPolicy::kDropNewest)));
  std::vector<std::uint32_t> served;
  const Address sink = bus.add_endpoint("sink", [&](Envelope e) { served.push_back(tag_of(e)); });
  const Address src = bus.add_endpoint("src", [](Envelope) {});

  // All four arrive in the same service window: #0 enters service,
  // #1 and #2 fill the two queue slots, #3 is the newest and is shed.
  for (std::uint32_t i = 0; i < 4; ++i) bus.post(src, sink, kData, tagged(i));
  scheduler.run();

  EXPECT_EQ(served, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(bus.shed_stats().data_drop_newest, 1u);
  EXPECT_EQ(bus.shed_stats().data_total(), 1u);
}

TEST_F(OverloadFixture, DropOldestEvictsTheQueueHead) {
  MessageBus bus(scheduler, config_with(small_inbox(OverflowPolicy::kDropOldest)));
  std::vector<std::uint32_t> served;
  const Address sink = bus.add_endpoint("sink", [&](Envelope e) { served.push_back(tag_of(e)); });
  const Address src = bus.add_endpoint("src", [](Envelope) {});

  // #0 in service, #1/#2 queued, #3 evicts #1 (the oldest queued).
  for (std::uint32_t i = 0; i < 4; ++i) bus.post(src, sink, kData, tagged(i));
  scheduler.run();

  EXPECT_EQ(served, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(bus.shed_stats().data_drop_oldest, 1u);
}

TEST_F(OverloadFixture, ControlArrivalDisplacesOldestDataWhenFull) {
  MessageBus bus(scheduler, config_with(small_inbox(OverflowPolicy::kDropNewest)));
  std::vector<std::pair<bool, std::uint32_t>> served;  // (is_control, tag)
  const Address sink = bus.add_endpoint("sink", [&](Envelope e) {
    served.emplace_back(e.type == kAppControl, tag_of(e));
  });
  const Address src = bus.add_endpoint("src", [](Envelope) {});

  // Fill with data (#0 in service, #1/#2 queued), then a control
  // envelope arrives at capacity: it must displace the oldest queued
  // data (#1) — under *every* policy, even kDropNewest — and must be
  // dequeued ahead of the surviving data.
  for (std::uint32_t i = 0; i < 3; ++i) bus.post(src, sink, kData, tagged(i));
  bus.post(src, sink, kAppControl, tagged(99));
  scheduler.run();

  EXPECT_EQ(served,
            (std::vector<std::pair<bool, std::uint32_t>>{{false, 0}, {true, 99}, {false, 2}}));
  EXPECT_EQ(bus.shed_stats().data_total(), 1u);
  EXPECT_EQ(bus.shed_stats().control_total(), 0u);
}

TEST_F(OverloadFixture, ControlIsShedOnlyWhenTheWholeInboxIsControl) {
  MessageBus bus(scheduler, config_with(small_inbox(OverflowPolicy::kDropNewest)));
  const Address sink = bus.add_endpoint("sink", [](Envelope) {});
  const Address src = bus.add_endpoint("src", [](Envelope) {});

  // Only control traffic: #0 in service, #1/#2 queued, #3 overflows.
  // With no data to displace, the class invariant allows a control shed.
  for (std::uint32_t i = 0; i < 4; ++i) bus.post(src, sink, kAppControl, tagged(i));
  scheduler.run();

  EXPECT_EQ(bus.shed_stats().control_drop_newest, 1u);
  EXPECT_EQ(bus.shed_stats().data_total(), 0u);
}

TEST_F(OverloadFixture, InboxDepthGaugeTracksTheQueue) {
  obs::MetricsRegistry registry;
  MessageBus bus(scheduler, config_with(small_inbox(OverflowPolicy::kDropNewest)));
  bus.set_metrics(registry);
  const Address sink = bus.add_endpoint("sink", [](Envelope) {});
  const Address src = bus.add_endpoint("src", [](Envelope) {});

  for (std::uint32_t i = 0; i < 3; ++i) bus.post(src, sink, kData, tagged(i));
  scheduler.run_until(util::SimTime{} + Duration::micros(50));

  // #0 is in service; #1 and #2 are queued.
  EXPECT_EQ(bus.inbox_depth(sink), 2u);
  EXPECT_EQ(bus.total_inbox_depth(), 2u);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauge("garnet.bus.inbox_depth", {{"endpoint", "sink"}}), 2.0);

  scheduler.run();
  EXPECT_EQ(bus.inbox_depth(sink), 0u);
}

TEST_F(OverloadFixture, ShedGridIsExportedWithClassAndPolicyLabels) {
  obs::MetricsRegistry registry;
  MessageBus bus(scheduler, config_with(small_inbox(OverflowPolicy::kDropOldest)));
  bus.set_metrics(registry);
  const Address sink = bus.add_endpoint("sink", [](Envelope) {});
  const Address src = bus.add_endpoint("src", [](Envelope) {});

  for (std::uint32_t i = 0; i < 6; ++i) bus.post(src, sink, kData, tagged(i));
  scheduler.run();

  // #0 enters service, #1/#2 fill the queue; #3..#5 each evict the head.
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.bus.shed", {{"class", "data"}, {"policy", "drop_oldest"}}), 3u);
  EXPECT_EQ(snap.counter("garnet.bus.shed", {{"class", "control"}, {"policy", "drop_oldest"}}),
            0u);
}

TEST_F(OverloadFixture, ShedJournalIsByteIdenticalAcrossIdenticalRuns) {
  const auto run_once = [this] {
    sim::Scheduler local;
    MessageBus::Config config;
    config.latency = Duration::micros(10);
    config.max_jitter = Duration{};
    config.shed_journal_limit = 64;
    InboxConfig inbox;
    inbox.capacity = 1;
    inbox.policy = OverflowPolicy::kDropNewest;
    inbox.service_time = Duration::millis(1);
    config.inboxes["sink"] = inbox;
    MessageBus bus(local, config);
    const Address sink = bus.add_endpoint("sink", [](Envelope) {});
    const Address src = bus.add_endpoint("src", [](Envelope) {});
    for (std::uint32_t i = 0; i < 10; ++i) bus.post(src, sink, kData, tagged(i));
    local.run();
    return bus.shed_journal_text();
  };

  const std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("shed data drop_newest src->sink"), std::string::npos);
  EXPECT_EQ(first, run_once());
}

// --- RPC-layer integration: the circuit breaker -----------------------------

struct BreakerFixture : ::testing::Test {
  sim::Scheduler scheduler;
  MessageBus::Config config;
  BreakerFixture() {
    config.latency = Duration::micros(10);
    config.max_jitter = Duration{};
    config.breaker.failure_threshold = 2;
    config.breaker.open_for = Duration::millis(100);
  }

  CallOptions fast() const {
    CallOptions options;
    options.timeout = Duration::millis(2);
    options.retries = 0;
    return options;
  }
};

TEST_F(BreakerFixture, OpensAfterConsecutiveExhaustionsAndFailsFast) {
  MessageBus bus(scheduler, config);
  RpcNode client(bus, "client");
  RpcNode server(bus, "server");
  // A handler that never responds: an unknown method would answer
  // kNoSuchMethod (which counts as alive), so attempts must exhaust.
  server.expose_async(1, [](Address, util::BytesView, RpcResponder) {});

  std::vector<RpcError> errors;
  const auto record = [&](RpcResult result) {
    ASSERT_FALSE(result.ok());
    errors.push_back(result.error());
  };

  client.call(server.address(), 1, {}, fast(), record);
  scheduler.run();
  EXPECT_EQ(client.breaker_state(server.address()), RpcNode::BreakerState::kClosed);

  client.call(server.address(), 1, {}, fast(), record);
  scheduler.run();
  EXPECT_EQ(client.breaker_state(server.address()), RpcNode::BreakerState::kOpen);
  EXPECT_EQ(bus.rpc_stats().breaker_opens, 1u);
  EXPECT_EQ(bus.rpc_stats().open_breakers, 1u);

  // While open: rejected without touching the wire.
  const std::uint64_t calls_before = bus.rpc_stats().calls;
  client.call(server.address(), 1, {}, fast(), record);
  scheduler.run();
  EXPECT_EQ(bus.rpc_stats().calls, calls_before);  // never counted as a call
  EXPECT_EQ(bus.rpc_stats().breaker_fast_fails, 1u);
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[2], RpcError::kCircuitOpen);
}

TEST_F(BreakerFixture, HalfOpenProbeFailureReopensProbeSuccessCloses) {
  MessageBus bus(scheduler, config);
  RpcNode client(bus, "client");
  RpcNode server(bus, "server");
  bool answer = false;
  server.expose_async(1, [&](Address, util::BytesView, RpcResponder respond) {
    if (answer) respond(util::to_bytes("pong"));
  });

  // Trip the breaker (two exhausted budgets).
  for (int i = 0; i < 2; ++i) {
    client.call(server.address(), 1, {}, fast(), [](RpcResult) {});
    scheduler.run();
  }
  ASSERT_EQ(client.breaker_state(server.address()), RpcNode::BreakerState::kOpen);

  // After open_for the next call is a half-open probe; the server is
  // still dead, so the probe exhausts and the breaker reopens.
  scheduler.run_until(scheduler.now() + Duration::millis(150));
  EXPECT_EQ(client.breaker_state(server.address()), RpcNode::BreakerState::kHalfOpen);
  client.call(server.address(), 1, {}, fast(), [](RpcResult) {});
  scheduler.run();
  EXPECT_EQ(client.breaker_state(server.address()), RpcNode::BreakerState::kOpen);
  EXPECT_EQ(bus.rpc_stats().breaker_opens, 2u);

  // Second cool-down; the server recovers; the probe answer closes it.
  answer = true;
  scheduler.run_until(scheduler.now() + Duration::millis(150));
  bool succeeded = false;
  client.call(server.address(), 1, {}, fast(),
              [&](RpcResult result) { succeeded = result.ok(); });
  scheduler.run();
  EXPECT_TRUE(succeeded);
  EXPECT_EQ(client.breaker_state(server.address()), RpcNode::BreakerState::kClosed);
  EXPECT_EQ(bus.rpc_stats().open_breakers, 0u);
}

TEST_F(BreakerFixture, ConcurrentCallsDuringHalfOpenProbeFailFast) {
  MessageBus bus(scheduler, config);
  RpcNode client(bus, "client");
  RpcNode server(bus, "server");
  server.expose_async(1, [](Address, util::BytesView, RpcResponder) {});

  for (int i = 0; i < 2; ++i) {
    client.call(server.address(), 1, {}, fast(), [](RpcResult) {});
    scheduler.run();
  }
  scheduler.run_until(scheduler.now() + Duration::millis(150));

  // First call is the probe (goes to the wire); the second, issued while
  // the probe is in flight, is rejected immediately.
  std::vector<RpcError> errors;
  for (int i = 0; i < 2; ++i) {
    client.call(server.address(), 1, {}, fast(), [&](RpcResult result) {
      ASSERT_FALSE(result.ok());
      errors.push_back(result.error());
    });
  }
  scheduler.run();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], RpcError::kCircuitOpen);  // fast-fail resolves first
  EXPECT_EQ(errors[1], RpcError::kTimeout);      // the probe's real exhaustion
  EXPECT_EQ(bus.rpc_stats().breaker_fast_fails, 1u);
}

}  // namespace
}  // namespace garnet::net
