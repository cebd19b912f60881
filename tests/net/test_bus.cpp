#include "net/bus.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace garnet::net {
namespace {

using util::Duration;

struct BusFixture : ::testing::Test {
  sim::Scheduler scheduler;
  obs::MetricsRegistry registry;
  MessageBus bus{scheduler, MessageBus::Config{}};

  BusFixture() { bus.set_metrics(registry); }

  [[nodiscard]] std::uint64_t counter(std::string_view name) {
    return registry.snapshot().counter(name);
  }
};

TEST_F(BusFixture, DeliversToEndpoint) {
  std::vector<Envelope> received;
  const Address a = bus.add_endpoint("a", [&](Envelope e) { received.push_back(std::move(e)); });
  const Address b = bus.add_endpoint("b", [&](Envelope) { FAIL() << "wrong endpoint"; });
  (void)b;

  bus.post(b, a, MessageType::kAppBase, util::to_bytes("hello"));
  scheduler.run();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].from, b);
  EXPECT_EQ(received[0].to, a);
  EXPECT_EQ(util::to_string(received[0].payload), "hello");
}

TEST_F(BusFixture, DeliveryTakesLatency) {
  const Address a = bus.add_endpoint("a", [&](Envelope e) {
    EXPECT_GE((scheduler.now() - e.sent_at).ns, MessageBus::Config{}.latency.ns);
  });
  bus.post(a, a, MessageType::kAppBase, {});
  scheduler.run();
  EXPECT_EQ(counter("garnet.bus.delivered"), 1u);
}

TEST_F(BusFixture, LookupByName) {
  const Address a = bus.add_endpoint("service.alpha", [](Envelope) {});
  EXPECT_EQ(bus.lookup("service.alpha"), a);
  EXPECT_EQ(bus.lookup("service.beta"), std::nullopt);
}

TEST_F(BusFixture, RemoveEndpointStopsDelivery) {
  int count = 0;
  const Address a = bus.add_endpoint("a", [&](Envelope) { ++count; });
  bus.post(a, a, MessageType::kAppBase, {});
  scheduler.run();
  EXPECT_EQ(count, 1);

  bus.remove_endpoint(a);
  EXPECT_EQ(bus.lookup("a"), std::nullopt);
  bus.post(a, a, MessageType::kAppBase, {});
  scheduler.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(counter("garnet.bus.dropped_no_endpoint"), 1u);
}

TEST_F(BusFixture, MessageToUnknownAddressDropped) {
  bus.post(Address{}, Address{999}, MessageType::kAppBase, {});
  scheduler.run();
  EXPECT_EQ(counter("garnet.bus.dropped_no_endpoint"), 1u);
  EXPECT_EQ(counter("garnet.bus.delivered"), 0u);
}

TEST_F(BusFixture, InFlightMessageSurvivesEndpointChurn) {
  // A message posted before its target deregisters is dropped at
  // delivery time, not crashed on.
  const Address a = bus.add_endpoint("a", [](Envelope) { FAIL(); });
  bus.post(a, a, MessageType::kAppBase, {});
  bus.remove_endpoint(a);
  scheduler.run();
  EXPECT_EQ(counter("garnet.bus.dropped_no_endpoint"), 1u);
}

TEST_F(BusFixture, StatsCountBytes) {
  const Address a = bus.add_endpoint("a", [](Envelope) {});
  bus.post(a, a, MessageType::kAppBase, util::Bytes(10));
  bus.post(a, a, MessageType::kAppBase, util::Bytes(22));
  scheduler.run();
  EXPECT_EQ(counter("garnet.bus.posted"), 2u);
  EXPECT_EQ(counter("garnet.bus.bytes"), 32u);
}

TEST_F(BusFixture, FaultCountersExposedEvenWithoutInjector) {
  // The exposition schema is stable: a fault-free bus still reports all
  // five garnet.bus.faults kinds (as zero) and the garnet.rpc.* family.
  const obs::MetricsSnapshot snap = registry.snapshot();
  for (const char* kind : {"drop", "duplicate", "delay", "reorder", "partition"}) {
    ASSERT_NE(snap.find("garnet.bus.faults", {{"kind", kind}}), nullptr) << kind;
    EXPECT_EQ(snap.counter("garnet.bus.faults", {{"kind", kind}}), 0u) << kind;
  }
  ASSERT_NE(snap.find("garnet.rpc.calls"), nullptr);
  ASSERT_NE(snap.find("garnet.rpc.retries"), nullptr);
  ASSERT_NE(snap.find("garnet.rpc.exhausted"), nullptr);
  ASSERT_NE(snap.find("garnet.rpc.deduped"), nullptr);
}

TEST_F(BusFixture, PayloadAccountingExposedByCollector) {
  // The deprecated stats() shim is gone; the collector is the only read
  // surface, and it now carries the zero-copy payload accounting. The
  // counters are process-wide and monotonic, so assert deltas.
  const std::uint64_t allocs_before = counter("garnet.bus.payload_allocs");
  const std::uint64_t bytes_before = counter("garnet.bus.payload_alloc_bytes");
  const Address a = bus.add_endpoint("a", [](Envelope) {});
  bus.post(a, a, MessageType::kAppBase, util::Bytes(8));
  scheduler.run();
  EXPECT_EQ(counter("garnet.bus.payload_allocs") - allocs_before, 1u);
  EXPECT_EQ(counter("garnet.bus.payload_alloc_bytes") - bytes_before, 8u);
  ASSERT_NE(registry.snapshot().find("garnet.bus.payload_copies"), nullptr);
}

TEST_F(BusFixture, SharedPayloadSurvivesSenderSideDestruction) {
  // The sender's handle dies before delivery; the queued envelope's
  // refcount keeps the allocation alive, so the receiver reads the very
  // same bytes, never a rescue copy.
  const std::byte* data = nullptr;
  std::vector<Envelope> received;
  const Address a = bus.add_endpoint("a", [&](Envelope e) { received.push_back(std::move(e)); });

  const std::uint64_t copies_before = counter("garnet.bus.payload_copies");
  {
    util::SharedBytes frame{util::to_bytes("outlives the sender")};
    data = frame.data();
    bus.post(a, a, MessageType::kAppBase, std::move(frame));
  }  // sender-side handle destroyed here; delivery still pending

  scheduler.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].payload.data(), data);
  EXPECT_EQ(util::to_string(received[0].payload), "outlives the sender");
  EXPECT_EQ(counter("garnet.bus.payload_copies"), copies_before);
}

TEST(BusFaultAliasing, InjectedDuplicateSharesTheBufferNotACopy) {
  sim::Scheduler scheduler;
  MessageBus::Config config;
  config.faults.links[{"src", "dst"}].duplicate = 1.0;
  obs::MetricsRegistry registry;
  MessageBus bus(scheduler, config);
  bus.set_metrics(registry);

  std::vector<const std::byte*> seen;
  const Address dst =
      bus.add_endpoint("dst", [&](Envelope e) { seen.push_back(e.payload.data()); });
  const Address src = bus.add_endpoint("src", [](Envelope) {});

  const std::uint64_t allocs_before = registry.snapshot().counter("garnet.bus.payload_allocs");
  const std::uint64_t copies_before = registry.snapshot().counter("garnet.bus.payload_copies");
  bus.post(src, dst, MessageType::kAppBase, util::Bytes(256));
  scheduler.run();

  // Original + injected duplicate arrived, aliasing one allocation.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(bus.fault_injector()->counters().duplicated, 1u);
  EXPECT_EQ(registry.snapshot().counter("garnet.bus.payload_allocs") - allocs_before, 1u);
  EXPECT_EQ(registry.snapshot().counter("garnet.bus.payload_copies") - copies_before, 0u);
}

TEST_F(BusFixture, OrderPreservedForEqualJitter) {
  MessageBus::Config config;
  config.latency = Duration::micros(100);
  config.max_jitter = Duration::nanos(0);
  MessageBus nojitter(scheduler, config);
  std::vector<int> order;
  const Address a = nojitter.add_endpoint("a", [&](Envelope e) {
    util::ByteReader r(e.payload);
    order.push_back(static_cast<int>(r.u32()));
  });
  for (int i = 0; i < 5; ++i) {
    util::ByteWriter w(4);
    w.u32(static_cast<std::uint32_t>(i));
    nojitter.post(a, a, MessageType::kAppBase, std::move(w).take());
  }
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(BusFixture, AddressesAreUniqueAndValid) {
  const Address a = bus.add_endpoint("a", [](Envelope) {});
  const Address b = bus.add_endpoint("b", [](Envelope) {});
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace garnet::net
