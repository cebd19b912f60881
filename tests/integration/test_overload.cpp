// Overload acceptance suite (the flood test from the fault model):
//
//   * 10x offered load with one consumer serving 100x slower than the
//     healthy one. The slow consumer is quarantined by the credit window
//     and shed at its bounded inbox; the healthy consumer's goodput must
//     stay within 10% of the same flood run without the straggler.
//   * Control-plane RPCs (catalog discovery) issued throughout the flood
//     must all complete with bounded latency, and no control-class
//     envelope may ever be shed while data was shed.
//   * Every overload transition is visible in telemetry, and two floods
//     from identical configs produce byte-identical shed journals.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;
using util::SimTime;

struct FloodOutcome {
  std::uint64_t fast_received = 0;
  std::uint64_t slow_received = 0;
  std::uint64_t discoveries_issued = 0;
  std::uint64_t discoveries_answered = 0;
  Duration control_p99{0};
  std::uint64_t data_sheds = 0;
  std::uint64_t control_sheds = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t credits_exhausted = 0;
  std::string shed_journal;
};

/// One second of flood at `message_interval`, optionally with the
/// 100x-slow subscriber attached. Everything is deterministic: messages
/// are injected straight into the dispatcher on a fixed schedule.
FloodOutcome run_flood(Duration message_interval, bool with_slow_consumer) {
  Runtime::Config config;
  config.flow.credit_window = 32;
  config.bus.shed_journal_limit = 1 << 16;
  {
    net::InboxConfig fast;
    fast.capacity = 64;
    fast.policy = net::OverflowPolicy::kDropOldest;
    fast.service_time = Duration::micros(20);  // healthy: keeps up with the flood
    config.bus.inboxes["consumer.fast"] = fast;
    net::InboxConfig slow = fast;
    slow.capacity = 8;
    slow.service_time = Duration::millis(2);  // 100x slower per message
    config.bus.inboxes["consumer.slow"] = slow;
  }
  Runtime runtime(config);

  core::Consumer fast(runtime.bus(), "consumer.fast");
  runtime.provision(fast, "fast");
  fast.subscribe(core::StreamPattern::everything());

  std::optional<core::Consumer> slow;
  if (with_slow_consumer) {
    slow.emplace(runtime.bus(), "consumer.slow");
    runtime.provision(*slow, "slow");
    slow->subscribe(core::StreamPattern::everything());
  }

  // Control-plane prober: a provisioned consumer running catalog
  // discovery on a fixed cadence for the whole flood.
  core::Consumer prober(runtime.bus(), "consumer.prober");
  runtime.provision(prober, "prober");
  runtime.run_for(Duration::millis(20));  // let the subscribe RPCs settle

  FloodOutcome outcome;
  std::vector<Duration> control_latencies;
  sim::Scheduler& scheduler = runtime.scheduler();

  const SimTime flood_end = scheduler.now() + Duration::seconds(1);
  core::SequenceNo next_seq = 0;
  std::function<void()> inject = [&] {
    core::DataMessage msg;
    msg.stream_id = {1, 0};
    msg.sequence = next_seq++;
    msg.payload = util::Bytes(24);
    runtime.dispatch().on_filtered(msg, scheduler.now());
    if (scheduler.now() < flood_end) scheduler.schedule_after(message_interval, inject);
  };
  std::function<void()> probe = [&] {
    ++outcome.discoveries_issued;
    const SimTime asked = scheduler.now();
    prober.discover({}, [&, asked](std::vector<core::StreamInfo>) {
      ++outcome.discoveries_answered;
      control_latencies.push_back(scheduler.now() - asked);
    });
    if (scheduler.now() < flood_end) scheduler.schedule_after(Duration::millis(20), probe);
  };
  inject();
  probe();
  runtime.run_for(Duration::seconds(2));  // flood + drain

  outcome.fast_received = fast.received();
  outcome.slow_received = slow ? slow->received() : 0;
  if (!control_latencies.empty()) {
    std::sort(control_latencies.begin(), control_latencies.end(),
              [](Duration a, Duration b) { return a.ns < b.ns; });
    outcome.control_p99 = control_latencies[(control_latencies.size() * 99) / 100];
  }
  outcome.data_sheds = runtime.bus().shed_stats().data_total();
  outcome.control_sheds = runtime.bus().shed_stats().control_total();
  outcome.quarantines = runtime.dispatch().stats().quarantines;
  outcome.credits_exhausted = runtime.dispatch().stats().credits_exhausted;
  outcome.shed_journal = runtime.bus().shed_journal_text();

  // Telemetry visibility: the same transitions through the registry.
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.dispatch.quarantines"), outcome.quarantines);
  EXPECT_EQ(snap.counter("garnet.dispatch.credits_exhausted"), outcome.credits_exhausted);
  EXPECT_EQ(snap.counter("garnet.bus.shed", {{"class", "control"}, {"policy", "drop_oldest"}}) +
                snap.counter("garnet.bus.shed", {{"class", "control"}, {"policy", "drop_newest"}}),
            outcome.control_sheds);
  return outcome;
}

constexpr Duration kFloodInterval = Duration::micros(200);  // 10x the healthy 2ms cadence

TEST(OverloadFlood, SlowConsumerIsIsolatedGoodputHolds) {
  const FloodOutcome baseline = run_flood(kFloodInterval, /*with_slow_consumer=*/false);
  const FloodOutcome flooded = run_flood(kFloodInterval, /*with_slow_consumer=*/true);

  // The healthy consumer kept essentially all of its goodput despite the
  // straggler: within 10% of the no-straggler run at identical load.
  ASSERT_GT(baseline.fast_received, 4000u);  // the flood really ran
  EXPECT_GE(flooded.fast_received * 10, baseline.fast_received * 9);

  // The slow consumer was quarantined and shed, not allowed to drag the
  // deployment down — and received only a small fraction of the stream.
  EXPECT_GE(flooded.quarantines, 1u);
  EXPECT_GE(flooded.credits_exhausted, 1u);
  EXPECT_LT(flooded.slow_received * 5, flooded.fast_received);
  EXPECT_GT(flooded.data_sheds + flooded.quarantines, 0u);
}

TEST(OverloadFlood, ControlPlaneStaysResponsiveAndUnshed) {
  const FloodOutcome flooded = run_flood(kFloodInterval, /*with_slow_consumer=*/true);

  // Every discovery completed, with bounded tail latency.
  EXPECT_GT(flooded.discoveries_issued, 30u);
  EXPECT_EQ(flooded.discoveries_answered, flooded.discoveries_issued);
  EXPECT_LT(flooded.control_p99.ns, Duration::millis(50).ns);

  // The priority invariant held end to end: data was shed, control never.
  EXPECT_EQ(flooded.control_sheds, 0u);
}

TEST(OverloadFlood, IdenticalConfigsProduceIdenticalShedJournals) {
  const FloodOutcome first = run_flood(kFloodInterval, /*with_slow_consumer=*/true);
  const FloodOutcome second = run_flood(kFloodInterval, /*with_slow_consumer=*/true);

  EXPECT_FALSE(first.shed_journal.empty());
  EXPECT_EQ(first.shed_journal, second.shed_journal);
  EXPECT_EQ(first.fast_received, second.fast_received);
  EXPECT_EQ(first.slow_received, second.slow_received);
}

}  // namespace
}  // namespace garnet
