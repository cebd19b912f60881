// Filtering-service failover (paper §3's presumed "service-level
// parallelism and replication ... for efficiency, data-integrity, and
// fault-tolerance"), exercised end to end on the Runtime: the recovery
// harness's watchdog notices a crash-stopped filtering and promotes a
// standby seeded from the replicated checkpoint + op log. Traffic goes
// through the radio uplink, so it passes Runtime's crash gate exactly
// as field traffic does.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "garnet/runtime.hpp"
#include "obs/metrics.hpp"

namespace garnet {
namespace {

using util::Duration;
using util::SimTime;

struct FailoverFixture : ::testing::Test {
  static Runtime::Config make_config() {
    Runtime::Config config;
    config.field.radio.base_loss = 0.0;  // every uplink copy is heard
    config.field.radio.edge_loss = 0.0;
    config.recovery.enabled = true;
    config.recovery.heartbeat_interval = Duration::millis(100);
    config.recovery.miss_threshold = 3;
    return config;
  }

  Runtime runtime{make_config()};
  core::Consumer consumer{runtime.bus(), "consumer.failover"};
  std::map<core::SequenceNo, int> delivered;

  void SetUp() override {
    runtime.deploy_receivers(1, 5000);  // one receiver covering the field
    runtime.provision(consumer, "failover");
    consumer.subscribe(core::StreamPattern::everything());
    consumer.set_data_handler(
        [this](const core::DeliveryView& d) { ++delivered[d.message.sequence]; });
    runtime.run_for(Duration::millis(20));
  }

  /// One radio copy of frame `seq` on stream (1, 0), then 10 ms of sim
  /// time so it is filtered and dispatched before the next one.
  void send(core::SequenceNo seq) {
    core::DataMessage msg;
    msg.stream_id = {1, 0};
    msg.sequence = seq;
    msg.payload = util::to_bytes("x");
    runtime.field().medium().uplink({500, 500}, core::encode(msg));
    runtime.run_for(Duration::millis(10));
  }
  void send(core::SequenceNo first, core::SequenceNo last) {
    for (core::SequenceNo seq = first; seq < last; ++seq) send(seq);
  }

  void crash() { runtime.recovery()->crash("filtering"); }
  [[nodiscard]] bool failed_over() {
    return counter("garnet.recovery.promotions") > 0 && !runtime.recovery()->crashed("filtering");
  }

  std::uint64_t counter(const char* name) {
    return runtime.telemetry().registry.snapshot().counter(name);
  }
  std::uint64_t lost() {
    return runtime.telemetry().registry.snapshot().counter("garnet.recovery.service_inputs_lost",
                                                           {{"service", "filtering"}});
  }
  double gauge(const char* name) { return runtime.telemetry().registry.snapshot().gauge(name); }
};

TEST_F(FailoverFixture, WatchdogPromotesWithinDetectionBudget) {
  runtime.run_for(Duration::seconds(1));
  EXPECT_FALSE(failed_over());

  crash();
  ASSERT_TRUE(runtime.recovery()->crashed("filtering"));
  runtime.run_for(Duration::seconds(1));
  EXPECT_TRUE(failed_over());
  EXPECT_EQ(counter("garnet.recovery.promotions"), 1u);
  EXPECT_EQ(counter("garnet.recovery.rejoins"), 0u);
  // 3 misses at 100ms heartbeat: detection within (2..4] beats.
  EXPECT_LE(gauge("garnet.recovery.latency_ns"), static_cast<double>(Duration::millis(400).ns));
  EXPECT_GE(gauge("garnet.recovery.latency_ns"), static_cast<double>(Duration::millis(200).ns));
}

TEST_F(FailoverFixture, HotStandbyPreservesDedupAcrossFailover) {
  // The promoted filtering is not a shadow replica that ingested every
  // copy alongside the primary; it is restored from the replicated state.
  // Either way the contract is the same: dedup state survives failover.
  send(0, 5);  // first copies, delivered pre-crash
  crash();
  runtime.run_for(Duration::seconds(1));  // promotion completes
  ASSERT_TRUE(failed_over());

  // Late radio copies of the SAME messages arrive after failover: the
  // promoted filter remembers them, nothing is re-delivered.
  send(0, 5);
  for (core::SequenceNo seq = 0; seq < 5; ++seq) EXPECT_EQ(delivered[seq], 1) << seq;

  // And new traffic flows through the promoted filter.
  send(100);
  EXPECT_EQ(delivered[100], 1);
}

TEST_F(FailoverFixture, ColdStandbySeededFromOpLogDeliversNoDuplicates) {
  // Crash before the first checkpoint cadence (250 ms): the seed is pure
  // op-log replay from boot, one op per forwarded message.
  send(0, 5);
  ASSERT_EQ(counter("garnet.checkpoint.stored"), 0u);
  crash();
  runtime.run_for(Duration::seconds(1));
  ASSERT_TRUE(failed_over());
  EXPECT_EQ(counter("garnet.recovery.ops_replayed"), 5u);

  // Late radio copies of the SAME messages arrive after failover: the
  // seeded filter recognises every one. Zero post-promotion duplicates.
  const core::FilteringStats at_promotion = runtime.filtering().stats();
  send(0, 5);
  const core::FilteringStats after = runtime.filtering().stats();
  EXPECT_EQ((after.duplicates_dropped + after.stale_dropped) -
                (at_promotion.duplicates_dropped + at_promotion.stale_dropped),
            5u);
  for (core::SequenceNo seq = 0; seq < 5; ++seq) EXPECT_EQ(delivered[seq], 1) << seq;

  // New traffic still flows through the promoted filter.
  send(100);
  EXPECT_EQ(delivered[100], 1);
}

TEST_F(FailoverFixture, ColdStandbySeededFromCheckpointPlusTail) {
  // Let a checkpoint land, then forward more messages past it: the seed
  // must combine the snapshot with the op-log tail since its watermark.
  send(0, 5);
  runtime.run_for(Duration::millis(300));  // checkpoint cadence fires
  EXPECT_GE(counter("garnet.checkpoint.stored"), 1u);
  send(5, 8);

  crash();
  runtime.run_for(Duration::seconds(1));
  ASSERT_TRUE(failed_over());
  // Only the post-checkpoint tail (5..7) needed replaying.
  EXPECT_EQ(counter("garnet.recovery.ops_replayed"), 3u);

  send(0, 8);
  for (core::SequenceNo seq = 0; seq < 8; ++seq) EXPECT_EQ(delivered[seq], 1) << seq;
}

TEST_F(FailoverFixture, DetectionWindowLossIsCounted) {
  crash();
  // Traffic arriving while headless is lost and accounted.
  send(0, 7);
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(lost(), 7u);
  EXPECT_EQ(counter("garnet.recovery.inputs_lost"), 7u);

  runtime.run_for(Duration::seconds(1));
  ASSERT_TRUE(failed_over());
  EXPECT_EQ(lost(), 7u);  // the promoted filter loses nothing further
  // The lost sequences never reached the filter, so the restored state
  // holds no record of them: a later copy of each is delivered once, and
  // a second copy is recognised.
  send(0, 7);
  send(0, 7);
  for (core::SequenceNo seq = 0; seq < 7; ++seq) EXPECT_EQ(delivered[seq], 1) << seq;
  send(50);
  EXPECT_EQ(delivered[50], 1);
}

TEST_F(FailoverFixture, NoSpontaneousFailover) {
  runtime.run_for(Duration::seconds(60));
  EXPECT_FALSE(runtime.recovery()->crashed("filtering"));
  EXPECT_EQ(counter("garnet.recovery.crashes"), 0u);
  EXPECT_EQ(counter("garnet.recovery.promotions"), 0u);
  EXPECT_EQ(counter("garnet.recovery.rejoins"), 0u);
  EXPECT_EQ(gauge("garnet.recovery.crashed"), 0.0);
  // The replication machinery was live the whole minute (a checkpoint
  // cadence of 250 ms), so the silence is not an idle harness.
  EXPECT_GT(counter("garnet.checkpoint.stored"), 200u);
}

TEST_F(FailoverFixture, KillIsIdempotent) {
  crash();
  crash();
  runtime.run_for(Duration::seconds(1));
  EXPECT_EQ(counter("garnet.recovery.crashes"), 1u);
  EXPECT_EQ(counter("garnet.recovery.promotions"), 1u);
  EXPECT_TRUE(failed_over());
}

}  // namespace
}  // namespace garnet
