// ShardedDispatchPlane: hash partitioning, cross-shard control routing,
// the deterministic merge (byte-identical journals across shard counts),
// N=1 frame equivalence with the unsharded dispatcher, grouped recovery
// re-anchoring, and per-shard telemetry.
#include "garnet/shard_plane.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/message.hpp"
#include "core/wire_types.hpp"
#include "garnet/recovery.hpp"
#include "net/admission.hpp"
#include "net/overload.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"

namespace garnet {
namespace {

using core::DataMessage;
using core::StreamId;
using core::StreamPattern;
using util::Duration;
using util::SimTime;

DataMessage make_message(StreamId id, core::SequenceNo seq) {
  DataMessage msg;
  msg.stream_id = id;
  msg.sequence = seq;
  msg.payload = util::to_bytes("x");
  return msg;
}

TEST(ShardPlane, HashRoutingSpreadsStreamsAndIsStable) {
  ShardPlaneConfig config;
  config.shards = 8;
  config.use_workers = false;
  ShardedDispatchPlane plane(config);

  std::set<std::uint32_t> used;
  for (core::SensorId sensor = 1; sensor <= 64; ++sensor) {
    const StreamId id{sensor, 0};
    const std::uint32_t shard = plane.shard_of(id);
    ASSERT_LT(shard, plane.shard_count());
    EXPECT_EQ(shard, plane.shard_of(id));  // stable
    used.insert(shard);
  }
  // The packed id is sensor<<8: an unmixed modulo would collapse every
  // single-stream sensor onto shard 0. The mix must use them all.
  EXPECT_EQ(used.size(), 8u);
}

TEST(ShardPlane, ExactSubscriptionDeliversOnTheOwningShard) {
  ShardPlaneConfig config;
  config.shards = 4;
  config.use_workers = false;
  ShardedDispatchPlane plane(config);

  const StreamId id{7, 1};
  const std::uint32_t owner = plane.shard_of(id);

  std::vector<std::pair<std::uint32_t, core::SequenceNo>> seen;
  const PlaneConsumerId consumer =
      plane.add_consumer("consumer", [&seen](std::uint32_t shard, const net::Envelope& e) {
        if (e.type != core::kDataDelivery) return;
        const auto delivery = core::decode_delivery_view(e.payload);
        ASSERT_TRUE(delivery.ok());
        seen.emplace_back(shard, delivery.value().message.sequence);
      });
  plane.subscribe(consumer, StreamPattern::exact(id));

  for (core::SequenceNo seq = 0; seq < 5; ++seq) plane.inject(make_message(id, seq));
  plane.run_until_idle();

  ASSERT_EQ(seen.size(), 5u);
  for (core::SequenceNo seq = 0; seq < 5; ++seq) {
    EXPECT_EQ(seen[seq].first, owner);
    EXPECT_EQ(seen[seq].second, seq);
  }
  // The exact subscription landed only on the owning shard's table.
  for (std::uint32_t shard = 0; shard < plane.shard_count(); ++shard) {
    EXPECT_EQ(plane.dispatch(shard).subscriptions().size(), shard == owner ? 1u : 0u);
  }
  EXPECT_EQ(plane.merged_dispatch_stats().copies_delivered, 5u);
}

TEST(ShardPlane, WildcardSubscriptionSpansEveryShard) {
  ShardPlaneConfig config;
  config.shards = 4;
  config.use_workers = false;
  ShardedDispatchPlane plane(config);

  std::size_t delivered = 0;
  const PlaneConsumerId consumer =
      plane.add_consumer("wild", [&delivered](std::uint32_t, const net::Envelope& e) {
        if (e.type == core::kDataDelivery) ++delivered;
      });
  const PlaneSubscriptionId sub = plane.subscribe(consumer, StreamPattern::everything());
  for (std::uint32_t shard = 0; shard < plane.shard_count(); ++shard) {
    EXPECT_EQ(plane.dispatch(shard).subscriptions().size(), 1u);
  }

  // Sensors chosen to land on more than one shard.
  std::set<std::uint32_t> shards_hit;
  for (core::SensorId sensor = 1; sensor <= 16; ++sensor) {
    plane.inject(make_message({sensor, 0}, 0));
    shards_hit.insert(plane.shard_of({sensor, 0}));
  }
  ASSERT_GT(shards_hit.size(), 1u);
  plane.run_until_idle();
  EXPECT_EQ(delivered, 16u);

  EXPECT_TRUE(plane.unsubscribe(sub));
  for (std::uint32_t shard = 0; shard < plane.shard_count(); ++shard) {
    EXPECT_EQ(plane.dispatch(shard).subscriptions().size(), 0u);
  }
}

TEST(ShardPlane, IngestRoutesByFrameStreamAndAdoptsMalformed) {
  ShardPlaneConfig config;
  config.shards = 4;
  config.use_workers = false;
  ShardedDispatchPlane plane(config);

  const StreamId id{42, 3};
  wireless::ReceptionReport report{1, -40.0, SimTime::zero(),
                                   core::encode(make_message(id, 0))};
  plane.ingest(report);
  EXPECT_EQ(plane.processed(plane.shard_of(id)), 1u);

  wireless::ReceptionReport garbage{1, -40.0, SimTime::zero(), util::to_bytes("garbage!")};
  plane.ingest(garbage);
  plane.run_until_idle();

  const auto merged = plane.merged_filtering_stats();
  EXPECT_EQ(merged.copies_in, 2u);
  EXPECT_EQ(merged.messages_out, 1u);
  EXPECT_EQ(merged.malformed, 1u);
  // The unparseable frame cannot name an owner; shard 0 adopted it.
  EXPECT_EQ(plane.filtering(0).stats().malformed, 1u);
}

// --- deterministic merge ---------------------------------------------------

/// A shard-pure overload workload: per-stream consumers with slow,
/// shallow inboxes, so deliveries queue during the service window and
/// overflow into the shed journal. Every consumer's traffic lives
/// entirely on its stream's owning shard, which is the precondition for
/// the merged journal to be invariant across shard counts.
std::string run_shed_workload(std::uint32_t shards, net::ShedStats* stats_out = nullptr) {
  ShardPlaneConfig config;
  config.shards = shards;
  config.use_workers = false;  // execution mode must not matter; see below
  config.bus.shed_journal_limit = 4096;
  constexpr int kStreams = 8;
  for (int i = 0; i < kStreams; ++i) {
    net::InboxConfig inbox;
    inbox.capacity = 4;
    inbox.policy = net::OverflowPolicy::kDropNewest;
    inbox.service_time = Duration::millis(1);
    config.bus.inboxes["c" + std::to_string(i)] = inbox;
  }
  ShardedDispatchPlane plane(config);

  for (int i = 0; i < kStreams; ++i) {
    const StreamId id{static_cast<core::SensorId>(i + 1), 0};
    const PlaneConsumerId consumer =
        plane.add_consumer("c" + std::to_string(i), [](std::uint32_t, const net::Envelope&) {});
    plane.subscribe(consumer, StreamPattern::exact(id));
  }
  for (core::SequenceNo seq = 0; seq < 64; ++seq) {
    for (int i = 0; i < kStreams; ++i) {
      plane.inject(make_message({static_cast<core::SensorId>(i + 1), 0}, seq));
    }
  }
  plane.run_until_idle();
  if (stats_out != nullptr) *stats_out = plane.merged_shed_stats();
  return plane.merged_shed_journal();
}

TEST(ShardPlane, MergedShedJournalIsByteIdenticalAcrossShardCounts) {
  net::ShedStats stats1, stats2, stats8;
  const std::string at1 = run_shed_workload(1, &stats1);
  const std::string at2 = run_shed_workload(2, &stats2);
  const std::string at8 = run_shed_workload(8, &stats8);

  ASSERT_FALSE(at1.empty());  // the workload must actually shed
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
  EXPECT_EQ(stats1.data_total(), stats2.data_total());
  EXPECT_EQ(stats1.data_total(), stats8.data_total());
  EXPECT_EQ(stats1.control_total(), 0u);
}

TEST(ShardPlane, SameSeedRunsAreByteIdenticalAtFixedShardCount) {
  EXPECT_EQ(run_shed_workload(4), run_shed_workload(4));
}

// --- N=1 equivalence with the unsharded dispatcher -------------------------

TEST(ShardPlane, SingleShardCheckpointFramesMatchUnshardedDispatch) {
  // The plane side, N=1. Mirrors the PR-7 golden scenario
  // (GoldenFrames.DispatchDeltaChainReproducesFullCapture).
  ShardPlaneConfig config;
  config.shards = 1;
  ShardedDispatchPlane plane(config);
  const PlaneConsumerId pc = plane.add_consumer("consumer", [](std::uint32_t,
                                                               const net::Envelope&) {});
  plane.subscribe(pc, StreamPattern::all_of(1));
  for (core::SequenceNo seq = 0; seq < 4; ++seq) plane.inject(make_message({1, 0}, seq));
  plane.run_until_idle();

  // The reference side: an unsharded DispatchingService constructed in
  // the same order a Shard constructs its members, so every bus address
  // matches, driven with the same logical operations.
  sim::Scheduler scheduler;
  net::MessageBus bus(scheduler, {});
  core::AuthService auth{{}};
  core::StreamCatalog catalog;
  core::FilteringService filtering(scheduler, {});
  core::DispatchingService reference(bus, auth, catalog);
  core::Orphanage orphanage(bus, {});
  reference.set_orphan_sink(orphanage.address());
  reference.set_flow_control({});
  const net::Address consumer = bus.add_endpoint("consumer", [](net::Envelope) {});
  reference.subscribe(consumer, StreamPattern::all_of(1));
  for (core::SequenceNo seq = 0; seq < 4; ++seq) {
    reference.on_filtered(make_message({1, 0}, seq), scheduler.now());
  }
  scheduler.run();

  EXPECT_EQ(plane.dispatch(0).capture_full(), reference.capture_full());

  // Deltas stay frame-identical too.
  plane.subscribe(pc, StreamPattern::exact({2, 0}));
  plane.inject(make_message({2, 0}, 9));
  plane.inject(make_message({1, 0}, 4));
  plane.run_until_idle();
  reference.subscribe(consumer, StreamPattern::exact({2, 0}));
  reference.on_filtered(make_message({2, 0}, 9), scheduler.now());
  reference.on_filtered(make_message({1, 0}, 4), scheduler.now());
  scheduler.run();

  EXPECT_EQ(plane.dispatch(0).capture_delta(), reference.capture_delta());
}

// --- recovery: each shard restores on its own ------------------------------

TEST(ShardPlane, ShardRestoresItsOwnStateAfterAnotherShardsPromotion) {
  // A dispatcher's delta carries its whole subscription table, so a
  // shard whose chain runs across another shard's promotion restores
  // exactly the state it had when it crashed.
  sim::Scheduler scheduler;
  net::MessageBus bus(scheduler, {});
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.checkpoint_interval = Duration::millis(100);
  recovery.full_checkpoint_interval = 1000;  // deltas after each shard's first frame
  RecoveryHarness harness(scheduler, bus, recovery);

  ShardPlaneConfig config;
  config.shards = 2;
  config.use_workers = false;
  ShardedDispatchPlane plane(config);
  plane.register_recovery(harness, "dispatch-plane");
  scheduler.run_until(SimTime::zero() + Duration::millis(150));  // first frames

  harness.crash("dispatch-plane.shard0");
  scheduler.run_until(SimTime::zero() + Duration::millis(650));
  ASSERT_EQ(harness.stats().promotions, 1u);

  StreamId id{1, 0};
  while (plane.shard_of(id) != 1) ++id.sensor;
  const PlaneConsumerId consumer = plane.add_consumer("c", [](std::uint32_t, const net::Envelope&) {});
  plane.subscribe(consumer, StreamPattern::exact(id));
  const std::uint64_t captures =
      harness.stats().checkpoints_taken + harness.stats().deltas_taken;
  scheduler.run_until(SimTime::zero() + Duration::millis(750));  // a checkpoint tick
  ASSERT_GT(harness.stats().checkpoints_taken + harness.stats().deltas_taken, captures);

  const util::Bytes before = plane.dispatch(1).capture_state();
  harness.crash("dispatch-plane.shard1");
  ASSERT_NE(plane.dispatch(1).capture_state(), before);  // the crash wiped it
  harness.restart("dispatch-plane.shard1");
  EXPECT_EQ(plane.dispatch(1).capture_state(), before);
}

TEST(ShardPlane, InputsReachingACrashedShardRunAfterItsRestart) {
  sim::Scheduler scheduler;
  net::MessageBus bus(scheduler, {});
  RecoveryConfig recovery;
  recovery.enabled = true;
  RecoveryHarness harness(scheduler, bus, recovery);

  ShardPlaneConfig config;
  config.shards = 2;
  config.use_workers = false;
  ShardedDispatchPlane plane(config);
  plane.register_recovery(harness, "dispatch-plane");

  const StreamId id{5, 0};
  const std::string owner = "dispatch-plane.shard" + std::to_string(plane.shard_of(id));
  std::set<core::SequenceNo> seen;
  std::size_t delivered = 0;
  const PlaneConsumerId consumer =
      plane.add_consumer("c", [&](std::uint32_t, const net::Envelope& e) {
        if (e.type != core::kDataDelivery) return;
        const auto decoded = core::decode_delivery_view(e.payload);
        ASSERT_TRUE(decoded.ok());
        seen.insert(decoded.value().message.sequence);
        ++delivered;
      });
  plane.subscribe(consumer, StreamPattern::exact(id));
  scheduler.run_until(SimTime::zero() + Duration::millis(10));  // op record lands

  harness.crash(owner);
  for (core::SequenceNo seq = 0; seq < 5; ++seq) plane.inject(make_message(id, seq));
  plane.run_round();       // a round while the shard is down skips it
  plane.run_until_idle();  // and returns: nothing else is runnable
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(plane.pending_inputs(), 0u);

  // The restart restores the subscription (op-log replay) and the held
  // inputs run in the next rounds, each delivered once.
  harness.restart(owner);
  plane.run_until_idle();
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(seen, (std::set<core::SequenceNo>{0, 1, 2, 3, 4}));
  EXPECT_EQ(plane.pending_inputs(), 0u);
}

TEST(ShardPlane, InputsQueuedWhenTheShardCrashesWaitForItsRestart) {
  // Inputs injected before the crash but not yet run by a round belong
  // to the crashed shard too: the wipe hands them to its door, so a
  // round run while the shard is down cannot feed them to the wiped
  // dispatcher (which would orphan them: its table is empty).
  sim::Scheduler scheduler;
  net::MessageBus bus(scheduler, {});
  RecoveryConfig recovery;
  recovery.enabled = true;
  RecoveryHarness harness(scheduler, bus, recovery);

  ShardPlaneConfig config;
  config.shards = 1;
  config.use_workers = false;
  ShardedDispatchPlane plane(config);
  plane.register_recovery(harness, "dispatch-plane");
  std::vector<core::SequenceNo> delivered;
  const PlaneConsumerId consumer =
      plane.add_consumer("c", [&](std::uint32_t, const net::Envelope& e) {
        if (e.type != core::kDataDelivery) return;
        const auto decoded = core::decode_delivery_view(e.payload);
        ASSERT_TRUE(decoded.ok());
        delivered.push_back(decoded.value().message.sequence);
      });
  const StreamId id{5, 0};
  plane.subscribe(consumer, StreamPattern::exact(id));
  scheduler.run_until(SimTime::zero() + Duration::millis(10));  // op record lands

  for (core::SequenceNo seq = 0; seq < 3; ++seq) plane.inject(make_message(id, seq));
  ASSERT_EQ(plane.pending_inputs(), 3u);
  harness.crash("dispatch-plane.shard0");
  EXPECT_EQ(plane.pending_inputs(), 0u);
  plane.inject(make_message(id, 3));
  plane.run_round();
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(plane.orphanage(0).total_received(), 0u);

  harness.restart("dispatch-plane.shard0");
  plane.run_until_idle();
  EXPECT_EQ(delivered, (std::vector<core::SequenceNo>{0, 1, 2, 3}));
}

TEST(ShardPlane, ShardCrashDuringQuarantineDeliversEverySequenceOnce) {
  // The dispatch probe on the N=1 plane: a checkpoint while 2..4 wait in
  // the backlog, an ack that drains 2 and 3, sheds of 5..7, then a crash
  // and restart of the shard. Every sequence arrives once, in order.
  sim::Scheduler scheduler;
  net::MessageBus bus(scheduler, {});
  RecoveryConfig recovery;
  recovery.enabled = true;
  RecoveryHarness harness(scheduler, bus, recovery);

  ShardPlaneConfig config;
  config.shards = 1;
  config.use_workers = false;
  config.flow.credit_window = 2;
  ShardedDispatchPlane plane(config);
  plane.register_recovery(harness, "dispatch-plane");

  std::vector<core::SequenceNo> delivered;
  const PlaneConsumerId consumer =
      plane.add_consumer("c", [&](std::uint32_t, const net::Envelope& e) {
        if (e.type != core::kDataDelivery) return;
        const auto decoded = core::decode_delivery_view(e.payload, core::ChecksumPolicy::kVerify);
        ASSERT_TRUE(decoded.ok());
        delivered.push_back(decoded.value().message.sequence);
      });
  const StreamId id{1, 0};
  plane.subscribe(consumer, StreamPattern::exact(id));
  for (core::SequenceNo seq = 0; seq < 5; ++seq) plane.inject(make_message(id, seq));
  plane.run_until_idle();
  scheduler.run_until(SimTime::zero() + Duration::millis(300));  // a checkpoint lands
  ASSERT_GE(harness.stats().checkpoints_stored, 1u);

  plane.grant_credits(consumer, 0, 2);
  plane.run_round();
  for (core::SequenceNo seq = 5; seq < 8; ++seq) plane.inject(make_message(id, seq));
  plane.run_until_idle();

  harness.crash("dispatch-plane.shard0");
  harness.restart("dispatch-plane.shard0");
  plane.run_round();
  for (int round = 0; round < 6 && plane.dispatch(0).quarantined(plane.consumer_address(consumer, 0));
       ++round) {
    plane.grant_credits(consumer, 0, 2);
    plane.run_round();
  }

  std::vector<core::SequenceNo> expected;
  for (core::SequenceNo seq = 0; seq < 8; ++seq) expected.push_back(seq);
  EXPECT_EQ(delivered, expected);
  EXPECT_FALSE(plane.dispatch(0).quarantined(plane.consumer_address(consumer, 0)));
  EXPECT_EQ(plane.merged_dispatch_stats().resume_missing, 0u);
}

// --- flow control across the plane -----------------------------------------

TEST(ShardPlane, CreditsRouteToTheGrantingShard) {
  ShardPlaneConfig config;
  config.shards = 4;
  config.use_workers = false;
  config.flow.credit_window = 2;
  ShardedDispatchPlane plane(config);

  const StreamId id{5, 0};
  const std::uint32_t owner = plane.shard_of(id);
  std::size_t delivered = 0;
  const PlaneConsumerId consumer =
      plane.add_consumer("slow", [&delivered](std::uint32_t, const net::Envelope& e) {
        if (e.type == core::kDataDelivery) ++delivered;
      });
  plane.subscribe(consumer, StreamPattern::exact(id));

  for (core::SequenceNo seq = 0; seq < 6; ++seq) plane.inject(make_message(id, seq));
  plane.run_until_idle();

  // The window (2) exhausted on the owning shard; the rest quarantined.
  EXPECT_EQ(delivered, 2u);
  EXPECT_TRUE(plane.dispatch(owner).quarantined(plane.consumer_address(consumer, owner)));
  EXPECT_EQ(plane.merged_dispatch_stats().quarantines, 1u);

  // Replenish on the granting shard. Credits clamp to the window (2),
  // so each ack drains one window of the backlog — exactly the cadence
  // a live consumer acks at.
  plane.grant_credits(consumer, owner, 16);
  plane.run_round();
  EXPECT_EQ(delivered, 4u);  // 2 redelivered, 2 still queued (window-capped)

  plane.grant_credits(consumer, owner, 16);
  plane.run_round();
  EXPECT_EQ(delivered, 6u);  // backlog drained, duplicate-free

  plane.grant_credits(consumer, owner, 16);
  plane.run_round();
  EXPECT_FALSE(plane.dispatch(owner).quarantined(plane.consumer_address(consumer, owner)));
  EXPECT_GE(plane.merged_dispatch_stats().resume_redelivered, 4u);
}

// --- plane-global admission control -----------------------------------------

/// The shed workload with the throughput-probed admission gate in front:
/// injection stamps are plane-global (rejects consume no injection tick)
/// and probe ticks land at merge barriers on the merged clock, so the
/// probe journal must be a function of the injection order alone —
/// invariant across shard counts and execution modes.
std::string run_admission_workload(std::uint32_t shards, bool use_workers,
                                   net::AdmissionStats* stats_out = nullptr) {
  ShardPlaneConfig config;
  config.shards = shards;
  config.use_workers = use_workers;
  config.bus.shed_journal_limit = 4096;
  config.admission.enabled = true;
  config.admission.probing = true;
  config.admission.journal_limit = 4096;
  config.admission.probe.initial_concurrency = 4;
  config.admission.probe.min_concurrency = 2;
  config.admission.probe.max_concurrency = 8;
  config.admission.probe.interval = Duration::micros(200);
  config.admission.probe.lease = Duration::micros(50);
  constexpr int kStreams = 8;
  for (int i = 0; i < kStreams; ++i) {
    net::InboxConfig inbox;
    inbox.capacity = 4;
    inbox.policy = net::OverflowPolicy::kDropNewest;
    inbox.service_time = Duration::millis(1);
    config.bus.inboxes["c" + std::to_string(i)] = inbox;
  }
  ShardedDispatchPlane plane(config);
  for (int i = 0; i < kStreams; ++i) {
    const StreamId id{static_cast<core::SensorId>(i + 1), 0};
    const PlaneConsumerId consumer =
        plane.add_consumer("c" + std::to_string(i), [](std::uint32_t, const net::Envelope&) {});
    plane.subscribe(consumer, StreamPattern::exact(id));
  }
  for (core::SequenceNo seq = 0; seq < 64; ++seq) {
    for (int i = 0; i < kStreams; ++i) {
      plane.inject(make_message({static_cast<core::SensorId>(i + 1), 0}, seq));
    }
  }
  plane.run_until_idle();
  if (stats_out != nullptr) *stats_out = plane.admission()->stats();
  return plane.admission()->journal_text();
}

TEST(ShardPlaneAdmission, ProbeJournalIsByteIdenticalAcrossShardCounts) {
  net::AdmissionStats at1, at2, at8;
  const std::string j1 = run_admission_workload(1, false, &at1);
  const std::string j2 = run_admission_workload(2, false, &at2);
  const std::string j8 = run_admission_workload(8, false, &at8);

  ASSERT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(j1, j8);
  // Admission decisions — not just the journal rendering — are invariant.
  EXPECT_EQ(at1.data_admitted, at2.data_admitted);
  EXPECT_EQ(at1.data_admitted, at8.data_admitted);
  EXPECT_EQ(at1.data_rejected, at2.data_rejected);
  EXPECT_EQ(at1.data_rejected, at8.data_rejected);
  EXPECT_EQ(at1.probes, at8.probes);
  EXPECT_EQ(at1.resizes, at8.resizes);
  // The flood genuinely hit the door: tickets refused, pool resized.
  EXPECT_GT(at1.data_rejected, 0u);
  EXPECT_GT(at1.resizes, 0u);
}

TEST(ShardPlaneAdmission, SameSeedRunsAndExecutionModesMatch) {
  const std::string inline_a = run_admission_workload(4, false);
  const std::string inline_b = run_admission_workload(4, false);
  const std::string workers = run_admission_workload(4, true);
  ASSERT_FALSE(inline_a.empty());
  EXPECT_EQ(inline_a, inline_b);
  EXPECT_EQ(inline_a, workers);
}

TEST(ShardPlaneAdmission, ResizesKeepEveryShardCreditWindowInLockstep) {
  ShardPlaneConfig config;
  config.shards = 4;
  config.use_workers = false;
  config.flow.credit_window = 4;
  config.admission.enabled = true;
  config.admission.probing = true;
  config.admission.probe.initial_concurrency = 8;
  config.admission.probe.min_concurrency = 2;
  config.admission.probe.max_concurrency = 8;
  config.admission.probe.interval = Duration::micros(200);
  config.admission.probe.lease = Duration::micros(50);
  ShardedDispatchPlane plane(config);

  const PlaneConsumerId consumer =
      plane.add_consumer("sink", [](std::uint32_t, const net::Envelope&) {});
  plane.subscribe(consumer, StreamPattern::everything());
  for (core::SequenceNo seq = 0; seq < 64; ++seq) {
    for (core::SensorId sensor = 1; sensor <= 8; ++sensor) {
      plane.inject(make_message({sensor, 0}, seq));
    }
  }
  plane.run_until_idle();

  ASSERT_GT(plane.admission()->stats().resizes, 0u);
  const auto window = plane.admission()->data_pool_size();
  EXPECT_EQ(plane.admission()->derived_credit_window(), window);
  // A consumer registered after the run has no credit history: its
  // balance is each shard's current default window, which must track the
  // probed pool size on every shard, not just shard 0.
  const PlaneConsumerId fresh =
      plane.add_consumer("fresh", [](std::uint32_t, const net::Envelope&) {});
  for (std::uint32_t shard = 0; shard < plane.shard_count(); ++shard) {
    EXPECT_EQ(plane.dispatch(shard).credits(plane.consumer_address(fresh, shard)), window)
        << "shard " << shard << " credit window diverged from the admission pool";
  }
}

// --- telemetry --------------------------------------------------------------

TEST(ShardPlane, TelemetryExposesPerShardSeries) {
  obs::MetricsRegistry registry;
  ShardPlaneConfig config;
  config.shards = 2;
  config.use_workers = false;
  ShardedDispatchPlane plane(config);
  plane.set_metrics(registry);

  for (core::SensorId sensor = 1; sensor <= 8; ++sensor) {
    plane.inject(make_message({sensor, 0}, 0));
  }
  plane.run_until_idle();

  const auto snapshot = registry.snapshot();
  std::uint64_t routed = 0;
  for (std::uint32_t shard = 0; shard < plane.shard_count(); ++shard) {
    const obs::Labels labels{{"shard", std::to_string(shard)}};
    routed += snapshot.counter("garnet.shard.msgs", labels);
    ASSERT_NE(snapshot.find("garnet.shard.inbox_depth", labels), nullptr);
    ASSERT_NE(snapshot.find("garnet.shard.merge_lag", labels), nullptr);
  }
  EXPECT_EQ(routed, 8u);
}

// --- the worker pool produces the same plane as inline execution ------------

TEST(ShardPlane, WorkerExecutionMatchesInlineExecution) {
  const auto run = [](bool use_workers) {
    ShardPlaneConfig config;
    config.shards = 4;
    config.use_workers = use_workers;
    config.bus.shed_journal_limit = 4096;
    net::InboxConfig inbox;
    inbox.capacity = 4;
    inbox.policy = net::OverflowPolicy::kDropNewest;
    inbox.service_time = Duration::millis(1);
    for (int i = 0; i < 8; ++i) config.bus.inboxes["c" + std::to_string(i)] = inbox;
    ShardedDispatchPlane plane(config);
    for (int i = 0; i < 8; ++i) {
      const StreamId id{static_cast<core::SensorId>(i + 1), 0};
      const PlaneConsumerId c = plane.add_consumer("c" + std::to_string(i),
                                                   [](std::uint32_t, const net::Envelope&) {});
      plane.subscribe(c, StreamPattern::exact(id));
    }
    for (core::SequenceNo seq = 0; seq < 32; ++seq) {
      for (int i = 0; i < 8; ++i) {
        plane.inject(make_message({static_cast<core::SensorId>(i + 1), 0}, seq));
      }
    }
    plane.run_until_idle();
    return plane.merged_shed_journal() + "|" +
           std::to_string(plane.merged_dispatch_stats().copies_delivered) + "|" +
           std::to_string(plane.now().ns);
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace garnet
