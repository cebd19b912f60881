// Crash-recovery acceptance suite: scheduled process crashes from the
// FaultPlan kill the stateful services mid-stream and the recovery
// harness brings them back from checkpoint + op-log replay.
//
//   * Crashing the dispatcher mid-flood with overload control active:
//     the promoted service resumes credit windows, takes back the
//     frames the runtime held, never double-delivers, and the shed journal
//     still contains no control-plane sheds.
//   * A seeded plan crashing and restarting each stateful service
//     (filtering, dispatch, location, catalog) completes with zero
//     duplicate deliveries and all four services recovered.
//   * Two runs from the same seed produce byte-identical fault and
//     shed journals and identical recovery telemetry.
//   * Ablation A3 as a regression test: filtering is crash-stopped with
//     no restart, the watchdog promotes it, and late radio copies of
//     frames delivered before the crash are recognised by the promoted
//     filter instead of leaking as duplicates.
//   * Dispatch crash windows: every frame that arrives while dispatch
//     is down reaches its subscribers exactly once after promotion,
//     however long the window, whether or not its stream was known
//     before the crash; under flow control, a frame the hand-back burst
//     pushes out of the Orphanage's retention is counted missing; and a
//     subscription made just after a checkpoint survives a crash
//     preceded by heavy traffic.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "garnet/runtime.hpp"
#include "obs/metrics.hpp"

namespace garnet {
namespace {

using util::Duration;
using util::SimTime;

/// Counts deliveries per (stream, sequence); the suite's core invariant
/// is that no pair is ever seen twice.
struct DeliveryLedger {
  std::map<std::pair<std::uint32_t, core::SequenceNo>, int> counts;

  void attach(core::Consumer& consumer) {
    consumer.set_data_handler([this](const core::DeliveryView& d) {
      ++counts[{d.message.stream_id.packed(), d.message.sequence}];
    });
  }

  [[nodiscard]] int max_count() const {
    int most = 0;
    for (const auto& [key, count] : counts) most = std::max(most, count);
    return most;
  }
  [[nodiscard]] std::size_t distinct() const { return counts.size(); }
};

wireless::ReceptionReport make_report(core::SequenceNo seq, SimTime now,
                                      wireless::ReceiverId receiver = 1) {
  core::DataMessage msg;
  msg.stream_id = {1, 0};
  msg.sequence = seq;
  msg.payload = util::to_bytes("flood");
  return {receiver, -40.0, now, core::encode(msg)};
}

TEST(CrashRecovery, DispatchCrashMidFloodKeepsOverloadAndDeliveryInvariants) {
  // Satellite scenario: the dispatcher dies under load while a straggler
  // is forcing data sheds. The watchdog must promote it, the runtime
  // must hand back the crash-window messages, credit flow must resume — and the
  // overload layer's contract (control-plane never shed) must hold
  // across the promotion.
  Runtime::Config config;
  config.flow.credit_window = 32;
  config.bus.shed_journal_limit = 1 << 14;
  {
    net::InboxConfig fast;
    fast.capacity = 64;
    fast.policy = net::OverflowPolicy::kDropOldest;
    fast.service_time = Duration::micros(20);
    config.bus.inboxes["consumer.fast"] = fast;
    net::InboxConfig slow = fast;
    slow.capacity = 8;
    slow.service_time = Duration::millis(2);
    config.bus.inboxes["consumer.slow"] = slow;
  }
  config.recovery.enabled = true;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "dispatch";
    crash.at = SimTime{} + Duration::millis(520);
    config.bus.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);
  ASSERT_NE(runtime.recovery(), nullptr);

  core::Consumer fast(runtime.bus(), "consumer.fast");
  runtime.provision(fast, "fast");
  fast.subscribe(core::StreamPattern::everything());
  core::Consumer slow(runtime.bus(), "consumer.slow");
  runtime.provision(slow, "slow");
  slow.subscribe(core::StreamPattern::everything());
  DeliveryLedger ledger;
  ledger.attach(fast);
  runtime.run_for(Duration::millis(20));

  // 1ms flood cadence through the filtering service (the real ingest
  // path, so the runtime's crash redirects apply).
  sim::Scheduler& scheduler = runtime.scheduler();
  const SimTime flood_end = scheduler.now() + Duration::millis(1500);
  core::SequenceNo next_seq = 0;
  std::function<void()> inject = [&] {
    runtime.filtering().ingest(make_report(next_seq++, scheduler.now()));
    if (scheduler.now() < flood_end) scheduler.schedule_after(Duration::millis(1), inject);
  };
  inject();

  // Run until just before the crash: deliveries are flowing.
  runtime.run_for(Duration::millis(480));
  const std::size_t before_crash = ledger.distinct();
  EXPECT_GT(before_crash, 0u);

  // Through the crash, the detection window, and the promotion.
  runtime.run_for(Duration::seconds(2));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.crashes"), 1u);
  EXPECT_EQ(snap.counter("garnet.recovery.promotions"), 1u);
  EXPECT_EQ(runtime.recovery()->stats().crashes, 1u);
  EXPECT_FALSE(runtime.recovery()->crashed("dispatch"));

  // Crash-window traffic was held by the runtime and handed back.
  EXPECT_GT(snap.counter("garnet.dispatch.recovery_replayed"), 0u);

  // Credit flow resumed: the healthy consumer kept receiving after the
  // promotion, well past what it had at crash time.
  EXPECT_GT(ledger.distinct(), before_crash);

  // No (stream, seq) was ever delivered twice, through the hand-back and
  // credit re-priming included.
  EXPECT_EQ(ledger.max_count(), 1);

  // The overload contract held across the promotion: the straggler
  // forced data sheds, control traffic was never shed.
  EXPECT_GT(runtime.bus().shed_stats().data_total(), 0u);
  EXPECT_EQ(runtime.bus().shed_stats().control_total(), 0u);
}

/// One full deterministic chaos run for the acceptance scenario: all
/// four stateful services crash and restart mid-stream on a schedule.
struct ChaosOutcome {
  std::string fault_journal;
  std::string shed_journal;
  std::vector<std::uint64_t> counters;
  int max_delivery_count = 0;
  std::size_t distinct_deliveries = 0;
  double crashed_at_end = 0;
};

ChaosOutcome run_all_services_chaos(std::uint64_t seed) {
  Runtime::Config config;
  config.field.seed = seed;
  config.bus.faults.seed = 0xD15EA5E;
  config.bus.faults.journal_limit = 1 << 14;
  config.bus.shed_journal_limit = 1 << 14;
  config.recovery.enabled = true;
  const auto schedule_crash = [&](const char* service, std::int64_t at_ms) {
    net::FaultPlan::CrashSpec crash;
    crash.service = service;
    crash.at = SimTime{} + Duration::millis(at_ms);
    crash.restart_after = Duration::millis(180);  // rejoin before the watchdog
    config.bus.faults.crashes.push_back(crash);
  };
  schedule_crash("filtering", 330);
  schedule_crash("dispatch", 730);
  schedule_crash("location", 1130);
  schedule_crash("catalog", 1530);

  Runtime runtime(config);
  runtime.deploy_receivers(4, 400);
  runtime.deploy_transmitters(1, 900);
  wireless::SensorField::PopulationSpec population;
  population.count = 3;
  population.interval_ms = 100;
  runtime.deploy_population(population);

  core::Consumer consumer(runtime.bus(), "consumer.chaos");
  runtime.provision(consumer, "chaos");
  consumer.subscribe(core::StreamPattern::everything());
  DeliveryLedger ledger;
  ledger.attach(consumer);

  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::millis(2500));

  ChaosOutcome outcome;
  outcome.fault_journal = runtime.bus().fault_injector()->journal_text();
  outcome.shed_journal = runtime.bus().shed_journal_text();
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  for (const char* name :
       {"garnet.recovery.crashes", "garnet.recovery.promotions", "garnet.recovery.rejoins",
        "garnet.recovery.ops_logged", "garnet.recovery.ops_replicated",
        "garnet.recovery.ops_replayed", "garnet.checkpoint.taken", "garnet.checkpoint.stored",
        "garnet.checkpoint.rejected", "garnet.recovery.inputs_lost", "garnet.bus.posted",
        "garnet.bus.delivered", "garnet.bus.dropped_endpoint_down",
        "garnet.dispatch.recovery_replayed", "garnet.filtering.messages_out"}) {
    outcome.counters.push_back(snap.counter(name));
  }
  for (const char* kind : {"crash", "restart"}) {
    outcome.counters.push_back(snap.counter("garnet.bus.faults", {{"kind", kind}}));
  }
  outcome.max_delivery_count = ledger.max_count();
  outcome.distinct_deliveries = ledger.distinct();
  outcome.crashed_at_end = snap.gauge("garnet.recovery.crashed");
  return outcome;
}

TEST(CrashRecovery, EveryStatefulServiceCrashesAndRecoversWithoutDuplicates) {
  const ChaosOutcome outcome = run_all_services_chaos(0x5EED);

  // All four crashes fired and every service came back (scheduled
  // restarts land inside the watchdog window, so they count as rejoins).
  EXPECT_EQ(outcome.counters[0], 4u);  // garnet.recovery.crashes
  EXPECT_EQ(outcome.counters[1] + outcome.counters[2], 4u);  // promotions + rejoins
  EXPECT_EQ(outcome.crashed_at_end, 0.0);  // nobody left dead

  // The injector journalled each crash and restart like any other fault.
  EXPECT_NE(outcome.fault_journal.find("crash"), std::string::npos);
  EXPECT_NE(outcome.fault_journal.find("restart"), std::string::npos);

  // The stream kept flowing across all four outages...
  EXPECT_GT(outcome.distinct_deliveries, 0u);
  // ...and no (stream, seq) pair was ever delivered twice: restored
  // dedup windows and sequence cursors close the duplicate leak.
  EXPECT_EQ(outcome.max_delivery_count, 1);
}

TEST(CrashRecovery, SameSeedRunsAreByteIdentical) {
  const ChaosOutcome first = run_all_services_chaos(0x5EED);
  const ChaosOutcome second = run_all_services_chaos(0x5EED);

  // Crash events are pure time triggers: they consume no rng draws, so
  // the whole fault journal — link faults and crash/restart records
  // interleaved — replays byte-for-byte, as does the shed journal and
  // every recovery counter.
  EXPECT_EQ(first.fault_journal, second.fault_journal);
  EXPECT_FALSE(first.fault_journal.empty());
  EXPECT_EQ(first.shed_journal, second.shed_journal);
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.distinct_deliveries, second.distinct_deliveries);
  EXPECT_EQ(first.max_delivery_count, second.max_delivery_count);
}

TEST(CrashRecovery, RestartBeforeDetectionRejoinsWithoutPromotion) {
  // A crash healed by its scheduled restart inside the watchdog window
  // must come back as a rejoin; the watchdog never fires for it.
  Runtime::Config config;
  config.recovery.enabled = true;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = SimTime{} + Duration::millis(200);
    crash.restart_after = Duration::millis(150);
    config.bus.faults.crashes.push_back(crash);
  }
  Runtime runtime(config);
  runtime.run_for(Duration::seconds(1));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.crashes"), 1u);
  EXPECT_EQ(snap.counter("garnet.recovery.rejoins"), 1u);
  EXPECT_EQ(snap.counter("garnet.recovery.promotions"), 0u);
  EXPECT_FALSE(runtime.recovery()->crashed("filtering"));
}

TEST(CrashRecovery, FilteringCrashWindowInputsAreAccounted) {
  // Reception reports arriving while filtering is dead die with the
  // process; the runtime books them as lost inputs instead of silently
  // discarding them.
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;  // every uplink frame is heard
  config.field.radio.edge_loss = 0.0;
  config.recovery.enabled = true;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = SimTime{} + Duration::millis(100);
    crash.restart_after = Duration::millis(200);
    config.bus.faults.crashes.push_back(crash);
  }
  Runtime runtime(config);
  runtime.deploy_receivers(1, 5000);  // one receiver covering the field
  runtime.run_for(Duration::millis(150));  // inside the crash window
  ASSERT_TRUE(runtime.recovery()->crashed("filtering"));

  core::DataMessage msg;
  msg.stream_id = {1, 0};
  msg.sequence = 0;
  msg.payload = util::to_bytes("lost");
  runtime.field().medium().uplink({500, 500}, core::encode(msg), 1);
  msg.sequence = 1;
  runtime.field().medium().uplink({500, 500}, core::encode(msg), 1);

  runtime.run_for(Duration::seconds(1));
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.inputs_lost"), 2u);
  EXPECT_EQ(snap.counter("garnet.recovery.service_inputs_lost", {{"service", "filtering"}}), 2u);
  EXPECT_FALSE(runtime.recovery()->crashed("filtering"));
}

TEST(CrashRecovery, PromotedFilteringRecognisesLateCopiesOfPreCrashFrames) {
  // Filtering dies with no restart scheduled; the watchdog must promote
  // it from checkpoint + op-log. Late copies of frames it delivered
  // before dying (a slow relay path) then reach the promoted filter,
  // which must recognise them from its restored dedup state.
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;  // every uplink copy is heard
  config.field.radio.edge_loss = 0.0;
  config.recovery.enabled = true;
  config.recovery.heartbeat_interval = Duration::millis(100);
  config.recovery.miss_threshold = 3;
  const SimTime crash_at = SimTime{} + Duration::seconds(2);
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = crash_at;
    config.bus.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);
  runtime.deploy_receivers(1, 5000);  // one receiver covering the field
  core::Consumer consumer(runtime.bus(), "consumer.ledger");
  runtime.provision(consumer, "ledger");
  consumer.subscribe(core::StreamPattern::everything());
  DeliveryLedger ledger;
  ledger.attach(consumer);
  runtime.run_for(Duration::millis(20));

  std::vector<util::Bytes> frames;
  for (core::SequenceNo seq = 0; seq < 60; ++seq) {
    core::DataMessage msg;
    msg.stream_id = {1, 0};
    msg.sequence = seq;
    msg.payload = util::to_bytes("a3");
    frames.push_back(core::encode(msg));
  }
  wireless::RadioMedium& radio = runtime.field().medium();
  const auto send = [&](core::SequenceNo first, core::SequenceNo last) {
    for (core::SequenceNo seq = first; seq < last; ++seq) {
      radio.uplink({500, 500}, frames[seq]);
      runtime.run_for(Duration::millis(10));
    }
  };

  // Healthy phase: frames 0..39 delivered once each. The watchdog has
  // been beating for almost two seconds without a false promotion.
  send(0, 40);
  runtime.scheduler().run_until(crash_at - Duration::millis(1));
  EXPECT_EQ(ledger.distinct(), 40u);
  EXPECT_EQ(runtime.telemetry().registry.snapshot().counter("garnet.recovery.promotions"), 0u);

  // Detection window: filtering is down, the watchdog has not fired yet.
  // New frames 40..49 die with the process and are booked as lost.
  runtime.scheduler().run_until(crash_at + Duration::millis(1));
  ASSERT_TRUE(runtime.recovery()->crashed("filtering"));
  send(40, 50);
  ASSERT_TRUE(runtime.recovery()->crashed("filtering"));

  // Promotion, then the late copies of every pre-crash frame arrive,
  // followed by fresh traffic and the late copies of the lost frames.
  runtime.run_for(Duration::millis(500));
  ASSERT_FALSE(runtime.recovery()->crashed("filtering"));
  const core::FilteringStats at_promotion = runtime.filtering().stats();
  send(0, 40);
  const core::FilteringStats after_late = runtime.filtering().stats();
  send(50, 60);
  send(40, 50);
  runtime.run_for(Duration::millis(100));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  EXPECT_EQ(snap.counter("garnet.recovery.promotions"), 1u);
  EXPECT_EQ(snap.counter("garnet.recovery.rejoins"), 0u);
  // Every copy sent while filtering was down shows up as a lost input.
  EXPECT_EQ(snap.counter("garnet.recovery.service_inputs_lost", {{"service", "filtering"}}), 10u);
  // All 40 late copies were recognised as duplicate or stale...
  EXPECT_EQ((after_late.duplicates_dropped + after_late.stale_dropped) -
                (at_promotion.duplicates_dropped + at_promotion.stale_dropped),
            40u);
  EXPECT_EQ(after_late.messages_out, at_promotion.messages_out);
  // ...so every (stream, seq) reached the consumer exactly once: the
  // pre-crash frames, the fresh ones, and the lost frames recovered
  // through their late copies.
  EXPECT_EQ(ledger.distinct(), 60u);
  EXPECT_EQ(ledger.max_count(), 1);
}

TEST(CrashRecovery, LongDispatchCrashWindowDeliversEverySequenceOnce) {
  // One stream at 1ms cadence; dispatch dies at 520ms and the watchdog
  // promotes it ~280ms later. Every frame that arrived in between must
  // reach the subscriber after promotion: none may be lost to a bounded
  // per-stream retention, none delivered twice.
  Runtime::Config config;
  config.recovery.enabled = true;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "dispatch";
    crash.at = SimTime{} + Duration::millis(520);
    config.bus.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);
  core::Consumer consumer(runtime.bus(), "consumer.window");
  runtime.provision(consumer, "window");
  consumer.subscribe(core::StreamPattern::everything());
  DeliveryLedger ledger;
  ledger.attach(consumer);
  runtime.run_for(Duration::millis(20));

  sim::Scheduler& scheduler = runtime.scheduler();
  const SimTime flood_end = scheduler.now() + Duration::millis(1500);
  core::SequenceNo next_seq = 0;
  std::function<void()> inject = [&] {
    runtime.filtering().ingest(make_report(next_seq++, scheduler.now()));
    if (scheduler.now() < flood_end) scheduler.schedule_after(Duration::millis(1), inject);
  };
  inject();
  runtime.run_for(Duration::seconds(3));

  ASSERT_EQ(runtime.telemetry().registry.snapshot().counter("garnet.recovery.promotions"), 1u);
  ASSERT_EQ(next_seq, 1501);
  EXPECT_EQ(ledger.distinct(), 1501u);
  EXPECT_EQ(ledger.max_count(), 1);
}

TEST(CrashRecovery, LongDispatchCrashWindowUnderFlowControlAccountsEverySequence) {
  // The same window with a 64-credit flow window: the hand-back of ~280
  // held frames spends the window at once and quarantines the consumer,
  // and the Orphanage keeps only 64 of the shed copies per stream. Each
  // sequence is then delivered once or counted missing by the resume,
  // never both, never twice, never neither.
  Runtime::Config config;
  config.recovery.enabled = true;
  config.flow.credit_window = 64;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "dispatch";
    crash.at = SimTime{} + Duration::millis(520);
    config.bus.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);
  core::Consumer consumer(runtime.bus(), "consumer.window");
  runtime.provision(consumer, "window");
  consumer.subscribe(core::StreamPattern::everything());
  DeliveryLedger ledger;
  ledger.attach(consumer);
  runtime.run_for(Duration::millis(20));

  sim::Scheduler& scheduler = runtime.scheduler();
  const SimTime flood_end = scheduler.now() + Duration::millis(1500);
  core::SequenceNo next_seq = 0;
  std::function<void()> inject = [&] {
    runtime.filtering().ingest(make_report(next_seq++, scheduler.now()));
    if (scheduler.now() < flood_end) scheduler.schedule_after(Duration::millis(1), inject);
  };
  inject();
  runtime.run_for(Duration::seconds(3));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  ASSERT_EQ(snap.counter("garnet.recovery.promotions"), 1u);
  ASSERT_EQ(next_seq, 1501);
  EXPECT_FALSE(runtime.dispatch().quarantined(consumer.address()));
  EXPECT_EQ(ledger.max_count(), 1);
  const std::uint64_t missing = snap.counter("garnet.dispatch.resume_missing");
  EXPECT_GT(missing, 0u);  // the burst did overflow the stash
  EXPECT_EQ(snap.counter("garnet.dispatch.resume_unreachable"), 0u);
  EXPECT_EQ(ledger.distinct() + missing, 1501u);
}

TEST(CrashRecovery, StreamFirstSeenDuringDispatchCrashReachesWildcardSubscriber) {
  // A stream dispatch has never seen before it crashed: its first five
  // frames arrive while dispatch is down. After promotion they must reach
  // the everything() subscriber like any other crash-window frame.
  Runtime::Config config;
  config.recovery.enabled = true;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "dispatch";
    crash.at = SimTime{} + Duration::millis(300);
    config.bus.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);
  core::Consumer consumer(runtime.bus(), "consumer.wild");
  runtime.provision(consumer, "wild");
  consumer.subscribe(core::StreamPattern::everything());
  DeliveryLedger ledger;
  ledger.attach(consumer);
  runtime.run_for(Duration::millis(310));
  ASSERT_TRUE(runtime.recovery()->crashed("dispatch"));

  core::DataMessage msg;
  msg.stream_id = {7, 0};
  msg.payload = util::to_bytes("new");
  for (core::SequenceNo seq = 0; seq < 5; ++seq) {
    msg.sequence = seq;
    runtime.inject_external(core::as_view(msg));
    runtime.run_for(Duration::millis(10));
  }
  ASSERT_TRUE(runtime.recovery()->crashed("dispatch"));
  runtime.run_for(Duration::seconds(1));

  ASSERT_FALSE(runtime.recovery()->crashed("dispatch"));
  EXPECT_EQ(ledger.distinct(), 5u);
  EXPECT_EQ(ledger.max_count(), 1);
}

TEST(CrashRecovery, SubscriptionAfterCheckpointSurvivesTrafficBeforeCrash) {
  // Default 250ms checkpoint cadence. A subscription made 5ms after the
  // first checkpoint lives only in the op log; 4200 messages at 20k
  // msg/s then pass through dispatch before it crashes, ahead of the
  // next checkpoint. The promoted dispatcher must still hold the
  // subscription: per-message traffic must not push control records
  // out of the bounded log.
  Runtime::Config config;
  config.recovery.enabled = true;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "dispatch";
    crash.at = SimTime{} + Duration::millis(475);
    config.bus.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);
  core::Consumer consumer(runtime.bus(), "consumer.late");
  runtime.provision(consumer, "late");
  DeliveryLedger ledger;
  ledger.attach(consumer);
  runtime.run_for(Duration::millis(255));
  ASSERT_EQ(runtime.telemetry().registry.snapshot().counter("garnet.checkpoint.stored"), 4u);
  consumer.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(5));
  ASSERT_EQ(runtime.dispatch().subscriptions().size(), 1u);

  core::DataMessage msg;
  msg.stream_id = {1, 0};
  msg.payload = util::to_bytes("load");
  constexpr core::SequenceNo kLoad = 4200;
  for (core::SequenceNo seq = 0; seq < kLoad; ++seq) {
    msg.sequence = seq;
    runtime.inject_external(core::as_view(msg));
    runtime.run_for(Duration::micros(50));
  }
  runtime.run_for(Duration::millis(10));
  EXPECT_EQ(ledger.distinct(), kLoad);
  ASSERT_TRUE(runtime.recovery()->crashed("dispatch"));

  runtime.run_for(Duration::millis(500));
  ASSERT_FALSE(runtime.recovery()->crashed("dispatch"));
  EXPECT_EQ(runtime.dispatch().subscriptions().size(), 1u);

  // The restored subscription still routes fresh traffic.
  msg.sequence = kLoad;
  runtime.inject_external(core::as_view(msg));
  runtime.run_for(Duration::millis(10));
  EXPECT_EQ(ledger.distinct(), kLoad + 1u);
  EXPECT_EQ(ledger.max_count(), 1);
}

}  // namespace
}  // namespace garnet
