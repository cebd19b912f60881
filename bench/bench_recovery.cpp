// Experiment A6 — crash recovery: checkpoint cadence vs detection
// threshold — and ablation A3, a Filtering Service crash against
// straddling radio copies.
//
// A6 sweeps the checkpoint interval (how much op-log tail a promotion
// must replay) against the watchdog miss threshold (how long a dead
// service stays undetected) and reports the recovery cost: crash-to-
// restored latency, replayed ops, stash-replayed deliveries — and the
// invariant the whole subsystem exists for, duplicates after promotion,
// which must be zero in every cell.
//
// A3 (paper §3's presumed "service-level ... replication ... for
// efficiency, data-integrity, and fault-tolerance") crash-stops the
// Filtering Service under a 100 Hz stream whose every frame is heard a
// second time 2s late, and sweeps the watchdog heartbeat. It reports
// the detection window, the copies lost in it, duplicates leaked to the
// consumer, and the late copies the promoted filter recognised.
//
// The canonical A6 cell's full telemetry snapshot, plus the A3 100ms
// cell's headline gauges, is persisted to BENCH_recovery.json;
// scripts/ci.sh gates on it via scripts/check_recovery_report.py.
#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "bench/common.hpp"
#include "garnet/runtime.hpp"
#include "obs/export.hpp"

namespace garnet::bench {
namespace {

using util::Duration;
using util::SimTime;

struct RecoveryOutcome {
  double latency_ms = 0;
  double ops_replayed = 0;
  double stash_replayed = 0;
  double duplicates_after_promotion = 0;
  double checkpoints_taken = 0;
  double messages_offered = 0;
  double messages_delivered = 0;
};

struct FilteringCrashOutcome {
  double detection_ms = 0;
  double copies_lost = 0;
  double duplicates_leaked = 0;
  double late_copies_deduped = 0;
  double delivered = 0;
};

/// Ablation A3: 20 virtual seconds of a 100 Hz stream over a lossless
/// radio, with the Filtering Service crash-stopped at t=10s and never
/// restarted, so the watchdog must detect and promote it. Every frame
/// is transmitted twice, the second time 2s late (a slow relay path):
/// late copies of frames delivered before the crash reach the promoted
/// filter and probe the dedup state it restored from checkpoint +
/// op-log. Traffic enters through the radio, so the runtime's crash
/// gate on the uplink sink applies.
FilteringCrashOutcome run_filtering_crash(std::int64_t heartbeat_ms) {
  const SimTime crash_at = SimTime{} + Duration::seconds(10);
  const Duration late = Duration::seconds(2);
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  config.recovery.enabled = true;
  config.recovery.heartbeat_interval = Duration::millis(heartbeat_ms);
  config.recovery.miss_threshold = 3;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = crash_at;
    config.bus.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);
  runtime.deploy_receivers(1, 5000);  // one receiver covering the field

  FilteringCrashOutcome outcome;
  core::Consumer consumer(runtime.bus(), "consumer.a3");
  runtime.provision(consumer, "a3");
  consumer.subscribe(core::StreamPattern::everything());
  std::set<std::pair<std::uint32_t, core::SequenceNo>> delivered;
  consumer.set_data_handler([&](const core::DeliveryView& d) {
    if (!delivered.insert({d.message.stream_id.packed(), d.message.sequence}).second) {
      outcome.duplicates_leaked += 1;
    }
  });
  runtime.run_for(Duration::millis(20));

  sim::Scheduler& scheduler = runtime.scheduler();
  wireless::RadioMedium& radio = runtime.field().medium();
  const SimTime start = scheduler.now();
  for (int i = 0; i < 2000; ++i) {  // 100 Hz for 20 s
    core::DataMessage msg;
    msg.stream_id = {1, 0};
    msg.sequence = static_cast<core::SequenceNo>(i);
    msg.payload = util::Bytes(16);
    const util::Bytes frame = core::encode(msg);
    const SimTime at = start + Duration::millis(10 * i);
    scheduler.schedule_at(at, [&radio, frame] { radio.uplink({500, 500}, frame); });
    scheduler.schedule_at(at + late, [&radio, frame] { radio.uplink({500, 500}, frame); });
  }

  // Late copies the promoted filter recognised: duplicate/stale drops
  // between the crash (filtering ingests nothing until promotion) and
  // the moment the last straddling copy has landed (2s + the radio's
  // 4.5ms worst-case hop). Later drops are steady-state duplicates of
  // post-promotion frames, which say nothing about the restored state.
  const auto dedup_drops = [&runtime] {
    const core::FilteringStats& stats = runtime.filtering().stats();
    return static_cast<double>(stats.duplicates_dropped + stats.stale_dropped);
  };
  double drops_at_crash = 0;
  scheduler.schedule_at(crash_at, [&] { drops_at_crash = dedup_drops(); });
  scheduler.schedule_at(crash_at + late + Duration::millis(10),
                        [&] { outcome.late_copies_deduped = dedup_drops() - drops_at_crash; });
  runtime.run_for(Duration::seconds(25));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  outcome.detection_ms = snap.gauge("garnet.recovery.latency_ns") / 1e6;
  outcome.copies_lost = static_cast<double>(
      snap.counter("garnet.recovery.service_inputs_lost", {{"service", "filtering"}}));
  outcome.delivered = static_cast<double>(delivered.size());
  return outcome;
}

/// One crash cycle: a 1ms-cadence stream through the filtering service,
/// the dispatcher crash-stopped mid-stream by the fault plan, and the
/// watchdog left to detect and promote it. When `json_out` is set, the
/// full telemetry snapshot (plus the headline bench.recovery.* gauges,
/// A3's 100ms cell included) is rendered before teardown.
RecoveryOutcome run_crash_cycle(std::int64_t checkpoint_ms, std::uint32_t miss_threshold,
                                std::string* json_out = nullptr) {
  Runtime::Config config;
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval = Duration::millis(checkpoint_ms);
  config.recovery.heartbeat_interval = Duration::millis(100);
  config.recovery.miss_threshold = miss_threshold;
  config.flow.credit_window = 64;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "dispatch";
    crash.at = SimTime{} + Duration::millis(520);
    config.bus.faults.crashes.push_back(crash);  // no restart: watchdog promotes
  }
  Runtime runtime(config);

  core::Consumer consumer(runtime.bus(), "consumer.watch");
  runtime.provision(consumer, "watch");
  consumer.subscribe(core::StreamPattern::everything());
  std::map<std::pair<std::uint32_t, core::SequenceNo>, int> counts;
  consumer.set_data_handler([&](const core::DeliveryView& d) {
    ++counts[{d.message.stream_id.packed(), d.message.sequence}];
  });
  runtime.run_for(Duration::millis(20));

  RecoveryOutcome outcome;
  sim::Scheduler& scheduler = runtime.scheduler();
  const SimTime flood_end = scheduler.now() + Duration::millis(1500);
  core::SequenceNo next_seq = 0;
  std::function<void()> inject = [&] {
    core::DataMessage msg;
    msg.stream_id = {1, 0};
    msg.sequence = next_seq++;
    msg.payload = util::Bytes(24);
    runtime.filtering().ingest(
        wireless::ReceptionReport{1, -40.0, scheduler.now(), core::encode(msg)});
    outcome.messages_offered += 1;
    if (scheduler.now() < flood_end) scheduler.schedule_after(Duration::millis(1), inject);
  };
  inject();
  runtime.run_for(Duration::seconds(3));  // flood + crash + promotion + drain

  for (const auto& [key, count] : counts) {
    outcome.messages_delivered += 1;
    if (count > 1) outcome.duplicates_after_promotion += count - 1;
  }
  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  outcome.latency_ms = snap.gauge("garnet.recovery.latency_ns") / 1e6;
  outcome.ops_replayed = static_cast<double>(snap.counter("garnet.recovery.ops_replayed"));
  outcome.stash_replayed =
      static_cast<double>(snap.counter("garnet.dispatch.recovery_replayed"));
  outcome.checkpoints_taken = static_cast<double>(snap.counter("garnet.checkpoint.taken"));

  if (json_out != nullptr) {
    // A3's canonical cell (100ms heartbeat) rides along in the report so
    // the CI gate covers the filtering promotion too.
    const FilteringCrashOutcome a3 = run_filtering_crash(100);
    obs::MetricsRegistry& registry = runtime.telemetry().registry;
    registry.add_collector([&outcome, a3](obs::SnapshotBuilder& out) {
      out.gauge("bench.recovery.latency_ms", outcome.latency_ms);
      out.gauge("bench.recovery.duplicates_after_promotion",
                outcome.duplicates_after_promotion);
      out.gauge("bench.recovery.messages_offered", outcome.messages_offered);
      out.gauge("bench.recovery.messages_delivered", outcome.messages_delivered);
      out.gauge("bench.recovery.filtering_detection_ms", a3.detection_ms);
      out.gauge("bench.recovery.filtering_copies_lost", a3.copies_lost);
      out.gauge("bench.recovery.filtering_duplicates_leaked", a3.duplicates_leaked);
      out.gauge("bench.recovery.filtering_late_copies_deduped", a3.late_copies_deduped);
    });
    *json_out = obs::render_json(registry.snapshot());
  }
  return outcome;
}

/// Args: checkpoint interval (ms) — shorter means less tail to replay;
/// watchdog miss threshold (beats of 100ms) — smaller detects faster.
void BM_CrashRecovery(benchmark::State& state) {
  const auto checkpoint_ms = state.range(0);
  const auto miss_threshold = static_cast<std::uint32_t>(state.range(1));

  RecoveryOutcome outcome;
  for (auto _ : state) {
    outcome = run_crash_cycle(checkpoint_ms, miss_threshold);
    benchmark::DoNotOptimize(&outcome);
  }
  state.counters["recovery_latency_ms"] = outcome.latency_ms;
  state.counters["ops_replayed"] = outcome.ops_replayed;
  state.counters["stash_replayed"] = outcome.stash_replayed;
  state.counters["duplicates"] = outcome.duplicates_after_promotion;
  state.counters["checkpoints"] = outcome.checkpoints_taken;
  state.counters["delivered"] = outcome.messages_delivered;

  // Machine-readable exposition for the canonical cell (the defaults:
  // 250ms cadence, 3-miss detection). scripts/ci.sh asserts zero
  // post-promotion duplicates and full recovery on it.
  if (checkpoint_ms == 250 && miss_threshold == 3) {
    std::string json;
    run_crash_cycle(checkpoint_ms, miss_threshold, &json);
    write_bench_report("recovery", json);
  }
}
BENCHMARK(BM_CrashRecovery)
    ->ArgsProduct({{100, 250, 500}, {2, 3, 5}})
    ->ArgNames({"ckpt_ms", "miss_thresh"})
    ->Unit(benchmark::kMillisecond);

/// Args: watchdog heartbeat interval (ms), at a 3-miss threshold.
void BM_FilteringCrash(benchmark::State& state) {
  const auto heartbeat_ms = state.range(0);

  FilteringCrashOutcome outcome;
  for (auto _ : state) {
    outcome = run_filtering_crash(heartbeat_ms);
    benchmark::DoNotOptimize(&outcome);
  }
  state.counters["detection_ms"] = outcome.detection_ms;
  state.counters["copies_lost"] = outcome.copies_lost;
  state.counters["duplicates_leaked"] = outcome.duplicates_leaked;
  state.counters["late_copies_deduped"] = outcome.late_copies_deduped;
  state.counters["delivered"] = outcome.delivered;
}
BENCHMARK(BM_FilteringCrash)
    ->Arg(20)
    ->Arg(100)
    ->Arg(500)
    ->ArgName("heartbeat_ms")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
