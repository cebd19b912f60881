// Resilient archive: crash recovery + stream recording on the Runtime.
//
// The paper presumes "service-level parallelism and replication ... for
// efficiency, data-integrity, and fault-tolerance" (§3). This example
// runs a Runtime with crash recovery enabled and a fault plan that
// crash-stops the Filtering Service at t=10s with no restart, so the
// watchdog has to detect the dead service and promote it from its
// replicated checkpoint + op-log. It shows that:
//
//   * the detection window costs delay, not data: the copies heard
//     while filtering is down wait at its recovery door and run at
//     promotion,
//   * the exactly-once property survives the promotion (no duplicate
//     deliveries: the restored dedup state still recognises the copies
//     overlapping receivers keep hearing), and
//   * an archive recorded through the outage replays cleanly as a
//     derived stream afterwards.
#include <cstdio>
#include <set>

#include "core/recorder.hpp"
#include "garnet/runtime.hpp"

using namespace garnet;
using util::Duration;
using util::SimTime;

int main() {
  const SimTime crash_at = SimTime{} + Duration::seconds(10);

  Runtime::Config config;
  config.field.area = {{0, 0}, {400, 400}};
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  config.recovery.enabled = true;
  config.recovery.heartbeat_interval = Duration::millis(100);
  config.recovery.miss_threshold = 3;
  {
    net::FaultPlan::CrashSpec crash;
    crash.service = "filtering";
    crash.at = crash_at;
    config.bus.faults.crashes.push_back(crash);  // no restart: the watchdog promotes
  }
  Runtime runtime(config);
  runtime.deploy_receivers(4, 300);  // overlapping coverage: duplicate copies

  wireless::SensorField::PopulationSpec population;
  population.count = 4;
  population.interval_ms = 100;
  runtime.deploy_population(population);

  // --- archiving consumer ----------------------------------------------------
  core::Consumer archiver(runtime.bus(), "consumer.archiver");
  runtime.provision(archiver, "archiver");
  std::set<std::pair<std::uint32_t, core::SequenceNo>> seen;
  std::uint64_t duplicates = 0;
  archiver.set_data_handler([&](const core::DeliveryView& delivery) {
    if (!seen.insert({delivery.message.stream_id.packed(), delivery.message.sequence}).second) {
      ++duplicates;
    }
  });
  core::StreamRecorder recorder(archiver);
  archiver.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));

  // --- run, crash, keep running ----------------------------------------------
  runtime.start_sensors();
  runtime.scheduler().run_until(crash_at);
  const std::uint64_t before_crash = archiver.received();
  std::printf("10s of healthy operation: %llu messages archived\n",
              static_cast<unsigned long long>(before_crash));

  runtime.run_for(Duration::seconds(10));
  std::printf("filtering service crash-stopped at t=10s (no restart)\n");
  {
    const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
    std::printf("  detection latency: %.0fms, copies held in window: %llu, promotions: %llu\n",
                snap.gauge("garnet.recovery.latency_ns") / 1e6,
                static_cast<unsigned long long>(snap.counter(
                    "garnet.recovery.inputs_handed_back", {{"service", "filtering"}})),
                static_cast<unsigned long long>(snap.counter("garnet.recovery.promotions")));
  }
  std::printf("  messages after promotion: %llu (duplicates leaked: %llu)\n",
              static_cast<unsigned long long>(archiver.received() - before_crash),
              static_cast<unsigned long long>(duplicates));
  runtime.field().stop_all();
  runtime.run_for(Duration::seconds(1));

  // --- replay the archive ------------------------------------------------------
  const core::StreamId archive_stream = runtime.create_derived_stream("archive.replay", "replay");

  core::Consumer analyst(runtime.bus(), "consumer.analyst");
  runtime.provision(analyst, "analyst");
  std::uint64_t replayed = 0;
  analyst.set_data_handler([&](const core::DeliveryView&) { ++replayed; });
  analyst.subscribe(core::StreamPattern::exact(archive_stream));
  runtime.run_for(Duration::millis(20));

  const auto recording = std::move(recorder).take();
  core::replay_as_stream(runtime.scheduler(), recording, archiver, archive_stream,
                         /*speed=*/20.0);
  runtime.run_for(Duration::seconds(5));

  std::printf("archive of %zu messages (%.1fs span) replayed at 20x: analyst received %llu\n",
              recording.size(), recording.span().to_seconds(),
              static_cast<unsigned long long>(replayed));
  return duplicates == 0 && replayed == recording.size() ? 0 : 1;
}
