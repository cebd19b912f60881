// Experiment E6 — stream sharing vs per-consumer coupling (the Fjords
// comparison, paper §7: sensor proxies "permit a set of queries to
// operate over the same sensor stream, and show that the sharing resulted
// in significant improvements").
//
// Two architectures deliver the same workload — N consumers all wanting
// every sample from a field of sensors:
//
//   garnet  — each sensor transmits each sample ONCE over the radio; the
//             Dispatching Service fans out copies on the fixed network.
//   coupled — the CORIE/close-coupling strawman: every consumer is served
//             by its own dedicated sensor stream, so each sample is
//             transmitted N times over the radio.
//
// Radio transmission is the scarce, battery-funded resource; fixed-network
// copies are cheap. Reported counters: radio frames and radio bytes per
// delivered sample, fixed-net envelopes per delivered sample, and sensor
// energy spent. Expected shape: garnet's radio cost is flat in N, the
// coupled baseline's grows linearly, crossing over immediately at N=2.
#include <benchmark/benchmark.h>

#include "garnet/runtime.hpp"

namespace garnet::bench {
namespace {

using util::Duration;

struct SharingOutcome {
  double radio_frames_per_delivery = 0;
  double radio_bytes_per_delivery = 0;
  double fixed_msgs_per_delivery = 0;
  double energy_joules = 0;
};

constexpr std::size_t kSensors = 4;
constexpr double kInitialBattery = 50.0;

Runtime::Config field_config(std::uint64_t seed) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {400, 400}};
  config.field.seed = seed;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  return config;
}

void deploy_sensors(Runtime& runtime, std::size_t streams_per_sensor) {
  for (core::SensorId id = 1; id <= kSensors; ++id) {
    wireless::SensorNode::Config config;
    config.id = id;
    config.battery_joules = kInitialBattery;
    // One internal stream per logical subscription the sensor must feed.
    for (std::size_t s = 0; s < streams_per_sensor; ++s) {
      wireless::StreamSpec spec;
      spec.id = static_cast<core::InternalStreamId>(s);
      spec.interval_ms = 200;
      config.streams.push_back(spec);
    }
    runtime.deploy_sensor(std::move(config), std::make_unique<sim::StaticMobility>(sim::Vec2{
                                                 100.0 + 50.0 * static_cast<double>(id), 200.0}));
  }
}

SharingOutcome run_scenario(std::size_t consumers, bool shared, std::uint64_t seed) {
  Runtime runtime(field_config(seed));
  runtime.deploy_receivers(4, 400);

  // Shared: one stream per sensor, everyone subscribes to it.
  // Coupled: one dedicated stream per (sensor, consumer) pair — the
  // sensor samples and transmits once per consumer.
  deploy_sensors(runtime, shared ? 1 : consumers);

  std::vector<std::unique_ptr<core::Consumer>> pool;
  std::uint64_t delivered = 0;
  for (std::size_t c = 0; c < consumers; ++c) {
    auto consumer =
        std::make_unique<core::Consumer>(runtime.bus(), "consumer." + std::to_string(c));
    runtime.provision(*consumer, "app" + std::to_string(c));
    consumer->set_data_handler([&delivered](const core::DeliveryView&) { ++delivered; });
    for (core::SensorId id = 1; id <= kSensors; ++id) {
      const core::InternalStreamId stream =
          shared ? 0 : static_cast<core::InternalStreamId>(c);
      consumer->subscribe(core::StreamPattern::exact({id, stream}));
    }
    pool.push_back(std::move(consumer));
  }
  runtime.run_for(Duration::millis(50));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(30));

  double energy_spent = 0;
  for (std::size_t i = 0; i < runtime.field().sensor_count(); ++i) {
    energy_spent += kInitialBattery - runtime.field().sensor_at(i).battery_joules();
  }

  const auto snap = runtime.telemetry().registry.snapshot();
  SharingOutcome outcome;
  if (delivered > 0) {
    outcome.radio_frames_per_delivery =
        static_cast<double>(snap.counter("garnet.radio.uplink_frames")) /
        static_cast<double>(delivered);
    outcome.radio_bytes_per_delivery =
        static_cast<double>(snap.counter("garnet.radio.uplink_bytes_sent")) /
        static_cast<double>(delivered);
    outcome.fixed_msgs_per_delivery = static_cast<double>(snap.counter("garnet.bus.posted")) /
                                      static_cast<double>(delivered);
  }
  outcome.energy_joules = energy_spent;
  return outcome;
}

/// Args: consumer count, shared (1 = Garnet, 0 = coupled baseline).
void BM_StreamSharing(benchmark::State& state) {
  const auto consumers = static_cast<std::size_t>(state.range(0));
  const bool shared = state.range(1) != 0;

  SharingOutcome outcome;
  for (auto _ : state) {
    outcome = run_scenario(consumers, shared, /*seed=*/21);
    benchmark::DoNotOptimize(&outcome);
  }
  state.counters["radio_frames_per_delivery"] = outcome.radio_frames_per_delivery;
  state.counters["radio_bytes_per_delivery"] = outcome.radio_bytes_per_delivery;
  state.counters["fixed_msgs_per_delivery"] = outcome.fixed_msgs_per_delivery;
  state.counters["sensor_energy_J"] = outcome.energy_joules;
}
BENCHMARK(BM_StreamSharing)
    ->ArgsProduct({{1, 2, 4, 8, 16}, {0, 1}})
    ->ArgNames({"consumers", "shared"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
