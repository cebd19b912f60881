// Experiment E9 — end-to-end pipeline scalability.
//
// Paper goal (§1): "Low performance overhead, scalable design". Drives
// the complete system — radio ingest, filtering, dispatch, consumer
// delivery — for a fixed span of virtual time at increasing sensor
// counts, and reports wall-clock message throughput of the middleware
// plus the virtual-time delivery latency consumers observe. Expected
// shape: wall-clock cost per delivered message stays near-constant as
// the field grows (the design goal); virtual-time latency is dominated
// by radio + bus hops, independent of scale.
//
// Each iteration's time is the sensors' run only (start_sensors() +
// run_for(span)), set by manual timing. Building the Runtime, the 50 ms
// settle, the telemetry snapshot and teardown are reported apart, as
// the setup_ms counter (mean per iteration).
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/common.hpp"
#include "garnet/report.hpp"
#include "garnet/runtime.hpp"
#include "util/stats.hpp"

namespace garnet::bench {
namespace {

using util::Duration;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct PipelineOutcome {
  double run_s = 0;  ///< Wall time of start_sensors() + run_for(span).
  std::uint64_t delivered = 0;
  double latency_mean_ms = 0;
  double latency_p99_ms = 0;
  std::uint64_t radio_frames = 0;
  std::string telemetry_json;  ///< Full exposition incl. stage latencies.
};

PipelineOutcome run_pipeline(std::size_t sensors, util::Duration span, std::uint64_t seed) {
  Runtime::Config config;
  const double side = std::max(400.0, std::sqrt(static_cast<double>(sensors)) * 120.0);
  config.field.area = {{0, 0}, {side, side}};
  config.field.seed = seed;
  config.field.radio.base_loss = 0.05;
  config.field.radio.edge_loss = 0.25;
  Runtime runtime(config);

  const auto receiver_count = std::max<std::size_t>(4, sensors / 20);
  runtime.deploy_receivers(receiver_count, side / std::sqrt(static_cast<double>(receiver_count)) + 80);

  wireless::SensorField::PopulationSpec spec;
  spec.first_id = 1;
  spec.count = sensors;
  spec.interval_ms = 1000;
  runtime.deploy_population(spec);

  core::Consumer consumer(runtime.bus(), "consumer.firehose");
  runtime.provision(consumer, "firehose");
  // Radio-ingress to consumer-delivery latency, in virtual time.
  util::Quantiles latency;
  consumer.set_data_handler([&](const core::DeliveryView& delivery) {
    latency.add(runtime.scheduler().now() - delivery.first_heard);
  });
  consumer.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(50));

  PipelineOutcome outcome;
  const Clock::time_point run_start = Clock::now();
  runtime.start_sensors();
  runtime.run_for(span);
  outcome.run_s = seconds_since(run_start);

  outcome.delivered = consumer.received();
  outcome.latency_mean_ms = latency.mean() / 1e6;
  outcome.latency_p99_ms = latency.quantile(0.99) / 1e6;
  outcome.radio_frames =
      runtime.telemetry().registry.snapshot().counter("garnet.radio.uplink_frames");
  outcome.telemetry_json = snapshot(runtime).to_json();
  return outcome;
}

void BM_Pipeline(benchmark::State& state) {
  const auto sensors = static_cast<std::size_t>(state.range(0));
  PipelineOutcome outcome;
  double setup_s = 0;
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    outcome = run_pipeline(sensors, Duration::seconds(20), /*seed=*/9);
    benchmark::DoNotOptimize(&outcome);
    const double total_s = seconds_since(start);  // teardown included
    state.SetIterationTime(outcome.run_s);
    setup_s += total_s - outcome.run_s;
  }
  // items/sec here = delivered messages per wall second of the run.
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * outcome.delivered));
  state.counters["setup_ms"] = setup_s * 1e3 / static_cast<double>(state.iterations());
  state.counters["sensors"] = static_cast<double>(sensors);
  state.counters["delivered_msgs"] = static_cast<double>(outcome.delivered);
  state.counters["delivery_latency_mean_ms"] = outcome.latency_mean_ms;
  state.counters["delivery_latency_p99_ms"] = outcome.latency_p99_ms;
  state.counters["radio_frames"] = static_cast<double>(outcome.radio_frames);
  // One telemetry exposition per field size — carries the per-stage
  // (radio/filter/dispatch/deliver) latency histogram quantiles.
  write_bench_report("end_to_end_sensors_" + std::to_string(sensors), outcome.telemetry_json);
}
BENCHMARK(BM_Pipeline)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Arg(1000)
    ->ArgName("sensors")
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
