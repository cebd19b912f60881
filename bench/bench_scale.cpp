// Experiment A8 — registration-scale: the StreamTable migration at the
// paper's sensor counts.
//
// Garnet sizes its id space for 2^24 sensors; this bench walks the full
// fixed-side path — catalog registration, location evidence, filtering
// dedup state, dispatch fan-out — at 10^4, 10^5 and 10^6 streams and
// reports what that footprint costs:
//
//   * bytes/stream: index + arena bytes across the four services'
//     StreamTables, divided by the stream count;
//   * msgs/s: steady-state dispatch throughput once the tables hold the
//     tier's population;
//   * checkpoint-capture stall: wall time of a full capture (walks
//     everything) vs an incremental capture after ~1% of streams were
//     touched — the stall the delta frames exist to eliminate;
//   * probe length: mean slots a lookup inspects in each service's
//     StreamTable index (1.0 = every key in its home slot). A count,
//     not a timing, so a clustering hash shows up without noise.
//
// Every tier's numbers land in BENCH_scale.json; scripts/ci.sh gates on
// it via scripts/check_scale_report.py (bytes/stream budget, the 10^5
// tier's presence, the delta-stall budget and the probe-length budget).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/dispatch.hpp"
#include "core/filtering.hpp"
#include "core/location.hpp"
#include "sim/scheduler.hpp"

namespace garnet::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct TierResult {
  std::int64_t streams = 0;
  double registrations_per_sec = 0;
  double msgs_per_sec = 0;
  double bytes_per_stream = 0;
  double catalog_bytes = 0;
  double filtering_bytes = 0;
  double dispatch_bytes = 0;
  double location_bytes = 0;
  double full_capture_ms = 0;   ///< Max single-service full-capture stall.
  double delta_capture_ms = 0;  ///< Max single-service delta stall, ~1% dirty.
  double full_capture_bytes = 0;
  double delta_capture_bytes = 0;
  core::ProbeStats catalog_probes;
  core::ProbeStats filtering_probes;
  core::ProbeStats dispatch_probes;
  core::ProbeStats location_probes;
};

TierResult run_tier(std::int64_t streams) {
  sim::Scheduler scheduler;
  net::MessageBus::Config bus_config;
  bus_config.max_jitter = util::Duration{};
  net::MessageBus bus(scheduler, bus_config);
  core::AuthService auth{{}};
  core::StreamCatalog catalog;
  core::FilteringService filtering(scheduler, {});
  core::LocationService location(bus, auth);
  core::DispatchingService dispatch(bus, auth, catalog);

  const net::Address consumer = bus.add_endpoint("scale.consumer", [](net::Envelope) {});
  dispatch.subscribe(consumer, core::StreamPattern::everything());

  // A 4x4 antenna grid so location evidence lands in known receivers.
  std::vector<wireless::Receiver> antennas;
  for (std::uint32_t i = 0; i < 16; ++i) {
    antennas.push_back({.id = static_cast<wireless::ReceiverId>(1 + i),
                        .position = {100.0 * static_cast<double>(i % 4),
                                     100.0 * static_cast<double>(i / 4)},
                        .range_m = 150.0});
  }
  location.set_receiver_layout(antennas);

  TierResult result;
  result.streams = streams;
  const auto count = static_cast<std::uint32_t>(streams);

  // Phase 1 — registration: every stream advertised into the catalog.
  const auto reg_start = Clock::now();
  for (std::uint32_t sensor = 0; sensor < count; ++sensor) {
    catalog.advertise({sensor, 0}, {}, "temperature");
  }
  result.registrations_per_sec = static_cast<double>(streams) / (ms_since(reg_start) / 1e3);

  // Phase 2 — location evidence for a slice of the population (every
  // 8th sensor; receivers hear active sensors, not the whole id space).
  const util::SimTime heard = scheduler.now();
  for (std::uint32_t sensor = 0; sensor < count; sensor += 8) {
    location.observe({.sensor = sensor,
                      .receiver = static_cast<wireless::ReceiverId>(1 + sensor % 16),
                      .rssi_dbm = -60.0,
                      .heard_at = heard});
  }

  // Phase 3 — traffic: one message per stream through filtering state
  // and the dispatch fan-out (dispatch itself keeps no per-stream state).
  core::DataMessage msg;
  msg.payload = util::Bytes(16);
  const auto traffic_start = Clock::now();
  for (std::uint32_t sensor = 0; sensor < count; ++sensor) {
    msg.stream_id = {sensor, 0};
    msg.sequence = 1;
    filtering.note_seen(msg.stream_id, msg.sequence);
    dispatch.on_filtered(msg, scheduler.now());
    if ((sensor & 0x1FFF) == 0x1FFF) scheduler.run();  // drain deliveries
  }
  scheduler.run();
  result.msgs_per_sec = static_cast<double>(streams) / (ms_since(traffic_start) / 1e3);

  // Footprint once the tier's population is resident.
  result.catalog_bytes = static_cast<double>(catalog.memory_bytes());
  result.filtering_bytes = static_cast<double>(filtering.memory_bytes());
  result.dispatch_bytes = static_cast<double>(dispatch.memory_bytes());
  result.location_bytes = static_cast<double>(location.memory_bytes());
  result.bytes_per_stream = (result.catalog_bytes + result.filtering_bytes +
                             result.dispatch_bytes + result.location_bytes) /
                            static_cast<double>(streams);
  result.catalog_probes = catalog.probe_stats();
  result.filtering_probes = filtering.probe_stats();
  result.dispatch_probes = dispatch.probe_stats();
  result.location_probes = location.probe_stats();

  // Phase 4 — full-capture stall: each service walks its whole table.
  // The headline number is the worst single capture (one service's
  // checkpoint blocks that service, not the others).
  {
    const auto t0 = Clock::now();
    const util::Bytes c = catalog.capture_full();
    const double catalog_ms = ms_since(t0);
    const auto t1 = Clock::now();
    const util::Bytes f = filtering.capture_full();
    const double filtering_ms = ms_since(t1);
    const auto t2 = Clock::now();
    const util::Bytes d = dispatch.capture_full();
    const double dispatch_ms = ms_since(t2);
    const auto t3 = Clock::now();
    const util::Bytes l = location.capture_full();
    const double location_ms = ms_since(t3);
    result.full_capture_ms =
        std::max({catalog_ms, filtering_ms, dispatch_ms, location_ms});
    result.full_capture_bytes =
        static_cast<double>(c.size() + f.size() + d.size() + l.size());
  }

  // Phase 5 — touch ~1% of streams, then capture the delta. This is the
  // steady-state checkpoint: cost tracks traffic, not population.
  for (std::uint32_t sensor = 0; sensor < count; sensor += 100) {
    msg.stream_id = {sensor, 0};
    msg.sequence = 2;
    filtering.note_seen(msg.stream_id, msg.sequence);
    dispatch.on_filtered(msg, scheduler.now());
  }
  scheduler.run();
  {
    const auto t0 = Clock::now();
    const util::Bytes c = catalog.capture_delta();
    const double catalog_ms = ms_since(t0);
    const auto t1 = Clock::now();
    const util::Bytes f = filtering.capture_delta();
    const double filtering_ms = ms_since(t1);
    const auto t2 = Clock::now();
    const util::Bytes d = dispatch.capture_delta();
    const double dispatch_ms = ms_since(t2);
    const auto t3 = Clock::now();
    const util::Bytes l = location.capture_delta();
    const double location_ms = ms_since(t3);
    result.delta_capture_ms =
        std::max({catalog_ms, filtering_ms, dispatch_ms, location_ms});
    result.delta_capture_bytes =
        static_cast<double>(c.size() + f.size() + d.size() + l.size());
  }
  return result;
}

/// Tiers already measured this process, keyed by stream count; the JSON
/// report is rewritten after every tier so the file always holds every
/// tier the run has produced (the 10^6 tier lands last).
std::map<std::int64_t, TierResult>& tier_results() {
  static std::map<std::int64_t, TierResult> results;
  return results;
}

void write_scale_report() {
  std::string json = "{\"experiment\":\"scale\",\"tiers\":[";
  bool first = true;
  for (const auto& [streams, tier] : tier_results()) {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"streams\":%lld,\"registrations_per_sec\":%.0f,\"msgs_per_sec\":%.0f,"
        "\"bytes_per_stream\":%.1f,\"catalog_bytes\":%.0f,\"filtering_bytes\":%.0f,"
        "\"dispatch_bytes\":%.0f,\"location_bytes\":%.0f,\"full_capture_ms\":%.3f,"
        "\"delta_capture_ms\":%.3f,\"full_capture_bytes\":%.0f,\"delta_capture_bytes\":%.0f,"
        "\"probe_mean\":{\"catalog\":%.3f,\"filtering\":%.3f,\"dispatch\":%.3f,"
        "\"location\":%.3f},\"probe_max\":{\"catalog\":%u,\"filtering\":%u,"
        "\"dispatch\":%u,\"location\":%u}}",
        first ? "" : ",", static_cast<long long>(streams), tier.registrations_per_sec,
        tier.msgs_per_sec, tier.bytes_per_stream, tier.catalog_bytes, tier.filtering_bytes,
        tier.dispatch_bytes, tier.location_bytes, tier.full_capture_ms, tier.delta_capture_ms,
        tier.full_capture_bytes, tier.delta_capture_bytes, tier.catalog_probes.mean(),
        tier.filtering_probes.mean(), tier.dispatch_probes.mean(), tier.location_probes.mean(),
        tier.catalog_probes.max_probes, tier.filtering_probes.max_probes,
        tier.dispatch_probes.max_probes, tier.location_probes.max_probes);
    json += buf;
    first = false;
  }
  json += "]}";
  write_bench_report("scale", json);
}

/// Arg: stream count. 10^4 -> 10^5 -> 10^6 — the last tier is the
/// paper-scale population the StreamTable layout exists for.
void BM_RegistrationScale(benchmark::State& state) {
  const std::int64_t streams = state.range(0);
  TierResult tier;
  for (auto _ : state) {
    tier = run_tier(streams);
    benchmark::DoNotOptimize(&tier);
  }
  state.counters["regs_per_sec"] = tier.registrations_per_sec;
  state.counters["msgs_per_sec"] = tier.msgs_per_sec;
  state.counters["bytes_per_stream"] = tier.bytes_per_stream;
  state.counters["full_capture_ms"] = tier.full_capture_ms;
  state.counters["delta_capture_ms"] = tier.delta_capture_ms;
  state.SetItemsProcessed(state.iterations() * streams);

  tier_results()[streams] = tier;
  write_scale_report();
}
BENCHMARK(BM_RegistrationScale)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->ArgName("streams")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
