// Experiment A5 — overload control under flood.
//
// Sweeps offered load (1x / 4x / 10x the healthy 2ms cadence) against
// one straggling subscriber (healthy / 20x / 100x per-message service
// time) and reports what the overload layer buys: the healthy consumer's
// goodput, the control-plane (catalog discovery) tail latency, shed and
// quarantine counts. The harshest cell's full telemetry snapshot is
// persisted to BENCH_overload.json; scripts/ci.sh gates on it — the
// control-plane shed counters must stay zero while data was shed.
//
// Experiment A5b — adaptive admission (net/admission.hpp). For each
// payload size in a 10× spread, a fixed 20k msg/s flood is pushed at a
// consumer whose per-message cost scales with the payload, once per
// static ticket-pool size and once with the throughput prober on. The
// probed run starts from the same initial pool everywhere — no per-run
// hand tuning — and the gate (scripts/check_overload_report.py) requires
// its goodput to reach ≥ 0.9× the best static setting at every payload
// size with zero control-plane shed. Flags (stripped before
// google-benchmark sees them): `--probe` runs only this sweep,
// `--admission=static` freezes the pools (the pre-admission behaviour).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "garnet/runtime.hpp"
#include "obs/export.hpp"

namespace garnet::bench {
namespace {

using util::Duration;
using util::SimTime;

/// Defined with the A5b sweep below; appends the probed-vs-static
/// admission comparison to the persisted report.
void append_probe_metrics(obs::SnapshotBuilder& out);

struct FloodOutcome {
  double fast_received = 0;
  double slow_received = 0;
  double control_p99_ms = 0;
  double discoveries_unanswered = 0;
  double data_sheds = 0;
  double control_sheds = 0;
  double quarantines = 0;
  double messages_offered = 0;
};

/// One virtual second of flood: messages injected into the dispatcher on
/// a fixed cadence, a healthy subscriber, a configurable straggler, and a
/// catalog-discovery prober supplying the control-plane traffic. When
/// `json_out` is set, the full telemetry snapshot (plus the headline
/// bench.overload.* gauges) is rendered before teardown.
FloodOutcome run_flood(std::int64_t message_interval_us, std::int64_t slow_service_us,
                       std::string* json_out = nullptr) {
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
    slow.service_time = Duration::micros(slow_service_us);
    config.bus.inboxes["consumer.slow"] = slow;
  }
  Runtime runtime(config);

  core::Consumer fast(runtime.bus(), "consumer.fast");
  runtime.provision(fast, "fast");
  fast.subscribe(core::StreamPattern::everything());
  core::Consumer slow(runtime.bus(), "consumer.slow");
  runtime.provision(slow, "slow");
  slow.subscribe(core::StreamPattern::everything());
  core::Consumer prober(runtime.bus(), "consumer.prober");
  runtime.provision(prober, "prober");
  runtime.run_for(Duration::millis(20));

  FloodOutcome outcome;
  std::vector<Duration> control_latencies;
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;
  sim::Scheduler& scheduler = runtime.scheduler();
  const SimTime flood_end = scheduler.now() + Duration::seconds(1);

  core::SequenceNo next_seq = 0;
  std::function<void()> inject = [&] {
    core::DataMessage msg;
    msg.stream_id = {1, 0};
    msg.sequence = next_seq++;
    msg.payload = util::Bytes(24);
    runtime.dispatch().on_filtered(msg, scheduler.now());
    outcome.messages_offered += 1;
    if (scheduler.now() < flood_end) {
      scheduler.schedule_after(Duration::micros(message_interval_us), inject);
    }
  };
  std::function<void()> probe = [&] {
    ++issued;
    const SimTime asked = scheduler.now();
    prober.discover({}, [&, asked](std::vector<core::StreamInfo>) {
      ++answered;
      control_latencies.push_back(scheduler.now() - asked);
    });
    if (scheduler.now() < flood_end) scheduler.schedule_after(Duration::millis(20), probe);
  };
  inject();
  probe();
  runtime.run_for(Duration::seconds(2));  // flood + drain

  outcome.fast_received = static_cast<double>(fast.received());
  outcome.slow_received = static_cast<double>(slow.received());
  outcome.discoveries_unanswered = static_cast<double>(issued - answered);
  if (!control_latencies.empty()) {
    std::sort(control_latencies.begin(), control_latencies.end(),
              [](Duration a, Duration b) { return a.ns < b.ns; });
    outcome.control_p99_ms =
        control_latencies[(control_latencies.size() * 99) / 100].to_millis();
  }
  outcome.data_sheds = static_cast<double>(runtime.bus().shed_stats().data_total());
  outcome.control_sheds = static_cast<double>(runtime.bus().shed_stats().control_total());
  outcome.quarantines = static_cast<double>(runtime.dispatch().stats().quarantines);

  if (json_out != nullptr) {
    obs::MetricsRegistry& registry = runtime.telemetry().registry;
    registry.add_collector([&outcome](obs::SnapshotBuilder& out) {
      out.gauge("bench.overload.goodput_fast", outcome.fast_received);
      out.gauge("bench.overload.goodput_slow", outcome.slow_received);
      out.gauge("bench.overload.control_p99_ms", outcome.control_p99_ms);
      out.gauge("bench.overload.discoveries_unanswered", outcome.discoveries_unanswered);
      out.gauge("bench.overload.messages_offered", outcome.messages_offered);
      append_probe_metrics(out);
    });
    *json_out = obs::render_json(registry.snapshot());
  }
  return outcome;
}

// --- A5b: admission-control probe sweep ------------------------------------

struct ProbeOutcome {
  double goodput = 0;            ///< Deliveries that reached the consumer.
  double data_sheds = 0;         ///< Admitted, then shed downstream.
  double control_sheds = 0;
  double rejected = 0;           ///< Refused at the admission door.
  double discoveries_unanswered = 0;
  double final_tickets = 0;      ///< Data-pool size at the end of the run.
};

/// One virtual second of a fixed 20k msg/s external flood against a
/// consumer whose inbox costs 40ns per payload byte, behind the
/// admission gate. `tickets` is the pool size (static) or the starting
/// point (probed); the lease (500us) makes the pool an admission-rate
/// bound of tickets × 2k msg/s, so the goodput-maximising size moves
/// with the payload and the prober has something real to find.
ProbeOutcome run_probe(std::int64_t payload_bytes, bool probing, std::uint32_t tickets) {
  Runtime::Config config;
  config.admission.enabled = true;
  config.admission.probing = probing;
  config.admission.probe.initial_concurrency = tickets;
  config.admission.probe.min_concurrency = 2;
  config.admission.probe.max_concurrency = 64;
  config.admission.probe.interval = Duration::millis(10);
  config.admission.probe.lease = Duration::micros(500);
  config.bus.shed_journal_limit = 1 << 12;
  {
    net::InboxConfig sink;
    sink.capacity = 16;
    sink.policy = net::OverflowPolicy::kDropNewest;
    sink.service_time = Duration::nanos(40 * payload_bytes);
    config.bus.inboxes["consumer.sink"] = sink;
  }
  Runtime runtime(config);

  core::Consumer sink(runtime.bus(), "consumer.sink");
  runtime.provision(sink, "sink");
  sink.subscribe(core::StreamPattern::everything());
  core::Consumer prober(runtime.bus(), "consumer.prober");
  runtime.provision(prober, "prober");
  runtime.run_for(Duration::millis(20));

  sim::Scheduler& scheduler = runtime.scheduler();
  const SimTime flood_end = scheduler.now() + Duration::seconds(1);
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;

  core::SequenceNo next_seq = 0;
  core::DataMessage msg;
  msg.stream_id = {1, 0};
  msg.payload = util::Bytes(static_cast<std::size_t>(payload_bytes));
  std::function<void()> inject = [&] {
    msg.sequence = next_seq++;
    runtime.inject_external(core::as_view(msg));
    if (scheduler.now() < flood_end) {
      scheduler.schedule_after(Duration::micros(50), inject);
    }
  };
  std::function<void()> probe = [&] {
    ++issued;
    prober.discover({}, [&](std::vector<core::StreamInfo>) { ++answered; });
    if (scheduler.now() < flood_end) scheduler.schedule_after(Duration::millis(20), probe);
  };
  inject();
  probe();
  runtime.run_for(Duration::seconds(2));  // flood + drain

  ProbeOutcome outcome;
  outcome.goodput = static_cast<double>(sink.received());
  outcome.data_sheds = static_cast<double>(runtime.bus().shed_stats().data_total());
  outcome.control_sheds = static_cast<double>(runtime.bus().shed_stats().control_total());
  outcome.rejected = static_cast<double>(runtime.admission()->stats().data_rejected);
  outcome.discoveries_unanswered = static_cast<double>(issued - answered);
  outcome.final_tickets = static_cast<double>(runtime.admission()->data_pool_size());
  return outcome;
}

/// The 10× payload spread and the static pool sizes the prober competes
/// against. The probed run always starts from kInitialTickets.
constexpr std::int64_t kProbePayloads[] = {256, 2560};
constexpr std::uint32_t kStaticTickets[] = {2, 4, 8, 16, 32};
constexpr std::uint32_t kInitialTickets = 16;

/// (payload, "probed"/"static", tickets) -> outcome; filled by the probe
/// benchmark, rendered into BENCH_overload.json by the flood cell below
/// (google-benchmark runs registrations in order, so the sweep has
/// always completed by the time the report is written).
std::map<std::tuple<std::int64_t, std::string, std::uint32_t>, ProbeOutcome>& probe_cells() {
  static std::map<std::tuple<std::int64_t, std::string, std::uint32_t>, ProbeOutcome> cells;
  return cells;
}

void append_probe_metrics(obs::SnapshotBuilder& out) {
  std::map<std::int64_t, double> best_static;
  for (const auto& [key, cell] : probe_cells()) {
    const auto& [payload, mode, tickets] = key;
    const obs::Labels labels{{"mode", mode},
                             {"payload", std::to_string(payload)},
                             {"tickets", std::to_string(tickets)}};
    out.gauge("bench.overload.probe_goodput", cell.goodput, labels);
    out.gauge("bench.overload.probe_control_sheds", cell.control_sheds, labels);
    out.gauge("bench.overload.probe_unanswered", cell.discoveries_unanswered, labels);
    if (mode == "static") {
      auto [it, inserted] = best_static.emplace(payload, cell.goodput);
      if (!inserted) it->second = std::max(it->second, cell.goodput);
    } else {
      out.gauge("bench.overload.probe_final_tickets", cell.final_tickets,
                {{"payload", std::to_string(payload)}});
    }
  }
  for (const auto& [payload, goodput] : best_static) {
    out.gauge("bench.overload.probe_best_static", goodput,
              {{"payload", std::to_string(payload)}});
  }
}

/// Arg: payload bytes. Each iteration runs the full static sweep plus
/// one probed run and reports the headline comparison.
void BM_AdmissionProbe(benchmark::State& state) {
  const std::int64_t payload = state.range(0);
  const bool probing = admission_mode() == AdmissionMode::kProbed;

  double best_static = 0;
  ProbeOutcome probed;
  for (auto _ : state) {
    for (const std::uint32_t tickets : kStaticTickets) {
      const ProbeOutcome cell = run_probe(payload, /*probing=*/false, tickets);
      best_static = std::max(best_static, cell.goodput);
      probe_cells()[{payload, "static", tickets}] = cell;
    }
    probed = run_probe(payload, probing, kInitialTickets);
    probe_cells()[{payload, "probed", kInitialTickets}] = probed;
  }
  state.counters["goodput_probed"] = probed.goodput;
  state.counters["goodput_best_static"] = best_static;
  state.counters["convergence_ratio"] = best_static > 0 ? probed.goodput / best_static : 0;
  state.counters["final_tickets"] = probed.final_tickets;
  state.counters["rejected_at_door"] = probed.rejected;
  state.counters["control_sheds"] = probed.control_sheds;
}
BENCHMARK(BM_AdmissionProbe)
    ->Arg(kProbePayloads[0])
    ->Arg(kProbePayloads[1])
    ->ArgNames({"payload"})
    ->Unit(benchmark::kMillisecond);

// --- A5: static overload flood ---------------------------------------------

/// Args: message interval (us) — 2000 is the healthy cadence; slow
/// consumer per-message service time (us) — 20 matches the healthy one.
void BM_OverloadFlood(benchmark::State& state) {
  const auto interval_us = state.range(0);
  const auto slow_service_us = state.range(1);

  FloodOutcome outcome;
  for (auto _ : state) {
    outcome = run_flood(interval_us, slow_service_us);
    benchmark::DoNotOptimize(&outcome);
  }
  state.counters["goodput_fast"] = outcome.fast_received;
  state.counters["goodput_slow"] = outcome.slow_received;
  state.counters["control_p99_ms"] = outcome.control_p99_ms;
  state.counters["discoveries_unanswered"] = outcome.discoveries_unanswered;
  state.counters["data_sheds"] = outcome.data_sheds;
  state.counters["control_sheds"] = outcome.control_sheds;
  state.counters["quarantines"] = outcome.quarantines;

  // Machine-readable exposition for the harshest cell: 10x load with the
  // 100x straggler. scripts/ci.sh asserts the priority invariant on it.
  if (interval_us == 200 && slow_service_us == 2000) {
    std::string json;
    run_flood(interval_us, slow_service_us, &json);
    write_bench_report("overload", json);
  }
}
BENCHMARK(BM_OverloadFlood)
    ->ArgsProduct({{2000, 500, 200}, {20, 400, 2000}})
    ->ArgNames({"interval_us", "slow_svc_us"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace garnet::bench

int main(int argc, char** argv) {
  bool probe_only = false;
  garnet::bench::parse_garnet_flags(argc, argv, &probe_only);
  std::vector<char*> args(argv, argv + argc);
  char filter_flag[] = "--benchmark_filter=AdmissionProbe";
  if (probe_only) args.push_back(filter_flag);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
