// Experiment E3 — dispatch fan-out scalability, and ablation A1 —
// address-free (pattern) routing vs routing-table churn.
//
// Paper goals (§1): "low performance overhead, scalable design". The
// Dispatching Service is the hot path of the fixed side: every filtered
// message consults the subscription table and posts one envelope per
// matching consumer. The zero-copy payload path makes that fan-out a
// refcount bump per subscriber instead of a wire-image copy, so the
// per-message cost should be dominated by scheduling, not memcpy. The
// fan-out × payload sweep quantifies exactly that; the telemetry
// exposition (BENCH_dispatch.json) pins allocations and copies per
// dispatched message so regressions show up in the perf trajectory.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/dispatch.hpp"
#include "garnet/shard_plane.hpp"
#include "net/bus.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace garnet::bench {

/// Shard counts swept by the report benchmark. Overridable with
/// --shards=1,2,4 (stripped before google-benchmark sees the argv) or
/// the GARNET_BENCH_SHARDS env var.
std::vector<std::uint32_t> g_shard_counts = {1, 2, 4, 8, 16};

namespace {

struct DispatchRig {
  sim::Scheduler scheduler;
  net::MessageBus bus{scheduler, {}};
  core::AuthService auth{{}};
  core::StreamCatalog catalog;
  core::DispatchingService dispatch{bus, auth, catalog};
  std::uint64_t sink_count = 0;

  net::Address add_consumer(const std::string& name) {
    return bus.add_endpoint(name, [this](net::Envelope) { ++sink_count; });
  }
};

/// Fan-out to N matching subscribers of one stream.
void BM_FanOut(benchmark::State& state) {
  const auto consumers = static_cast<std::size_t>(state.range(0));
  DispatchRig rig;
  for (std::size_t i = 0; i < consumers; ++i) {
    rig.dispatch.subscribe(rig.add_consumer("c" + std::to_string(i)),
                           core::StreamPattern::exact({1, 0}));
  }
  util::Rng rng(1);
  core::DataMessage msg = make_message(rng, 32);
  msg.stream_id = {1, 0};

  for (auto _ : state) {
    rig.dispatch.on_filtered(msg, rig.scheduler.now());
    rig.scheduler.run();  // drain deliveries
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["copies_per_msg"] = static_cast<double>(consumers);
  state.counters["deliveries"] = static_cast<double>(rig.sink_count);
}
BENCHMARK(BM_FanOut)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->ArgName("consumers");

/// Zero-copy sweep: fan-out N × payload size. One encode per message;
/// every subscriber (and the Orphanage, when unclaimed) shares the same
/// immutable buffer, so throughput should be nearly flat in payload size
/// once fan-out dominates. payload_allocs_per_msg reads the bus's
/// telemetry collector — it must stay at 1.0 regardless of N.
void BM_FanOutPayload(benchmark::State& state) {
  const auto consumers = static_cast<std::size_t>(state.range(0));
  const auto payload_bytes = static_cast<std::size_t>(state.range(1));
  obs::MetricsRegistry registry;
  DispatchRig rig;
  rig.bus.set_metrics(registry);
  for (std::size_t i = 0; i < consumers; ++i) {
    rig.dispatch.subscribe(rig.add_consumer("c" + std::to_string(i)),
                           core::StreamPattern::exact({1, 0}));
  }
  util::Rng rng(1);
  core::DataMessage msg = make_message(rng, payload_bytes);
  msg.stream_id = {1, 0};

  const std::uint64_t allocs_before = registry.snapshot().counter("garnet.bus.payload_allocs");
  const std::uint64_t copies_before = registry.snapshot().counter("garnet.bus.payload_copies");
  for (auto _ : state) {
    rig.dispatch.on_filtered(msg, rig.scheduler.now());
    rig.scheduler.run();
  }
  const auto iterations = static_cast<double>(state.iterations());
  const obs::MetricsSnapshot snap = registry.snapshot();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    (consumers * payload_bytes)));
  state.counters["payload_allocs_per_msg"] =
      static_cast<double>(snap.counter("garnet.bus.payload_allocs") - allocs_before) / iterations;
  state.counters["payload_copies_per_msg"] =
      static_cast<double>(snap.counter("garnet.bus.payload_copies") - copies_before) / iterations;
}
BENCHMARK(BM_FanOutPayload)
    ->ArgsProduct({{1, 8, 64, 256}, {64, 4096, 65535}})
    ->ArgNames({"consumers", "payload"});

/// Selectivity: N consumers subscribed, but only a fraction match the
/// message's stream. Exact subscriptions make non-matching consumers
/// near-free (hash lookup).
void BM_Selectivity(benchmark::State& state) {
  const std::size_t consumers = 1024;
  const auto matching = static_cast<std::size_t>(state.range(0));
  DispatchRig rig;
  for (std::size_t i = 0; i < consumers; ++i) {
    // Matching consumers subscribe to stream {1,0}; the rest to others.
    const core::StreamId target =
        i < matching ? core::StreamId{1, 0}
                     : core::StreamId{static_cast<core::SensorId>(2 + i), 0};
    rig.dispatch.subscribe(rig.add_consumer("c" + std::to_string(i)),
                           core::StreamPattern::exact(target));
  }
  util::Rng rng(1);
  core::DataMessage msg = make_message(rng, 32);
  msg.stream_id = {1, 0};

  for (auto _ : state) {
    rig.dispatch.on_filtered(msg, rig.scheduler.now());
    rig.scheduler.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["matching"] = static_cast<double>(matching);
}
BENCHMARK(BM_Selectivity)->Arg(1)->Arg(16)->Arg(256)->Arg(1024)->ArgName("matching");

/// Wildcard subscriptions force a scan; this prices that design choice.
/// Non-matching wildcards beside one exact hit. all_of(sensor) patterns
/// on other sensors (stream_only=0) are filed by sensor, so the message
/// never looks at them; stream-only patterns on other streams
/// (stream_only=1) have no sensor to file under and are scanned for every
/// message, which is the cost this case prices.
void BM_WildcardScan(benchmark::State& state) {
  const auto wildcards = static_cast<std::size_t>(state.range(0));
  const bool stream_only = state.range(1) != 0;
  DispatchRig rig;
  for (std::size_t i = 0; i < wildcards; ++i) {
    const core::StreamPattern pattern =
        stream_only
            ? core::StreamPattern{std::nullopt, static_cast<core::InternalStreamId>(1 + i % 255)}
            : core::StreamPattern::all_of(static_cast<core::SensorId>(100 + i));
    rig.dispatch.subscribe(rig.add_consumer("w" + std::to_string(i)), pattern);
  }
  rig.dispatch.subscribe(rig.add_consumer("hit"), core::StreamPattern::exact({1, 0}));
  util::Rng rng(1);
  core::DataMessage msg = make_message(rng, 32);
  msg.stream_id = {1, 0};

  for (auto _ : state) {
    rig.dispatch.on_filtered(msg, rig.scheduler.now());
    rig.scheduler.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WildcardScan)
    ->ArgsProduct({{0, 16, 256, 1024}, {0, 1}})
    ->ArgNames({"wildcards", "stream_only"});

/// Ablation A1 — churn. Garnet's address-free StreamID routing means a
/// consumer joining/leaving touches one table entry; a sensor-addressed
/// scheme would have to update per-sensor forwarding state. We measure
/// subscribe+unsubscribe cost against table size.
void BM_SubscriptionChurn(benchmark::State& state) {
  const auto resident = static_cast<std::size_t>(state.range(0));
  DispatchRig rig;
  const net::Address churner = rig.add_consumer("churner");
  for (std::size_t i = 0; i < resident; ++i) {
    rig.dispatch.subscribe(rig.add_consumer("r" + std::to_string(i)),
                           core::StreamPattern::exact({static_cast<core::SensorId>(i + 2), 0}));
  }
  for (auto _ : state) {
    const core::SubscriptionId id =
        rig.dispatch.subscribe(churner, core::StreamPattern::exact({1, 0}));
    benchmark::DoNotOptimize(id);
    rig.dispatch.unsubscribe(id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["resident_subs"] = static_cast<double>(resident);
}
BENCHMARK(BM_SubscriptionChurn)->Arg(0)->Arg(64)->Arg(1024)->Arg(16384)->ArgName("resident");

/// One point of the sharded-dispatch scaling sweep.
struct ShardSweepPoint {
  std::uint32_t shards = 1;
  /// Modeled N-core throughput: total messages over the *critical path*
  /// (the slowest shard's thread-CPU time). On a machine with >= N free
  /// cores this is the wall rate; on the 1-core CI runner, where worker
  /// threads timeshare one CPU, it is the honest scaling signal —
  /// thread-CPU time excludes the time a worker spends descheduled.
  double critical_msgs_per_sec = 0.0;
  /// Observed wall rate (partition-overhead check; ~flat on one core).
  double wall_msgs_per_sec = 0.0;
  double data_shed = 0.0;
  double control_shed = 0.0;
  double deliveries = 0.0;
};

/// E3b — shard scaling. 512 streams x fan-out 8, hash-partitioned over N
/// shard pipelines with bounded consumer inboxes (the overload path is
/// active; capacity is sized so nothing sheds). Work per shard tracks
/// its stream share, so critical-path speedup == partition balance minus
/// per-round merge overhead.
ShardSweepPoint run_shard_sweep_point(std::uint32_t shards) {
  constexpr std::size_t kStreams = 512;
  constexpr std::size_t kFanOut = 8;
  constexpr core::SequenceNo kSeqs = 256;
  constexpr core::SequenceNo kBatchSeqs = 8;  // seq rounds injected per merge round
  constexpr std::size_t kPayload = 256;

  ShardPlaneConfig config;
  config.shards = shards;
  config.bus.shed_journal_limit = 64;
  {
    net::InboxConfig inbox;
    inbox.capacity = 8192;
    inbox.policy = net::OverflowPolicy::kDropNewest;
    inbox.service_time = util::Duration::micros(1);
    for (std::size_t s = 0; s < kStreams; ++s) {
      for (std::size_t c = 0; c < kFanOut; ++c) {
        config.bus.inboxes["c" + std::to_string(s) + "_" + std::to_string(c)] = inbox;
      }
    }
  }
  ShardedDispatchPlane plane(config);
  for (std::size_t s = 0; s < kStreams; ++s) {
    const core::StreamId id{static_cast<core::SensorId>(s + 1), 0};
    for (std::size_t c = 0; c < kFanOut; ++c) {
      const PlaneConsumerId consumer = plane.add_consumer(
          "c" + std::to_string(s) + "_" + std::to_string(c),
          [](std::uint32_t, const net::Envelope&) {});
      plane.subscribe(consumer, core::StreamPattern::exact(id));
    }
  }

  util::Rng rng(1);
  std::vector<core::DataMessage> messages;
  messages.reserve(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    core::DataMessage msg = make_message(rng, kPayload);
    msg.stream_id = {static_cast<core::SensorId>(s + 1), 0};
    messages.push_back(std::move(msg));
  }

  const auto start = std::chrono::steady_clock::now();
  for (core::SequenceNo seq = 0; seq < kSeqs; ++seq) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      messages[s].sequence = seq;
      plane.inject(messages[s]);
    }
    if ((seq + 1) % kBatchSeqs == 0) plane.run_round();
  }
  plane.run_until_idle();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

  ShardSweepPoint point;
  point.shards = shards;
  std::uint64_t critical_ns = 0;
  for (std::uint32_t i = 0; i < plane.shard_count(); ++i) {
    critical_ns = std::max(critical_ns, plane.busy_ns(i));
  }
  constexpr double kTotalMsgs = static_cast<double>(kStreams) * kSeqs;
  point.critical_msgs_per_sec =
      critical_ns > 0 ? kTotalMsgs / (static_cast<double>(critical_ns) / 1e9) : 0.0;
  point.wall_msgs_per_sec = wall.count() > 0 ? kTotalMsgs / wall.count() : 0.0;
  const net::ShedStats shed = plane.merged_shed_stats();
  point.data_shed = static_cast<double>(shed.data_total());
  point.control_shed = static_cast<double>(shed.control_total());
  point.deliveries = static_cast<double>(plane.merged_dispatch_stats().copies_delivered);
  return point;
}

/// 1-shard vs 4-shard runs behind the CI speedup gate, on worker threads
/// like the sweep. The two sides run back to back, pair after pair, so
/// host drift hits both; the gate reads the median of the per-pair
/// ratios, which one stalled run cannot move.
constexpr int kSpeedupPairs = 9;

/// Machine-readable exposition for the acceptance configuration
/// (fan-out 64 × 4 KB) plus the shard scaling sweep: fixed-size
/// workloads, the telemetry snapshot, and one labelled gauge set per
/// shard count, all in a single BENCH_dispatch.json.
void BM_ReportFanOut64x4K(benchmark::State& state) {
  constexpr std::size_t kConsumers = 64;
  constexpr std::size_t kPayload = 4096;
  constexpr std::uint64_t kMessages = 2000;

  // The shard sweep runs first; its points land in the same report so
  // scripts/check_dispatch_report.py reads one file for both gates.
  std::vector<ShardSweepPoint> sweep;
  for (const std::uint32_t shards : g_shard_counts) {
    sweep.push_back(run_shard_sweep_point(shards));
  }
  std::vector<double> pair_speedups;
  for (int pair = 0; pair < kSpeedupPairs; ++pair) {
    const double one = run_shard_sweep_point(1).critical_msgs_per_sec;
    const double four = run_shard_sweep_point(4).critical_msgs_per_sec;
    pair_speedups.push_back(one > 0.0 ? four / one : 0.0);
  }

  double msgs_per_sec = 0.0;
  double allocs_per_msg = 0.0;
  double alloc_bytes_per_msg = 0.0;
  double copies_per_msg = 0.0;
  for (auto _ : state) {
    obs::MetricsRegistry registry;
    DispatchRig rig;
    rig.bus.set_metrics(registry);
    for (std::size_t i = 0; i < kConsumers; ++i) {
      rig.dispatch.subscribe(rig.add_consumer("c" + std::to_string(i)),
                             core::StreamPattern::exact({1, 0}));
    }
    util::Rng rng(1);
    core::DataMessage msg = make_message(rng, kPayload);
    msg.stream_id = {1, 0};

    const std::uint64_t allocs_before = registry.snapshot().counter("garnet.bus.payload_allocs");
    const std::uint64_t bytes_before =
        registry.snapshot().counter("garnet.bus.payload_alloc_bytes");
    const std::uint64_t copies_before = registry.snapshot().counter("garnet.bus.payload_copies");
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      rig.dispatch.on_filtered(msg, rig.scheduler.now());
      rig.scheduler.run();
    }
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    const obs::MetricsSnapshot snap = registry.snapshot();
    msgs_per_sec = static_cast<double>(kMessages) / elapsed.count();
    allocs_per_msg =
        static_cast<double>(snap.counter("garnet.bus.payload_allocs") - allocs_before) / kMessages;
    alloc_bytes_per_msg =
        static_cast<double>(snap.counter("garnet.bus.payload_alloc_bytes") - bytes_before) /
        kMessages;
    copies_per_msg =
        static_cast<double>(snap.counter("garnet.bus.payload_copies") - copies_before) / kMessages;

    {
      // One exposition per run: bus counters plus the headline numbers
      // as gauges (the benchmark is pinned to a single iteration).
      registry.gauge("bench.dispatch.fanout").set(static_cast<double>(kConsumers));
      registry.gauge("bench.dispatch.payload_bytes").set(static_cast<double>(kPayload));
      registry.gauge("bench.dispatch.msgs_per_sec").set(msgs_per_sec);
      registry.gauge("bench.dispatch.payload_allocs_per_msg").set(allocs_per_msg);
      registry.gauge("bench.dispatch.payload_alloc_bytes_per_msg").set(alloc_bytes_per_msg);
      registry.gauge("bench.dispatch.payload_copies_per_msg").set(copies_per_msg);
      const double base = sweep.empty() ? 0.0 : sweep.front().critical_msgs_per_sec;
      for (const ShardSweepPoint& point : sweep) {
        const obs::Labels labels{{"shards", std::to_string(point.shards)}};
        registry.gauge("bench.dispatch.shard.msgs_per_sec", labels)
            .set(point.critical_msgs_per_sec);
        registry.gauge("bench.dispatch.shard.wall_msgs_per_sec", labels)
            .set(point.wall_msgs_per_sec);
        const double speedup = base > 0.0 ? point.critical_msgs_per_sec / base : 0.0;
        registry.gauge("bench.dispatch.shard.speedup", labels).set(speedup);
        registry.gauge("bench.dispatch.shard.efficiency", labels)
            .set(point.shards > 0 ? speedup / point.shards : 0.0);
        registry.gauge("bench.dispatch.shard.data_shed", labels).set(point.data_shed);
        registry.gauge("bench.dispatch.shard.control_shed", labels).set(point.control_shed);
        registry.gauge("bench.dispatch.shard.deliveries", labels).set(point.deliveries);
      }
      for (std::size_t pair = 0; pair < pair_speedups.size(); ++pair) {
        registry.gauge("bench.dispatch.shard.pair_speedup", {{"pair", std::to_string(pair)}})
            .set(pair_speedups[pair]);
      }
      write_bench_report("dispatch", obs::render_json(registry.snapshot()));
    }
  }
  state.counters["msgs_per_sec"] = msgs_per_sec;
  state.counters["payload_allocs_per_msg"] = allocs_per_msg;
  state.counters["payload_copies_per_msg"] = copies_per_msg;
  if (!sweep.empty()) {
    const double base = sweep.front().critical_msgs_per_sec;
    for (const ShardSweepPoint& point : sweep) {
      state.counters["shard" + std::to_string(point.shards) + "_speedup"] =
          base > 0.0 ? point.critical_msgs_per_sec / base : 0.0;
    }
  }
  std::sort(pair_speedups.begin(), pair_speedups.end());
  state.counters["pair_speedup_median"] = pair_speedups[pair_speedups.size() / 2];
}
BENCHMARK(BM_ReportFanOut64x4K)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace garnet::bench

int main(int argc, char** argv) {
  // Strip the bench-specific --shards flag before google-benchmark
  // parses argv (it rejects flags it does not know).
  const auto parse_counts = [](const char* list) {
    std::vector<std::uint32_t> counts;
    for (const char* p = list; *p != '\0';) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(p, &end, 10);
      if (end == p) break;
      if (v > 0) counts.push_back(static_cast<std::uint32_t>(v));
      p = (*end == ',') ? end + 1 : end;
    }
    return counts;
  };
  if (const char* env = std::getenv("GARNET_BENCH_SHARDS"); env != nullptr && *env != '\0') {
    if (auto counts = parse_counts(env); !counts.empty()) {
      garnet::bench::g_shard_counts = std::move(counts);
    }
  }
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--shards=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      if (auto counts = parse_counts(argv[i] + std::strlen(kFlag)); !counts.empty()) {
        garnet::bench::g_shard_counts = std::move(counts);
      }
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
