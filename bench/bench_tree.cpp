// Experiment E13 — tree routing: chain depth vs relay churn.
//
// Sweeps the multi-hop chain depth (1 = source inside receiver range,
// 2 = one relay hop, 4 = three relay hops) against relay churn (none,
// or 1% crash probability per relay per 500ms protocol round) and
// reports the delivery contract the routing plane exists for: the
// fraction of offered samples that arrive at the consumer, duplicates
// past filtering (must be zero — dedup plus the relay filter close the
// re-forward window), and ttl_dropped (must be zero — a TTL expiry in
// a loop-free chain means the forest looped traffic). The canonical
// cell (depth 4 under churn) is run at two advance() cadences and its
// fault + repair journals compared byte-for-byte; the full telemetry
// snapshot lands in BENCH_tree.json and scripts/ci.sh gates on it via
// scripts/check_tree_report.py.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "garnet/runtime.hpp"
#include "obs/export.hpp"

namespace garnet::bench {
namespace {

using util::Duration;
using util::SimTime;

constexpr std::int64_t kRunMs = 40000;
constexpr std::int64_t kRoundMs = 500;   ///< One protocol round.
constexpr std::int64_t kRestartMs = 1000;

struct TreeOutcome {
  double offered = 0;
  double delivered = 0;
  double duplicates = 0;
  double delivery_ratio = 0;
  double realized_depth = 0;
  double ttl_dropped = 0;
  double orphan_events = 0;
  double reattaches = 0;
  double forwarded = 0;
  double relay_crashes = 0;
  std::string fault_journal;
  std::string tree_journal;
};

/// Pre-samples the churn schedule outside the sim: every relay rolls a
/// 1% crash chance per round, rejoining cold 1s later. The plan is a
/// pure function of the fixed seed, so the run itself draws nothing —
/// relay faults ride the journal as pure time triggers. The last 5s are
/// kept quiet so the chain re-stabilises inside the measurement window,
/// and at least one crash is guaranteed so the gate always exercises
/// the repair path.
void schedule_churn(Runtime::Config& config, const std::vector<core::SensorId>& relays) {
  if (relays.empty()) return;
  util::Rng rng(0x7C0DE);
  std::map<core::SensorId, std::int64_t> down_until;
  bool any = false;
  for (std::int64_t at = 2 * kRoundMs; at + 5000 < kRunMs; at += kRoundMs) {
    for (core::SensorId id : relays) {
      if (at < down_until[id]) continue;
      if (!rng.chance(0.01)) continue;
      net::FaultPlan::RelayFaultSpec fault;
      fault.node = id;
      fault.at = SimTime{} + Duration::millis(at);
      fault.restart_after = Duration::millis(kRestartMs);
      config.bus.faults.relay_faults.push_back(fault);
      down_until[id] = at + kRestartMs + 2000;
      any = true;
    }
  }
  if (!any) {
    net::FaultPlan::RelayFaultSpec fault;
    fault.node = relays.back();
    fault.at = SimTime{} + Duration::millis(kRunMs / 2);
    fault.restart_after = Duration::millis(kRestartMs);
    config.bus.faults.relay_faults.push_back(fault);
  }
}

/// One cell: a straight chain with `depth - 1` relays spaced 120m apart
/// (receiver range 120m, overhear range 150m — each node hears exactly
/// its chain neighbours) and a sampling source at the far end, advanced
/// in `step`-sized strides. When `json_out` is set, the snapshot gains
/// the headline bench.tree.* gauges, including the journal match
/// against the `coarse` run of the same cell at a different cadence.
TreeOutcome run_tree_cell(int depth, bool churn, Duration step,
                          const TreeOutcome* coarse = nullptr,
                          std::string* json_out = nullptr) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {800, 200}};
  config.field.seed = 0xE13;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  config.field.tree_beacons = true;
  config.field.tree.beacon_interval = Duration::millis(100);
  config.field.tree_journal_limit = 8192;
  config.bus.faults.journal_limit = 8192;

  std::vector<core::SensorId> relays;
  for (int hop = 1; hop < depth; ++hop) relays.push_back(static_cast<core::SensorId>(hop));
  const core::SensorId source = static_cast<core::SensorId>(depth);
  if (churn) schedule_churn(config, relays);

  Runtime runtime(config);
  runtime.field().medium().add_receiver({1, {0, 0}, 120});
  runtime.location().set_receiver_layout(runtime.field().medium().receivers());

  const auto chain_node = [&](core::SensorId id, bool sampling) {
    wireless::SensorNode::Config node;
    node.id = id;
    node.capabilities.relay_capable = true;
    node.relay_overhear_range_m = 150;
    node.tree = config.field.tree;
    if (sampling) {
      wireless::StreamSpec spec;
      spec.interval_ms = 200;
      node.streams.push_back(spec);
    }
    return node;
  };
  for (int hop = 1; hop < depth; ++hop) {
    runtime.deploy_sensor(chain_node(relays[static_cast<std::size_t>(hop - 1)], false),
                          std::make_unique<sim::StaticMobility>(
                              sim::Vec2{100.0 + 120.0 * (hop - 1), 0}));
  }
  runtime.deploy_sensor(chain_node(source, /*sampling=*/true),
                        std::make_unique<sim::StaticMobility>(
                            sim::Vec2{100.0 + 120.0 * (depth - 1), 0}));

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(source));
  std::map<std::pair<std::uint32_t, core::SequenceNo>, int> counts;
  consumer.set_data_handler([&](const core::DeliveryView& d) {
    ++counts[{d.message.stream_id.packed(), d.message.sequence}];
  });
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  const SimTime end = runtime.scheduler().now() + Duration::millis(kRunMs);
  while (runtime.scheduler().now() < end) runtime.run_for(step);

  TreeOutcome outcome;
  for (const auto& [key, count] : counts) {
    outcome.delivered += 1;
    if (count > 1) outcome.duplicates += count - 1;
  }
  const wireless::SensorNode* node = runtime.field().find_sensor(source);
  outcome.offered = node != nullptr ? static_cast<double>(node->messages_sent()) : 0;
  outcome.delivery_ratio = outcome.offered > 0 ? outcome.delivered / outcome.offered : 0;
  if (node != nullptr && node->router() != nullptr && node->router()->attached()) {
    outcome.realized_depth = node->router()->depth();
  }
  const wireless::tree::TreeStats& tree = runtime.field().tree_stats();
  outcome.ttl_dropped = static_cast<double>(tree.ttl_dropped);
  outcome.orphan_events = static_cast<double>(tree.orphan_events);
  outcome.reattaches = static_cast<double>(tree.attaches);
  outcome.forwarded = static_cast<double>(tree.forwarded);
  // The injector only exists when the plan is enabled (churn cells).
  if (const net::FaultInjector* injector = runtime.bus().fault_injector()) {
    outcome.relay_crashes = static_cast<double>(injector->counters().relay_crashed);
    outcome.fault_journal = injector->journal_text();
  }
  outcome.tree_journal = runtime.field().tree_journal().text();

  if (json_out != nullptr) {
    const double journal_match = coarse != nullptr &&
                                         coarse->fault_journal == outcome.fault_journal &&
                                         coarse->tree_journal == outcome.tree_journal
                                     ? 1
                                     : 0;
    obs::MetricsRegistry& registry = runtime.telemetry().registry;
    registry.add_collector([&outcome, depth, journal_match](obs::SnapshotBuilder& out) {
      out.gauge("bench.tree.depth", depth);
      out.gauge("bench.tree.realized_depth", outcome.realized_depth);
      out.gauge("bench.tree.offered", outcome.offered);
      out.gauge("bench.tree.delivered", outcome.delivered);
      out.gauge("bench.tree.delivery_ratio", outcome.delivery_ratio);
      out.gauge("bench.tree.duplicates", outcome.duplicates);
      out.gauge("bench.tree.ttl_dropped", outcome.ttl_dropped);
      out.gauge("bench.tree.orphan_events", outcome.orphan_events);
      out.gauge("bench.tree.relay_crashes", outcome.relay_crashes);
      out.gauge("bench.tree.journal_match", journal_match);
    });
    *json_out = obs::render_json(registry.snapshot());
  }
  return outcome;
}

/// Args: chain depth (hops from receiver to source); churn percent per
/// relay per 500ms round (0 or 1).
void BM_TreeDepthChurn(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const bool churn = state.range(1) != 0;

  TreeOutcome outcome;
  for (auto _ : state) {
    outcome = run_tree_cell(depth, churn, Duration::millis(kRunMs));
    benchmark::DoNotOptimize(&outcome);
  }
  state.counters["offered"] = outcome.offered;
  state.counters["delivered"] = outcome.delivered;
  state.counters["delivery_ratio"] = outcome.delivery_ratio;
  state.counters["duplicates"] = outcome.duplicates;
  state.counters["ttl_dropped"] = outcome.ttl_dropped;
  state.counters["orphans"] = outcome.orphan_events;
  state.counters["reattaches"] = outcome.reattaches;
  state.counters["forwarded"] = outcome.forwarded;
  state.counters["relay_crashes"] = outcome.relay_crashes;

  // Machine-readable exposition for the canonical cell (depth 4 under
  // churn). The cell runs once in a single 40s stride and once in 25ms
  // hops; the journals must agree byte-for-byte (the churn plan draws
  // nothing mid-run and the router draws nothing at all), and
  // scripts/ci.sh asserts delivery >= 95%, zero duplicates and zero
  // TTL expiries on the snapshot.
  if (depth == 4 && churn) {
    const TreeOutcome reference = run_tree_cell(depth, churn, Duration::millis(kRunMs));
    std::string json;
    run_tree_cell(depth, churn, Duration::millis(25), &reference, &json);
    write_bench_report("tree", json);
  }
}
BENCHMARK(BM_TreeDepthChurn)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->ArgNames({"depth", "churn_pct"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
