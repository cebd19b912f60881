// Experiment E2 — duplicate elimination under receiver overlap, and
// ablation A2 — reorder-buffer depth vs in-order delivery.
//
// Paper claim (§4.2): overlapping receivers "improve data reception but
// cause potential duplication of data messages"; the Filtering Service
// "reconstructs the data streams by eliminating duplicate data messages".
// Sweeps the overlap factor (mean receivers hearing each frame) and the
// per-copy loss rate; reports filter throughput (wall-clock) plus the
// duplication ratio in and out. The expected shape: dup ratio in grows
// linearly with overlap, dup ratio out stays 0, and throughput degrades
// only mildly with overlap. BM_FilterStreamAge checks that the per-copy
// cost does not grow with how long a stream has been running.
#include <algorithm>

#include "bench/common.hpp"
#include "core/filtering.hpp"
#include "sim/scheduler.hpp"

namespace garnet::bench {
namespace {

using util::Duration;

/// Pre-builds a deterministic arrival schedule with the given mean
/// overlap (copies per frame) and loss rate.
std::vector<wireless::ReceptionReport> make_schedule(std::size_t messages, double overlap,
                                                     double loss, std::uint64_t seed,
                                                     std::size_t streams = 16) {
  util::Rng rng(seed);
  std::vector<wireless::ReceptionReport> schedule;
  schedule.reserve(static_cast<std::size_t>(static_cast<double>(messages) * overlap) + 16);

  std::vector<core::SequenceNo> next_seq(streams, 0);
  for (std::size_t i = 0; i < messages; ++i) {
    const auto stream = static_cast<core::SensorId>(rng.below(streams) + 1);
    core::DataMessage msg;
    msg.stream_id = {stream, 0};
    msg.sequence = next_seq[stream - 1]++;
    msg.payload = random_payload(rng, 24);
    const util::Bytes wire = core::encode(msg);

    // Number of receivers hearing this frame ~ overlap on average.
    const auto base = static_cast<std::size_t>(overlap);
    const std::size_t copies = base + (rng.chance(overlap - static_cast<double>(base)) ? 1 : 0);
    for (std::size_t c = 0; c < std::max<std::size_t>(copies, 1); ++c) {
      if (rng.chance(loss)) continue;
      schedule.push_back(wireless::ReceptionReport{static_cast<wireless::ReceiverId>(c + 1),
                                                   -40.0 - rng.uniform() * 30.0,
                                                   {},
                                                   wire});
    }
  }
  // Local shuffle models radio jitter (bounded displacement).
  for (std::size_t i = 0; i + 1 < schedule.size(); ++i) {
    const std::size_t j =
        i + rng.below(std::min<std::uint64_t>(6, schedule.size() - i));
    std::swap(schedule[i], schedule[j]);
  }
  return schedule;
}

/// Args: overlap x10 (10 = no overlap), loss percent.
void BM_FilterDedup(benchmark::State& state) {
  const double overlap = static_cast<double>(state.range(0)) / 10.0;
  const double loss = static_cast<double>(state.range(1)) / 100.0;
  const auto schedule = make_schedule(20'000, overlap, loss, 99);

  std::uint64_t out = 0;
  std::uint64_t dups = 0;
  std::uint64_t copies = 0;
  for (auto _ : state) {
    sim::Scheduler scheduler;
    core::FilteringService filter(scheduler, {});
    std::uint64_t delivered = 0;
    filter.set_message_sink([&](const core::DataMessage&, util::SimTime) { ++delivered; });
    for (const auto& report : schedule) filter.ingest(report);
    benchmark::DoNotOptimize(delivered);
    out = delivered;
    dups = filter.stats().duplicates_dropped;
    copies = filter.stats().copies_in;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * schedule.size()));
  state.counters["copies_in"] = static_cast<double>(copies);
  state.counters["unique_out"] = static_cast<double>(out);
  state.counters["dup_ratio_in"] =
      out > 0 ? static_cast<double>(copies) / static_cast<double>(out) : 0.0;
  state.counters["dups_removed"] = static_cast<double>(dups);
}
BENCHMARK(BM_FilterDedup)
    ->ArgsProduct({{10, 20, 40, 80}, {0, 15, 30}})
    ->ArgNames({"overlap_x10", "loss_pct"});

/// Ablation A2: reorder-buffer depth vs in-order delivery fraction under
/// jittered arrivals. Depth 0 forwards in arrival order; deeper buffers
/// restore sequence order at the cost of latency and memory.
void BM_FilterReorderDepth(benchmark::State& state) {
  const auto depth = static_cast<std::uint16_t>(state.range(0));
  const auto schedule = make_schedule(20'000, 2.0, 0.05, 7, /*streams=*/4);

  double in_order_fraction = 0;
  for (auto _ : state) {
    sim::Scheduler scheduler;
    core::FilteringService::Config config;
    config.reorder_depth = depth;
    config.reorder_timeout = Duration::millis(10);
    core::FilteringService filter(scheduler, config);

    std::vector<core::SequenceNo> last_seq(5, 0xFFFF);
    std::uint64_t in_order = 0;
    std::uint64_t total = 0;
    filter.set_message_sink([&](const core::DataMessage& msg, util::SimTime) {
      ++total;
      const auto idx = msg.stream_id.sensor;
      if (static_cast<core::SequenceNo>(last_seq[idx] + 1) == msg.sequence) ++in_order;
      last_seq[idx] = msg.sequence;
    });
    // Arrivals spaced in virtual time so gap timers interleave with
    // traffic instead of firing between every pair of copies.
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      scheduler.schedule_at(util::SimTime{} + Duration::micros(200 * static_cast<std::int64_t>(i)),
                            [&filter, &schedule, i] { filter.ingest(schedule[i]); });
    }
    scheduler.run();
    in_order_fraction = total > 0 ? static_cast<double>(in_order) / static_cast<double>(total) : 0;
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * schedule.size()));
  state.counters["in_order_fraction"] = in_order_fraction;
}
BENCHMARK(BM_FilterReorderDepth)->Arg(0)->Arg(4)->Arg(16)->Arg(64)->ArgName("depth");

/// Per-copy cost as streams age. Arg: sequences each of 400 streams has
/// already carried. A timed block of 100 more sequences per stream, three
/// copies each, then runs on top. Dedup state that grows with a stream's
/// history (a seen-set that is walked or pruned per new sequence) shows
/// up as time_per_copy rising with the arg; constant-time state stays flat.
void BM_FilterStreamAge(benchmark::State& state) {
  constexpr std::uint32_t kStreams = 400;
  constexpr std::uint32_t kBlock = 100;
  constexpr std::uint32_t kCopies = 3;
  const auto age = static_cast<std::uint32_t>(state.range(0));

  const auto report = [](std::uint32_t stream, std::uint32_t seq, std::uint32_t copy) {
    core::DataMessage msg;
    msg.stream_id = {stream + 1, 0};
    msg.sequence = static_cast<core::SequenceNo>(seq);
    msg.payload = util::Bytes(24);
    return wireless::ReceptionReport{copy + 1, -50.0, {}, core::encode(msg)};
  };
  std::vector<wireless::ReceptionReport> block;
  block.reserve(std::size_t{kStreams} * kBlock * kCopies);
  for (std::uint32_t seq = age; seq < age + kBlock; ++seq) {
    for (std::uint32_t stream = 0; stream < kStreams; ++stream) {
      for (std::uint32_t copy = 0; copy < kCopies; ++copy) {
        block.push_back(report(stream, seq, copy));
      }
    }
  }

  for (auto _ : state) {
    state.PauseTiming();
    sim::Scheduler scheduler;
    core::FilteringService filter(scheduler, {});
    for (std::uint32_t stream = 0; stream < kStreams; ++stream) {
      for (std::uint32_t seq = 0; seq < age; ++seq) {
        filter.note_seen({stream + 1, 0}, static_cast<core::SequenceNo>(seq));
      }
    }
    state.ResumeTiming();
    for (const auto& copy : block) filter.ingest(copy);
    benchmark::DoNotOptimize(filter.stats().messages_out);
  }

  const double copies = static_cast<double>(state.iterations() * block.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(copies));
  state.counters["time_per_copy"] =
      benchmark::Counter(copies, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FilterStreamAge)->Arg(0)->Arg(1000)->Arg(4000)->ArgName("age")->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
