// Workload `field`: the E9 geometry at 4000 random-waypoint sensors with
// one firehose consumer, advanced through a fixed span of virtual time
// as fast as the host allows (closed batch). Radio, scheduler, filtering
// dedup and location carry the load; fan-out is 1.
//
// Each repetition builds a fresh Runtime from the seed, so every
// repetition must produce the same delivery digest. Message latency is
// the wall-clock sojourn from the first receiver copy entering Filtering
// to the firehose delivery; a pass-through uplink sink (the same calls
// Runtime::wire_services makes for the default configuration) stamps the
// first copy. The traced run additionally re-installs the Filtering
// message and reception sinks, and every wrapper records spans.
#include <cmath>
#include <memory>

#include "core/consumer.hpp"
#include "garnet/runtime.hpp"
#include "wireless/tree.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using garnet::Runtime;
using garnet::util::Duration;
namespace core = garnet::core;
namespace wireless = garnet::wireless;

constexpr std::size_t kSensors = 4000;
constexpr Duration kSpan = Duration::seconds(20);
/// One sampling period of every sensor: a window of ~n messages.
constexpr Duration kWindow = Duration::seconds(1);
constexpr Duration kDrain = Duration::seconds(2);
/// Sequences a sensor can reach in span + drain at a 1 s interval.
constexpr std::size_t kSeqCap = 32;

std::uint64_t frame_key(garnet::util::BytesView frame) {
  // Figure-2 header: [u8 header][u32 StreamID][u16 sequence]...
  garnet::util::ByteReader r(frame);
  (void)r.u8();
  const std::uint64_t packed = r.u32();
  const std::uint64_t seq = r.u16();
  return r.ok() ? (packed << 16) | seq : 0;
}

/// Everything one repetition measured.
struct Rep {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t delivered = 0;
  std::uint64_t digest = 0;
  std::uint64_t failed = 0;
  std::uint64_t copies_in = 0;
  std::uint64_t messages_out = 0;
  std::uint64_t uplink_frames = 0;
  std::uint64_t uplink_deliveries = 0;
  std::vector<std::string> problems;
};

/// Samples of the repetitions of one kind (traced or not). Reserved
/// before the first repetition so the timed path never grows them.
struct Samples {
  std::vector<double> latency_ns;  ///< Per delivered message, this repetition.
  std::vector<double> window_rate; ///< Messages per wall second, per window.
  std::vector<std::size_t> window_rep;  ///< Repetition of each window.
  std::vector<double> setup_s;     ///< Per repetition, like the four below.
  std::vector<double> speed;       ///< host_speed() around the repetition.
  std::vector<double> rate;
  std::vector<double> latency_p50_ns;
  std::vector<double> latency_p99_ns;
  double latency_tail_q = 0;
  CounterTotals counters;
  double run_s = 0;
  std::uint64_t delivered = 0;

  void reserve(std::size_t reps) {
    latency_ns.reserve(kSensors * kSeqCap);
    window_rate.reserve(reps * static_cast<std::size_t>(kSpan.ns / kWindow.ns));
    window_rep.reserve(window_rate.capacity());
  }
};

class FieldRun {
 public:
  FieldRun(std::uint64_t seed, SpanRecorder* spans) : seed_(seed), spans_(spans) {}

  Rep run(Samples& samples) {
    Rep rep;
    seen_.reset((kSensors + 1) * kSeqCap);
    first_copy_ns_.assign((kSensors + 1) * kSeqCap, 0);
    samples.latency_ns.clear();
    latency_ns_ = &samples.latency_ns;

    const std::int64_t t0 = now_ns();
    Runtime::Config config;
    const double side = std::sqrt(static_cast<double>(kSensors)) * 120.0;
    config.field.area = {{0, 0}, {side, side}};
    config.field.seed = seed_;
    config.field.radio.base_loss = 0.05;
    config.field.radio.edge_loss = 0.25;
    auto runtime = std::make_unique<Runtime>(config);
    const std::size_t receivers = kSensors / 20;
    runtime->deploy_receivers(receivers, side / std::sqrt(static_cast<double>(receivers)) + 80);
    wireless::SensorField::PopulationSpec spec;
    spec.first_id = 1;
    spec.count = kSensors;
    spec.interval_ms = 1000;
    runtime->deploy_population(spec);
    core::Consumer consumer(runtime->bus(), "consumer.firehose");
    runtime->provision(consumer, "firehose");
    consumer.set_data_handler([this](const core::DeliveryView& d) { on_delivery(d); });
    consumer.subscribe(core::StreamPattern::everything());
    runtime->run_for(Duration::millis(50));
    rep.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

    rewire(*runtime);
    const Counters before =
        Counters::read(runtime->telemetry().registry, runtime->scheduler().executed());
    runtime->start_sensors();
    const std::int64_t run0 = now_ns();
    for (Duration done{0}; done < kSpan; done = done + kWindow) {
      const std::uint64_t received = received_;
      const std::int64_t w0 = now_ns();
      runtime->run_for(kWindow);
      const auto wall = static_cast<double>(now_ns() - w0);
      if (received_ > received) {
        samples.window_rate.push_back(static_cast<double>(received_ - received) / (wall * 1e-9));
        samples.window_rep.push_back(samples.rate.size());
      }
    }
    rep.run_s = static_cast<double>(now_ns() - run0) * 1e-9;
    rep.delivered = received_;
    const TailSummary latency = summarize(samples.latency_ns);
    samples.latency_p50_ns.push_back(latency.p50);
    samples.latency_p99_ns.push_back(latency.tail);
    samples.latency_tail_q = latency.tail_q;
    samples.counters.add(
        before, Counters::read(runtime->telemetry().registry, runtime->scheduler().executed()));

    // Untimed drain, then the conservation and exactly-once checks.
    runtime->field().stop_all();
    runtime->run_for(kDrain);
    const core::FilteringStats& filtering = runtime->filtering().stats();
    const obs::MetricsSnapshot snap = runtime->telemetry().registry.snapshot();
    rep.copies_in = filtering.copies_in;
    rep.messages_out = filtering.messages_out;
    rep.uplink_frames = snap.counter("garnet.radio.uplink_frames");
    rep.uplink_deliveries = snap.counter("garnet.radio.uplink_deliveries");
    rep.digest = digest_.value;
    rep.failed = bad_;
    if (filtering.messages_out != received_) {
      rep.failed += filtering.messages_out > received_ ? filtering.messages_out - received_
                                                       : received_ - filtering.messages_out;
      rep.problems.push_back(line("field: filtering forwarded %llu, firehose received %llu",
                                  static_cast<unsigned long long>(filtering.messages_out),
                                  static_cast<unsigned long long>(received_)));
    }
    if (const auto orphaned = runtime->dispatch().stats().orphaned; orphaned != 0) {
      rep.failed += orphaned;
      rep.problems.push_back(
          line("field: %llu messages orphaned", static_cast<unsigned long long>(orphaned)));
    }
    if (bad_ != 0) {
      rep.problems.push_back(line("field: %llu duplicate or foreign deliveries",
                                  static_cast<unsigned long long>(bad_)));
    }
    return rep;
  }

 private:
  /// Bit index of (sensor, seq), or nullopt for a stream this field
  /// never produces.
  static std::optional<std::size_t> slot(std::uint32_t packed, std::uint16_t seq) {
    const std::uint32_t sensor = packed >> 8;
    if ((packed & 0xFF) != 0 || sensor == 0 || sensor > kSensors || seq >= kSeqCap) {
      return std::nullopt;
    }
    return sensor * kSeqCap + seq;
  }

  void stamp_first_copy(std::uint64_t key) {
    const auto s = slot(static_cast<std::uint32_t>(key >> 16), static_cast<std::uint16_t>(key));
    if (s && first_copy_ns_[*s] == 0) first_copy_ns_[*s] = now_ns();
  }

  void on_delivery(const core::DeliveryView& d) {
    const std::int64_t at = now_ns();
    const core::DataMessageView& m = d.message;
    const auto s = slot(m.stream_id.packed(), m.sequence);
    if (!s || !seen_.insert(*s)) {
      ++bad_;
      return;
    }
    ++received_;
    if (first_copy_ns_[*s] != 0) {
      latency_ns_->push_back(static_cast<double>(at - first_copy_ns_[*s]));
    }
    digest_.add((static_cast<std::uint64_t>(m.stream_id.packed()) << 16) | m.sequence);
    std::uint64_t word = m.payload.size();
    for (std::size_t i = 0; i < m.payload.size(); ++i) {
      word = (word << 8) | static_cast<std::uint8_t>(m.payload[i]);
      if (i % 8 == 7) digest_.add(word);
    }
    digest_.add(word);
  }

  /// Re-installs the uplink sink with a pass-through that stamps each
  /// message's first copy; traced runs also wrap the Filtering sinks.
  /// Every wrapper makes the call Runtime::wire_services makes when
  /// admission and recovery are off.
  void rewire(Runtime& runtime) {
    core::FilteringService& filtering = runtime.filtering();
    runtime.field().medium().set_uplink_sink([this, &filtering](
                                                 const wireless::ReceptionReport& report) {
      auto decision = wireless::tree::decide_at_sink(report.frame);
      using Verdict = wireless::tree::SinkDecision::Verdict;
      if (decision.verdict == Verdict::kBeacon || decision.verdict == Verdict::kCorrupt) return;
      if (decision.verdict == Verdict::kInner) {
        wireless::ReceptionReport inner = report;
        inner.frame = std::move(decision.inner);
        ingest(filtering, inner);
        return;
      }
      ingest(filtering, report);
    });
    if (spans_ == nullptr) return;

    SpanRecorder& spans = *spans_;
    core::DispatchingService& dispatch = runtime.dispatch();
    core::LocationService& location = runtime.location();
    filtering.set_message_sink([&spans, &dispatch](const core::DataMessage& message,
                                                   garnet::util::SimTime heard) {
      spans.begin(kDispatchOnFiltered,
                  (static_cast<std::uint64_t>(message.stream_id.packed()) << 16) |
                      message.sequence);
      dispatch.on_filtered(message, heard);
      spans.end();
    });
    filtering.set_reception_sink([&spans, &location](const core::ReceptionEvent& event) {
      spans.begin(kLocationObserve, spans.open_key());
      location.observe(event);
      spans.end();
    });
  }

  void ingest(core::FilteringService& filtering, const wireless::ReceptionReport& report) {
    const std::uint64_t key = frame_key(report.frame);
    stamp_first_copy(key);
    if (spans_ == nullptr) {
      filtering.ingest(report);
      return;
    }
    spans_->begin(kFilteringIngest, key);
    filtering.ingest(report);
    spans_->end();
  }

  std::uint64_t seed_;
  SpanRecorder* spans_;
  SeenSet seen_;
  std::vector<std::int64_t> first_copy_ns_;
  std::vector<double>* latency_ns_ = nullptr;
  Digest digest_;
  std::uint64_t received_ = 0;
  std::uint64_t bad_ = 0;
};

}  // namespace

Result run_field(const Options& options) {
  constexpr int kMaxReps = 256;
  Result result;
  // Under --trace 1 the repetitions alternate untraced/traced: the
  // untraced half is the overhead baseline and the digest to match.
  Samples plain;
  Samples traced;
  plain.reserve(options.trace ? kMaxReps / 2 : kMaxReps);
  if (options.trace) traced.reserve(kMaxReps / 2);
  SpanRecorder spans;
  if (options.trace) spans.reserve(2'000'000);
  LayerTotals layers;
  std::uint64_t digest = 0;
  std::uint64_t copies_in = 0;
  std::uint64_t messages_out = 0;
  std::uint64_t uplink_frames = 0;
  std::uint64_t uplink_deliveries = 0;

  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const int min_reps = options.trace ? 4 : 3;
  for (int i = 0; i < kMaxReps && (i < min_reps || now_ns() < deadline); ++i) {
    const bool is_traced = options.trace && i % 2 == 1;
    spans.clear();
    FieldRun run(options.seed, is_traced ? &spans : nullptr);
    Samples& samples = is_traced ? traced : plain;
    const double speed_before = host_speed();
    const Rep rep = run.run(samples);
    samples.speed.push_back((speed_before + host_speed()) / 2);
    if (i == 0) digest = rep.digest;
    if (rep.digest != digest) {
      result.fail(line("field: repetition %d digest %016llx != %016llx%s", i,
                       static_cast<unsigned long long>(rep.digest),
                       static_cast<unsigned long long>(digest), is_traced ? " (traced)" : ""));
    }
    result.attempted += rep.messages_out;
    result.failed += rep.failed;
    for (const std::string& p : rep.problems) result.fail(p);
    samples.setup_s.push_back(rep.setup_s);
    samples.rate.push_back(static_cast<double>(rep.delivered) / rep.run_s);
    samples.run_s += rep.run_s;
    samples.delivered += rep.delivered;
    if (is_traced) {
      layers.add(spans.spans());
      copies_in += rep.copies_in;
      messages_out += rep.messages_out;
      uplink_frames += rep.uplink_frames;
      uplink_deliveries += rep.uplink_deliveries;
      if (i == 1 && !options.trace_dir.empty()) {
        write_spans(options.trace_dir, "field", spans.spans());
      }
    }
  }

  // Every time is scaled to an undisturbed host: multiplied by the
  // repetition's host speed (rates divided by it).
  std::vector<double> setup;
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::size_t r = 0; r < plain.rate.size(); ++r) {
    setup.push_back(plain.setup_s[r] * plain.speed[r]);
    p50.push_back(plain.latency_p50_ns[r] * plain.speed[r]);
    p99.push_back(plain.latency_p99_ns[r] * plain.speed[r]);
  }
  std::vector<double> windows;
  for (std::size_t w = 0; w < plain.window_rate.size(); ++w) {
    windows.push_back(plain.window_rate[w] / plain.speed[plain.window_rep[w]]);
  }
  // The rate 90% of one-second windows sustained.
  const double low_q = 1.0 - reportable_tail(windows.size(), kSustainedShare).value_or(0.5);
  const double sustained = quantile(windows, low_q);

  result.table.push_back(line("field: %zu sensors, %zu repetitions of %.0f s virtual, seed %llu",
                              kSensors, plain.rate.size() + traced.rate.size(),
                              kSpan.to_seconds(), static_cast<unsigned long long>(options.seed)));
  result.table.push_back(line("  as measured, median over %zu untraced reps: %.0f msg/s (min %.0f, "
                              "max %.0f), set-up %.4f s; host speed %.2f",
                              plain.rate.size(), median(plain.rate),
                              *std::min_element(plain.rate.begin(), plain.rate.end()),
                              *std::max_element(plain.rate.begin(), plain.rate.end()),
                              median(plain.setup_s), median(plain.speed)));
  const double rate = median_at_speed_one(plain.rate, plain.speed);
  result.table.push_back(line("  at host speed 1: %.0f msg/s, set-up %.4f s", rate, median(setup)));
  result.table.push_back(line("  sojourn first copy -> firehose (median over reps): p50 %.1f us, "
                              "p%g %.1f us (n=%zu per rep)",
                              median(p50) * 1e-3, plain.latency_tail_q * 100, median(p99) * 1e-3,
                              plain.latency_ns.size()));
  result.table.push_back(line("  rate sustained by %g%% of 1 s windows: %.0f msg/s (n=%zu)",
                              (1 - low_q) * 100, sustained, windows.size()));

  auto& m = result.metrics;
  if (!options.trace) {
    m["setup_s"] = median(setup);
    m["msgs_per_s"] = rate;
    m["latency_p50_us"] = median(p50) * 1e-3;
    m["latency_p99_us"] = median(p99) * 1e-3;
    m["max_rate_msgs_per_s"] = sustained;
    m["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  const auto delivered = static_cast<double>(traced.delivered);
  traced.counters.report(m, delivered);
  m["field.other_self_ns_per_msg"] =
      (traced.run_s * 1e9 - static_cast<double>(layers.top_level_ns)) / delivered;
  m["wireless.copies_per_frame"] =
      static_cast<double>(uplink_deliveries) / static_cast<double>(uplink_frames);
  m["filtering.self_ns_per_copy"] = static_cast<double>(layers.self_ns[kFilteringIngest]) /
                                    static_cast<double>(layers.count[kFilteringIngest]);
  m["filtering.useful_ratio"] = static_cast<double>(messages_out) / static_cast<double>(copies_in);
  m["location.self_ns_per_copy"] = static_cast<double>(layers.self_ns[kLocationObserve]) /
                                   static_cast<double>(layers.count[kLocationObserve]);
  m["dispatch.ns_per_msg"] = static_cast<double>(layers.total_ns[kDispatchOnFiltered]) /
                             static_cast<double>(layers.count[kDispatchOnFiltered]);
  m["bench.trace_overhead_pct"] =
      trace_overhead_pct(median_at_speed_one(plain.rate, plain.speed),
                         median_at_speed_one(traced.rate, traced.speed));
  return result;
}

}  // namespace perfbench
