// Workload `fanout`: no radio. Bench-generated Figure-2 messages (4 KB
// payloads over 1024 streams) enter through Runtime::inject_external in
// fixed batches, with virtual time advanced between batches. 64
// in-process consumers: 32 subscribe to everything, 32 hold per-sensor
// patterns covering 8 sensors each, so every message fans out to 33.
// Every other batch one consumer drops all its subscriptions and the one
// dropped before it resubscribes (control writes), and crash recovery is
// on with delta checkpoints (per-message cursor op-log records plus
// periodic captures: state writes beside the data reads).
//
// Expected deliveries are known exactly: a consumer unsubscribed at
// boundary 2u misses batches 2u+1 and 2u+2 (the RPCs complete inside the
// batch's virtual span, after that batch was already dispatched).
#include <cstring>
#include <memory>

#include "core/consumer.hpp"
#include "garnet/runtime.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using garnet::Runtime;
using garnet::util::Duration;
namespace core = garnet::core;

constexpr std::size_t kSensors = 256;
constexpr std::size_t kStreamsPerSensor = 4;
constexpr std::size_t kStreams = kSensors * kStreamsPerSensor;
constexpr std::size_t kConsumers = 64;
constexpr std::size_t kWildcardConsumers = 32;
constexpr std::size_t kSensorsPerConsumer = kSensors / (kConsumers - kWildcardConsumers);
constexpr std::size_t kFanout = kWildcardConsumers + 1;
constexpr std::size_t kPayloadBytes = 4096;
constexpr std::size_t kPayloadPool = 64;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kBatches = 256;
constexpr std::size_t kMessages = kBatch * kBatches;
constexpr Duration kBatchSpan = Duration::millis(5);
constexpr Duration kSettle = Duration::millis(20);
constexpr Duration kCheckpointInterval = Duration::millis(250);

/// Inputs derived from the seed, generated before any timing.
struct Inputs {
  std::vector<garnet::util::Bytes> payloads;  ///< kPayloadPool x kPayloadBytes.
  std::vector<std::uint16_t> stream_of;       ///< Message index -> stream slot.
  std::vector<std::uint16_t> slot_rank;       ///< Stream slot -> position in a round.
  std::vector<std::uint8_t> payload_of;       ///< Message index -> pool entry.

  explicit Inputs(std::uint64_t seed) {
    garnet::util::Rng rng(seed);
    payloads.resize(kPayloadPool);
    for (std::size_t p = 0; p < kPayloadPool; ++p) {
      payloads[p].resize(kPayloadBytes);
      for (auto& b : payloads[p]) b = static_cast<std::byte>(rng.next());
      // The first word names the entry, so a delivery's payload can be
      // matched to the entry it must equal without a full compare.
      const std::uint64_t tag = p;
      std::memcpy(payloads[p].data(), &tag, sizeof tag);
    }
    // Each round of kStreams messages visits every stream once, in a
    // seeded order.
    std::vector<std::uint16_t> order(kStreams);
    for (std::size_t i = 0; i < kStreams; ++i) order[i] = static_cast<std::uint16_t>(i);
    for (std::size_t i = kStreams - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
    slot_rank.resize(kStreams);
    for (std::size_t i = 0; i < kStreams; ++i) slot_rank[order[i]] = static_cast<std::uint16_t>(i);
    stream_of.resize(kMessages);
    payload_of.resize(kMessages);
    for (std::size_t g = 0; g < kMessages; ++g) {
      stream_of[g] = order[g % kStreams];
      payload_of[g] = static_cast<std::uint8_t>(rng.below(kPayloadPool));
    }
  }

  static core::StreamId stream_id(std::size_t slot) {
    return {static_cast<core::SensorId>(1 + slot / kStreamsPerSensor),
            static_cast<core::InternalStreamId>(slot % kStreamsPerSensor)};
  }
};

/// Whether consumer `c`'s patterns match stream slot `slot`.
bool subscribed_to(std::size_t c, std::size_t slot) {
  if (c < kWildcardConsumers) return true;
  return (slot / kStreamsPerSensor) % (kConsumers - kWildcardConsumers) == c - kWildcardConsumers;
}

/// Whether consumer `c` is between its unsubscribe and resubscribe
/// during batch `b`.
bool churned_out(std::size_t c, std::size_t b) {
  return b >= 1 && ((b - 1) / 2) % kConsumers == c;
}

bool expected(const Inputs& in, std::size_t c, std::size_t g) {
  return subscribed_to(c, in.stream_of[g]) && !churned_out(c, g / kBatch);
}

std::vector<core::StreamPattern> patterns_of(std::size_t c) {
  if (c < kWildcardConsumers) return {core::StreamPattern::everything()};
  std::vector<core::StreamPattern> out;
  for (std::size_t k = 0; k < kSensorsPerConsumer; ++k) {
    core::StreamPattern p = core::StreamPattern::everything();
    p.sensor = static_cast<core::SensorId>(1 + (c - kWildcardConsumers) +
                                           k * (kConsumers - kWildcardConsumers));
    out.push_back(p);
  }
  return out;
}

struct Rep {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t expected = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::uint64_t ops_logged = 0;
  std::uint64_t delta_tick_bytes = 0;
  std::uint64_t delta_tick_captures = 0;
  std::vector<std::string> problems;
};

struct Samples {
  std::vector<double> batch_ns;  ///< kBatches per repetition, in order.
  std::vector<double> setup_s;   ///< Per repetition, like the two below.
  std::vector<double> speed;     ///< host_speed() around the repetition.
  std::vector<double> rate;
  CounterTotals counters;
  std::uint64_t messages = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t ops_logged = 0;
  std::uint64_t delta_tick_bytes = 0;
  std::uint64_t delta_tick_captures = 0;
};

class FanoutRun {
 public:
  FanoutRun(const Inputs& inputs, SpanRecorder* spans) : in_(inputs), spans_(spans) {}

  Rep run(Samples& samples) {
    Rep rep;
    for (auto& seen : seen_) seen.reset(kMessages);
    received_.fill(0);

    const std::int64_t t0 = now_ns();
    Runtime::Config config;
    config.recovery.enabled = true;
    config.recovery.full_checkpoint_interval = 4;
    config.recovery.checkpoint_interval = kCheckpointInterval;
    runtime_ = std::make_unique<Runtime>(config);
    for (std::size_t c = 0; c < kConsumers; ++c) {
      consumers_[c] = std::make_unique<core::Consumer>(runtime_->bus(),
                                                       "consumer.fan" + std::to_string(c));
      runtime_->provision(*consumers_[c], "fan" + std::to_string(c));
      consumers_[c]->set_data_handler(
          [this, c](const core::DeliveryView& d) { on_delivery(c, d); });
      subscribe(c);
    }
    runtime_->run_for(kSettle);
    rep.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

    garnet::RecoveryHarness& recovery = *runtime_->recovery();
    obs::MetricsRegistry& registry = runtime_->telemetry().registry;
    const std::uint64_t ops_before = recovery.stats().ops_logged;
    const Counters before = Counters::read(registry, runtime_->scheduler().executed());
    const std::int64_t run0 = now_ns();
    std::uint64_t g = 0;
    for (std::size_t b = 0; b < kBatches; ++b) {
      const std::int64_t b0 = now_ns();
      if (b % 2 == 0) churn(b / 2);
      for (std::size_t i = 0; i < kBatch; ++i, ++g) inject(g);
      // Odd batches carry no control RPCs, so a checkpoint tick inside
      // one is the only poster during its span (traced runs measure the
      // replication bytes of all-delta ticks there).
      const bool tick = spans_ != nullptr && b % 2 == 1 && crosses_tick(b);
      std::uint64_t posted0 = 0;
      std::uint64_t bytes0 = 0;
      const garnet::RecoveryStats stats0 = recovery.stats();
      if (tick) read_bus(posted0, bytes0);
      if (spans_ != nullptr) spans_->begin(kRunFor, 0);
      runtime_->run_for(kBatchSpan);
      if (spans_ != nullptr) spans_->end();
      if (tick) {
        std::uint64_t posted1 = 0;
        std::uint64_t bytes1 = 0;
        read_bus(posted1, bytes1);
        const garnet::RecoveryStats& stats1 = recovery.stats();
        const std::uint64_t deltas = stats1.deltas_taken - stats0.deltas_taken;
        if (deltas > 0 && stats1.checkpoints_taken == stats0.checkpoints_taken &&
            posted1 - posted0 == deltas) {
          rep.delta_tick_bytes += bytes1 - bytes0;
          rep.delta_tick_captures += deltas;
        }
      }
      samples.batch_ns.push_back(static_cast<double>(now_ns() - b0));
    }
    rep.run_s = static_cast<double>(now_ns() - run0) * 1e-9;
    samples.counters.add(before, Counters::read(registry, runtime_->scheduler().executed()));
    rep.ops_logged = recovery.stats().ops_logged - ops_before;

    // Let the last resubscribe land, then check every consumer's set.
    runtime_->run_for(kSettle);
    check(rep);
    for (auto& consumer : consumers_) consumer.reset();
    runtime_.reset();
    return rep;
  }

 private:
  void subscribe(std::size_t c) {
    const std::vector<core::StreamPattern> patterns = patterns_of(c);
    ids_[c].assign(patterns.size(), 0);
    for (std::size_t k = 0; k < patterns.size(); ++k) {
      consumers_[c]->subscribe(patterns[k], [this, c, k](auto result) {
        if (result.ok()) {
          ids_[c][k] = result.value();
        } else {
          ++rpc_failures_;
        }
      });
    }
  }

  /// Boundary 2u: consumer u-1 comes back, consumer u leaves.
  void churn(std::size_t u) {
    if (u >= 1) subscribe((u - 1) % kConsumers);
    const std::size_t leaving = u % kConsumers;
    for (const core::SubscriptionId id : ids_[leaving]) consumers_[leaving]->unsubscribe(id);
  }

  void inject(std::uint64_t g) {
    const std::size_t slot = in_.stream_of[g];
    core::DataMessageView message;
    message.stream_id = Inputs::stream_id(slot);
    message.sequence = static_cast<core::SequenceNo>(g / kStreams);
    message.payload = in_.payloads[in_.payload_of[g]];
    if (spans_ == nullptr) {
      runtime_->inject_external(message);
      return;
    }
    spans_->begin(kInjectExternal,
                  (static_cast<std::uint64_t>(message.stream_id.packed()) << 16) |
                      message.sequence);
    runtime_->inject_external(message);
    spans_->end();
  }

  /// Whether batch b's virtual span ends on a checkpoint tick.
  static bool crosses_tick(std::size_t b) {
    const std::int64_t end = (kSettle + kBatchSpan * static_cast<std::int64_t>(b + 1)).ns;
    return end % kCheckpointInterval.ns == 0;
  }

  void read_bus(std::uint64_t& posted, std::uint64_t& bytes) const {
    const obs::MetricsSnapshot snap = runtime_->telemetry().registry.snapshot();
    posted = snap.counter("garnet.bus.posted");
    bytes = snap.counter("garnet.bus.bytes");
  }

  void on_delivery(std::size_t c, const core::DeliveryView& d) {
    const core::DataMessageView& m = d.message;
    const std::size_t sensor = m.stream_id.sensor;
    if (sensor == 0 || sensor > kSensors || m.stream_id.stream >= kStreamsPerSensor ||
        m.sequence >= kMessages / kStreams) {
      ++corrupt_;
      return;
    }
    const std::size_t slot = (sensor - 1) * kStreamsPerSensor + m.stream_id.stream;
    const std::size_t g = static_cast<std::size_t>(m.sequence) * kStreams + in_.slot_rank[slot];
    if (!seen_[c].insert(g)) {
      ++duplicates_;
      return;
    }
    ++received_[c];
    digest_.add((static_cast<std::uint64_t>(c) << 32) | g);
    const garnet::util::Bytes& want = in_.payloads[in_.payload_of[g]];
    // Every delivery: size and both end words; consumer 0: every byte.
    bool intact = m.payload.size() == want.size() &&
                  std::memcmp(m.payload.data(), want.data(), 8) == 0 &&
                  std::memcmp(m.payload.data() + want.size() - 8, want.data() + want.size() - 8,
                              8) == 0;
    if (intact && c == 0) intact = std::memcmp(m.payload.data(), want.data(), want.size()) == 0;
    if (!intact) ++corrupt_;
  }

  void check(Rep& rep) {
    std::uint64_t missing = 0;
    std::uint64_t unexpected = 0;
    for (std::size_t c = 0; c < kConsumers; ++c) {
      for (std::size_t g = 0; g < kMessages; ++g) {
        const bool want = expected(in_, c, g);
        const bool got = seen_[c].contains(g);
        rep.expected += want ? 1 : 0;
        missing += want && !got ? 1 : 0;
        unexpected += got && !want ? 1 : 0;
      }
      rep.deliveries += received_[c];
    }
    rep.failed = missing + unexpected + duplicates_ + corrupt_;
    rep.digest = digest_.value;
    if (rep.failed != 0 || rpc_failures_ != 0) {
      rep.problems.push_back(
          line("fanout: %llu missing, %llu unexpected, %llu duplicate, %llu corrupt, "
               "%llu failed subscription RPCs",
               static_cast<unsigned long long>(missing),
               static_cast<unsigned long long>(unexpected),
               static_cast<unsigned long long>(duplicates_),
               static_cast<unsigned long long>(corrupt_),
               static_cast<unsigned long long>(rpc_failures_)));
    }
  }

  const Inputs& in_;
  SpanRecorder* spans_;
  std::unique_ptr<Runtime> runtime_;
  std::array<std::unique_ptr<core::Consumer>, kConsumers> consumers_;
  std::array<std::vector<core::SubscriptionId>, kConsumers> ids_;
  std::array<SeenSet, kConsumers> seen_;
  std::array<std::uint64_t, kConsumers> received_{};
  std::uint64_t duplicates_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t rpc_failures_ = 0;
  Digest digest_;
};

}  // namespace

Result run_fanout(const Options& options) {
  constexpr int kMaxReps = 200;
  Result result;
  const Inputs inputs(options.seed);
  Samples plain;
  Samples traced;
  plain.batch_ns.reserve(kMaxReps * kBatches);
  traced.batch_ns.reserve(kMaxReps * kBatches);
  SpanRecorder spans;
  if (options.trace) spans.reserve(kMessages + kBatches);
  LayerTotals layers;
  std::uint64_t digest = 0;

  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  const int min_reps = options.trace ? 4 : 3;
  for (int i = 0; i < kMaxReps && (i < min_reps || now_ns() < deadline); ++i) {
    const bool is_traced = options.trace && i % 2 == 1;
    spans.clear();
    Samples& samples = is_traced ? traced : plain;
    FanoutRun run(inputs, is_traced ? &spans : nullptr);
    const double speed_before = host_speed();
    const Rep rep = run.run(samples);
    samples.speed.push_back((speed_before + host_speed()) / 2);
    if (i == 0) digest = rep.digest;
    if (rep.digest != digest) {
      result.fail(line("fanout: repetition %d digest %016llx != %016llx%s", i,
                       static_cast<unsigned long long>(rep.digest),
                       static_cast<unsigned long long>(digest), is_traced ? " (traced)" : ""));
    }
    result.attempted += rep.expected;
    result.failed += rep.failed;
    for (const std::string& p : rep.problems) result.fail(p);
    samples.setup_s.push_back(rep.setup_s);
    samples.rate.push_back(static_cast<double>(kMessages) / rep.run_s);
    samples.messages += kMessages;
    samples.deliveries += rep.deliveries;
    samples.ops_logged += rep.ops_logged;
    samples.delta_tick_bytes += rep.delta_tick_bytes;
    samples.delta_tick_captures += rep.delta_tick_captures;
    if (is_traced) {
      layers.add(spans.spans());
      if (i == 1 && !options.trace_dir.empty()) {
        write_spans(options.trace_dir, "fanout", spans.spans());
      }
    }
  }

  // Every time is scaled to an undisturbed host: multiplied by the
  // repetition's host speed (rates divided by it).
  const double rate = median_at_speed_one(plain.rate, plain.speed);
  std::vector<double> setup;
  std::vector<double> batch_ns;
  for (std::size_t r = 0; r < plain.rate.size(); ++r) {
    setup.push_back(plain.setup_s[r] * plain.speed[r]);
    for (std::size_t b = r * kBatches; b < (r + 1) * kBatches; ++b) {
      batch_ns.push_back(plain.batch_ns[b] * plain.speed[r]);
    }
  }
  const TailSummary batch = summarize(batch_ns);
  // The rate 90% of batches sustained.
  const TailSummary slow = summarize(batch_ns, kSustainedShare);
  const double sustained = static_cast<double>(kBatch) / (slow.tail * 1e-9);

  result.table.push_back(line("fanout: %zu consumers x %zu streams, %zu B payloads, fan-out %zu, "
                              "%zu repetitions of %zu messages, seed %llu",
                              kConsumers, kStreams, kPayloadBytes, kFanout,
                              plain.rate.size() + traced.rate.size(), kMessages,
                              static_cast<unsigned long long>(options.seed)));
  result.table.push_back(line("  as measured, median over %zu untraced reps: %.0f msg/s (min %.0f, "
                              "max %.0f), set-up %.4f s; host speed %.2f",
                              plain.rate.size(), median(plain.rate),
                              *std::min_element(plain.rate.begin(), plain.rate.end()),
                              *std::max_element(plain.rate.begin(), plain.rate.end()),
                              median(plain.setup_s), median(plain.speed)));
  result.table.push_back(line("  at host speed 1: %.0f msg/s (%.0f deliveries/s), set-up %.4f s",
                              rate, rate * kFanout, median(setup)));
  result.table.push_back(line("  batch of %zu: p50 %.1f us, p%g %.1f us (n=%zu)", kBatch,
                              batch.p50 * 1e-3, batch.tail_q * 100, batch.tail * 1e-3, batch.n));
  result.table.push_back(line("  rate sustained by %g%% of batches: %.0f msg/s", slow.tail_q * 100,
                              sustained));

  auto& m = result.metrics;
  if (!options.trace) {
    m["setup_s"] = median(setup);
    m["msgs_per_s"] = rate;
    m["latency_p50_us"] = batch.p50 * 1e-3;
    m["latency_p99_us"] = batch.tail * 1e-3;
    m["max_rate_msgs_per_s"] = sustained;
    m["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  const auto messages = static_cast<double>(traced.messages);
  const auto deliveries = static_cast<double>(traced.deliveries);
  traced.counters.report(m, messages);
  m["dispatch.ns_per_msg"] = static_cast<double>(layers.total_ns[kInjectExternal]) / messages;
  m["dispatch.inject_ns_per_delivery"] =
      static_cast<double>(layers.total_ns[kInjectExternal]) / deliveries;
  m["fanout.drain_ns_per_delivery"] = static_cast<double>(layers.total_ns[kRunFor]) / deliveries;
  m["recovery.ops_logged_per_msg"] = static_cast<double>(traced.ops_logged) / messages;
  if (traced.delta_tick_captures > 0) {
    m["recovery.delta_bytes_per_capture"] = static_cast<double>(traced.delta_tick_bytes) /
                                            static_cast<double>(traced.delta_tick_captures);
  }
  m["bench.trace_overhead_pct"] =
      trace_overhead_pct(median_at_speed_one(plain.rate, plain.speed),
                         median_at_speed_one(traced.rate, traced.speed));
  return result;
}

}  // namespace perfbench
