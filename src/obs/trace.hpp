// End-to-end message tracing.
//
// A trace follows one data message through the middleware: the sensor
// radio opens it at transmit, each service brackets its work in a span
// ("radio" -> "filter" -> "dispatch" -> "deliver"), and the consumer
// library completes it at delivery. The actuation path uses the same
// machinery for its round-trip ("actuation"). Traces are keyed by the
// message's (StreamID, sequence) — the same identity the wire format
// carries — so no extra context has to ride along with the payload.
//
// Completed traces land in a bounded ring-buffer flight recorder (the
// last N journeys, oldest evicted first); every closed span also feeds
// a per-stage latency histogram in the bound MetricsRegistry, so the
// exposition formats carry receive->filter->dispatch->deliver latency
// distributions without any per-message retention.
//
// The simulation is single-threaded, so the tracer (like the services)
// does not lock; only the registry instruments it feeds are atomic.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "util/ring_buffer.hpp"

namespace garnet::obs {

/// Name of the per-stage latency histogram fed on every span close.
inline constexpr const char* kStageLatencyMetric = "garnet.stage_latency_ns";

/// Identity of one traced journey. `domain` separates the data path
/// from the actuation path, whose ids live in a different number space.
struct TraceKey {
  std::uint32_t stream = 0;    ///< Packed core::StreamId.
  std::uint16_t sequence = 0;  ///< Data sequence no / actuation request id.
  std::uint8_t domain = kData;

  static constexpr std::uint8_t kData = 0;
  static constexpr std::uint8_t kActuation = 1;

  [[nodiscard]] constexpr std::uint64_t packed() const noexcept {
    return (static_cast<std::uint64_t>(stream) << 24) |
           (static_cast<std::uint64_t>(sequence) << 8) | domain;
  }
  [[nodiscard]] constexpr bool operator==(const TraceKey&) const = default;
};

/// One service's bracket of work inside a trace. `stage` must be a
/// string with static storage duration (instrumentation sites pass
/// literals); spans never own their stage names.
struct Span {
  const char* stage = "";
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while the span is still open.

  [[nodiscard]] bool open() const noexcept { return end_ns < 0; }
  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return open() ? 0 : end_ns - begin_ns;
  }
};

struct Trace {
  TraceKey key;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;  ///< Set when completed.
  std::vector<Span> spans;

  /// One-line rendering for logs: "stream/seq stage(dur) stage(dur) ...".
  [[nodiscard]] std::string to_string() const;
};

class Tracer {
 public:
  struct Config {
    bool enabled = true;
    /// Completed traces retained in the flight recorder.
    std::size_t recorder_capacity = 256;
    /// In-flight bound. A frame no receiver ever hears leaves its trace
    /// open forever; at the cap, the oldest active trace is abandoned to
    /// make room, so tracing keeps following fresh traffic.
    std::size_t max_active = 4096;
  };

  struct Stats {
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t discarded = 0;  ///< Explicitly dropped (orphaned, expired).
    std::uint64_t abandoned = 0;  ///< Evicted while still open (active cap).
    std::uint64_t spans = 0;      ///< Spans opened across all traces.
  };

  Tracer() : Tracer(Config{}) {}
  explicit Tracer(Config config);

  /// Stage histograms land in `registry` from now on (may be null).
  void bind_metrics(MetricsRegistry* registry) {
    registry_ = registry;
    stage_histograms_.clear();
  }

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled; }

  /// Opens a span; starts the trace if this key is new. No-op when the
  /// tracer is disabled or the trace was dropped at the active cap.
  void begin_span(TraceKey key, const char* stage, std::int64_t now_ns);

  /// Closes the most recent open span with this stage name and feeds the
  /// stage latency histogram. No-op when the trace or span is unknown.
  void end_span(TraceKey key, const char* stage, std::int64_t now_ns);

  /// Finishes the trace (closing any spans left open) and moves it into
  /// the flight recorder.
  void complete(TraceKey key, std::int64_t now_ns);

  /// Drops an in-flight trace without recording it.
  void discard(TraceKey key);

  [[nodiscard]] bool active(TraceKey key) const { return active_.contains(key.packed()); }
  [[nodiscard]] std::size_t active_count() const noexcept { return active_.size(); }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// The flight recorder: the last `recorder_capacity` completed traces,
  /// oldest first.
  [[nodiscard]] const util::RingBuffer<Trace>& completed() const noexcept { return completed_; }
  [[nodiscard]] std::vector<Trace> completed_snapshot() const;
  /// Most recent completed trace for a key, if still retained.
  [[nodiscard]] const Trace* find_completed(TraceKey key) const;

  /// Drops all state (active and recorded).
  void clear();

 private:
  void evict_oldest_active();
  /// The stage's latency histogram in the bound registry, registered on
  /// first use.
  Histogram& stage_histogram(const char* stage);

  Config config_;
  MetricsRegistry* registry_ = nullptr;
  std::unordered_map<std::uint64_t, Trace> active_;
  std::deque<std::uint64_t> active_order_;  ///< FIFO of keys; stale entries skipped lazily.
  util::RingBuffer<Trace> completed_;
  /// Stage-name pointer -> histogram. Stages are string literals, so a
  /// span close usually matches by pointer; a second literal with the
  /// same text matches by name and is added as an alias. A handful of
  /// stages exist, so a linear scan beats hashing the name.
  struct StageHistogram {
    const char* stage;
    Histogram* histogram;
  };
  std::vector<StageHistogram> stage_histograms_;
  Stats stats_;
};

}  // namespace garnet::obs
