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
// Storage is flat, so tracing a message allocates nothing once the
// tracer is warm: a trace's spans sit inline (at most four, the data
// path's radio -> filter -> dispatch -> deliver), active traces live in
// a slot pool that grows to its high-water mark and never past
// `max_active`, and an open-addressed index maps a TraceKey to its slot.
// The flight recorder fills lazily, up to `recorder_capacity`.
//
// The simulation is single-threaded, so the tracer (like the services)
// does not lock; it is the single writer of its stage histograms.
#pragma once

#include <array>
#include <cstdint>
#include <string>
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

/// A trace's spans, inline. Holds at most kCapacity; push_back past that
/// records nothing and returns false.
class SpanList {
 public:
  static constexpr std::size_t kCapacity = 4;

  bool push_back(const Span& span) noexcept {
    if (size_ == kCapacity) return false;
    spans_[size_++] = span;
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] Span& operator[](std::size_t i) noexcept { return spans_[i]; }
  [[nodiscard]] const Span& operator[](std::size_t i) const noexcept { return spans_[i]; }
  [[nodiscard]] Span* begin() noexcept { return spans_.data(); }
  [[nodiscard]] Span* end() noexcept { return spans_.data() + size_; }
  [[nodiscard]] const Span* begin() const noexcept { return spans_.data(); }
  [[nodiscard]] const Span* end() const noexcept { return spans_.data() + size_; }

 private:
  std::array<Span, kCapacity> spans_{};
  std::size_t size_ = 0;
};

struct Trace {
  TraceKey key;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;  ///< Set when completed.
  SpanList spans;

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
    /// Of `spans`, those not recorded: the trace already held
    /// SpanList::kCapacity spans.
    std::uint64_t spans_dropped = 0;
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
  /// tracer is disabled.
  void begin_span(TraceKey key, const char* stage, std::int64_t now_ns);

  /// Closes the most recent open span with this stage name and feeds the
  /// stage latency histogram. No-op when the trace or span is unknown.
  void end_span(TraceKey key, const char* stage, std::int64_t now_ns);

  /// Finishes the trace and moves it into the flight recorder. A non-null
  /// `closing_stage` is closed first, exactly as end_span would close it;
  /// spans still open after that close at `now_ns` without feeding a
  /// histogram. One lookup either way.
  void complete(TraceKey key, std::int64_t now_ns, const char* closing_stage = nullptr);

  /// Drops an in-flight trace without recording it.
  void discard(TraceKey key);

  [[nodiscard]] bool active(TraceKey key) const { return find(key.packed()) != kNoSlot; }
  [[nodiscard]] std::size_t active_count() const noexcept { return active_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// The flight recorder: the last `recorder_capacity` completed traces,
  /// oldest first.
  [[nodiscard]] const util::RingBuffer<Trace>& completed() const noexcept { return completed_; }
  [[nodiscard]] std::vector<Trace> completed_snapshot() const;
  /// Most recent completed trace for a key, if still retained.
  [[nodiscard]] const Trace* find_completed(TraceKey key) const;

  /// Drops all state (active and recorded); storage is kept for reuse.
  void clear();

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// One pooled active trace. `older`/`newer` link the active slots in
  /// start order (the abandonment FIFO); a free slot's `newer` links the
  /// free list.
  struct Slot {
    Trace trace;
    std::uint32_t older = kNoSlot;
    std::uint32_t newer = kNoSlot;
  };
  /// Open-addressed index entry; `slot == kNoSlot` marks it empty.
  struct IndexEntry {
    std::uint64_t key = 0;
    std::uint32_t slot = kNoSlot;
  };

  [[nodiscard]] std::uint32_t find(std::uint64_t key) const noexcept;
  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept;
  void index_insert(std::uint64_t key, std::uint32_t slot);
  void index_erase(std::uint64_t key, std::uint32_t slot) noexcept;
  /// Starts a trace in a fresh slot, abandoning the oldest at the cap.
  std::uint32_t start(TraceKey key, std::int64_t now_ns);
  /// Unlinks an active slot from the FIFO and the index and frees it.
  void release(std::uint32_t slot) noexcept;
  void close_span(Trace& trace, const char* stage, std::int64_t now_ns);
  /// The stage's latency histogram in the bound registry, registered on
  /// first use.
  Histogram& stage_histogram(const char* stage);

  Config config_;
  MetricsRegistry* registry_ = nullptr;
  std::vector<Slot> slots_;  ///< Grows to the high-water mark, ≤ max(max_active, 1).
  std::uint32_t free_ = kNoSlot;
  std::uint32_t oldest_ = kNoSlot;
  std::uint32_t newest_ = kNoSlot;
  std::size_t active_ = 0;
  /// Power-of-two table over TraceKey::packed(): Fibonacci hash, linear
  /// probing, backward-shift delete. Allocated on the first trace and
  /// doubled at half load.
  std::vector<IndexEntry> index_;
  unsigned index_shift_ = 64;  ///< 64 - log2(index_.size()).
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
