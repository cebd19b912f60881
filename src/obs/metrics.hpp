// Telemetry metrics: a central registry of named, labelled instruments.
//
// Production sensor middlewares treat monitoring as a first-class
// subsystem; Garnet's is deliberately small. Three instrument kinds:
//
//   * Counter   — monotonically increasing uint64, lock-free increments;
//   * Gauge     — settable double (inventory sizes, battery levels);
//   * Histogram — fixed-bucket log-scale distribution with quantile
//                 estimation on read; one writer thread, any readers.
//
// Instruments are identified by (name, labels). Registering the same
// identity twice returns the same instrument; re-registering under a
// different kind (or a different histogram layout) throws, so naming
// collisions fail loudly at wiring time rather than corrupting data.
//
// Reads never block writers: snapshot() copies every instrument's
// current value into a MetricsSnapshot, then runs the registered
// collectors — pull-style adapters that let pre-existing plain-struct
// service counters surface through the same exposition path.
//
// Single-writer histograms. Histogram::observe is a read-modify-write
// built from relaxed loads and stores, not locked RMWs, so every
// histogram has exactly one writer thread (snapshots may come from any
// thread and see untorn values). Every push-style histogram in the
// middleware is observed only by its owner's thread: the message bus
// (transit, envelope sizes), the radio medium (hop delay, frame sizes),
// the tracer (stage latencies) and the gateway (frame sizes, delivery
// latency), each of which is single-threaded by design. The sharded
// dispatch plane's per-shard buses bind no registry; the plane exports
// through a collector that runs at snapshot time, and the benchmarks
// bind their registries to buses driven by one thread. Assert builds
// check the contract: two overlapping observe() calls on one histogram
// abort.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace garnet::obs {

/// Label set attached to an instrument, e.g. {{"stage", "filter"}}.
/// Canonicalised (sorted by key) on registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Canonical "{k=v,k2=v2}" rendering; empty string for no labels.
[[nodiscard]] std::string label_string(const Labels& labels);

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Monotonic event count. Increments are single atomic RMW operations.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time measurement that may go up or down.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double expected = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-side copy of one histogram: bucket upper bounds plus counts
/// (counts has one extra trailing slot for overflow beyond the last
/// bound). Quantiles are estimated by linear interpolation inside the
/// bucket the rank falls into, so the error is bounded by the bucket's
/// relative width, then clamped to the observed [min, max] — a histogram
/// of zeros reads 0 at every quantile, not half the first bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;         ///< Ascending upper bounds.
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 entries.
  double sum = 0.0;
  std::uint64_t count = 0;
  /// Smallest and largest observation; the defaults (unknown) clamp nothing.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();

  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

 private:
  [[nodiscard]] double interpolated_quantile(double q) const;
};

/// Fixed-bucket log-scale histogram. Bucket i covers
/// (bound[i-1], bound[i]] with bound[i] = first_bound * growth^i; values
/// above the last bound land in a final overflow bucket, values at or
/// below first_bound in bucket 0. observe() is a bounded binary search
/// plus relaxed atomic loads and stores — no locked RMW, no allocation.
/// One thread observes (see the file comment); any thread may read.
class Histogram {
 public:
  struct Layout {
    double first_bound = 1e3;  ///< Upper bound of bucket 0.
    double growth = 1.333521432163324;  ///< 10^(1/8): 8 buckets per decade.
    std::size_t buckets = 72;  ///< Spans ~9 decades at the default growth.

    /// Virtual-time latencies in nanoseconds: 1us .. ~12 minutes.
    [[nodiscard]] static Layout latency_ns() { return {}; }
    /// Payload/frame sizes in bytes: 16B .. 1MiB, power-of-two buckets.
    [[nodiscard]] static Layout bytes() { return {16.0, 2.0, 17}; }

    [[nodiscard]] bool operator==(const Layout&) const = default;
  };

  explicit Histogram(Layout layout);

  void observe(double v) noexcept;

  [[nodiscard]] const Layout& layout() const noexcept { return layout_; }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  Layout layout_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< bounds_.size() + 1.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  /// Set while an observe() runs; assert builds use it to catch a second
  /// writer. Present in every build so the layout never depends on NDEBUG.
  std::atomic<bool> writing_{false};
};

/// One instrument's value at snapshot time.
struct Sample {
  std::string name;
  Labels labels;
  InstrumentKind kind = InstrumentKind::kCounter;
  std::uint64_t counter = 0;    ///< kCounter.
  double gauge = 0.0;           ///< kGauge.
  HistogramSnapshot histogram;  ///< kHistogram.

  /// Counter or gauge as a double (histograms yield their count).
  [[nodiscard]] double numeric() const;
};

/// Immutable copy of every instrument at one instant, sorted by
/// (name, labels) so renderings are deterministic.
class MetricsSnapshot {
 public:
  std::uint64_t captured_at_ns = 0;
  std::vector<Sample> samples;

  [[nodiscard]] const Sample* find(std::string_view name, const Labels& labels = {}) const;
  /// Counter value; 0 when the metric is absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name, const Labels& labels = {}) const;
  /// Gauge value; 0.0 when absent.
  [[nodiscard]] double gauge(std::string_view name, const Labels& labels = {}) const;
  /// Histogram sample; nullptr when absent or not a histogram.
  [[nodiscard]] const HistogramSnapshot* histogram(std::string_view name,
                                                   const Labels& labels = {}) const;
};

/// Write-through handle collectors use to append pull-style samples.
class SnapshotBuilder {
 public:
  void counter(std::string name, std::uint64_t value, Labels labels = {});
  void gauge(std::string name, double value, Labels labels = {});

 private:
  friend class MetricsRegistry;
  explicit SnapshotBuilder(std::vector<Sample>& out) : out_(out) {}
  std::vector<Sample>& out_;
};

class MetricsRegistry {
 public:
  /// Create-or-fetch. Throws std::logic_error when the identity is
  /// already registered as a different kind (or histogram layout).
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name,
                       Histogram::Layout layout = Histogram::Layout::latency_ns(),
                       Labels labels = {});

  /// Pull-style adapter invoked on every snapshot(); lets services with
  /// plain stats structs expose them without converting to atomics.
  /// Returns a token for remove_collector — owners with a narrower
  /// lifetime than the registry (stack-allocated services in tests) must
  /// deregister before they are destroyed.
  using Collector = std::function<void(SnapshotBuilder&)>;
  using CollectorId = std::uint64_t;
  CollectorId add_collector(Collector collector);
  void remove_collector(CollectorId id);

  [[nodiscard]] MetricsSnapshot snapshot(std::uint64_t now_ns = 0) const;

  [[nodiscard]] std::size_t instrument_count() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    InstrumentKind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(const std::string& name, Labels labels, InstrumentKind kind);

  std::map<std::string, Entry> entries_;  ///< Keyed by name + label_string.
  std::vector<std::pair<CollectorId, Collector>> collectors_;
  CollectorId next_collector_id_ = 1;
};

}  // namespace garnet::obs
