// The benchmark's three workloads and what they report (README.md).
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "util/shared_bytes.hpp"

namespace perfbench {

namespace obs = garnet::obs;
namespace util = garnet::util;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span sample; empty = nowhere.
  std::string trace_dir;
};

/// One workload run. `metrics` holds the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one.
struct Result {
  std::uint64_t attempted = 0;  ///< Deliveries (and replies) expected.
  std::uint64_t failed = 0;     ///< Missing, duplicated, corrupt or shed.
  std::vector<std::string> problems;  ///< Failed checks, one line each.
  std::map<std::string, double> metrics;
  std::vector<std::string> table;  ///< Human-readable lines printed first.

  void fail(std::string what) { problems.push_back(std::move(what)); }
  [[nodiscard]] bool correct() const { return failed == 0 && problems.empty(); }
  [[nodiscard]] double failed_ratio() const {
    return attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

Result run_field(const Options& options);
Result run_fanout(const Options& options);
Result run_gw_socket(const Options& options);

// --- shared helpers ----------------------------------------------------------

/// Closed-batch workloads report as `max_rate_msgs_per_s` the rate this
/// share of their work units (windows, batches) sustained.
inline constexpr double kSustainedShare = 0.9;



/// Span layers recorded by the traced runs.
enum Layer : std::uint8_t {
  kFilteringIngest,
  kDispatchOnFiltered,
  kLocationObserve,
  kInjectExternal,
  kRunFor,
};

/// Peak resident set size of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Counters read from a runtime registry before and after a timed span.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t bus_posted = 0;
  std::uint64_t observations = 0;  ///< Sum of every histogram's sample count.
  util::PayloadStats payload;

  static Counters read(const obs::MetricsRegistry& registry, std::uint64_t events) {
    Counters c;
    c.events = events;
    const obs::MetricsSnapshot snap = registry.snapshot();
    c.bus_posted = snap.counter("garnet.bus.posted");
    for (const obs::Sample& s : snap.samples) {
      if (s.kind == obs::InstrumentKind::kHistogram) c.observations += s.histogram.count;
    }
    c.payload = util::payload_stats();
    return c;
  }
};

/// Accumulates counter deltas over every timed repetition.
struct CounterTotals {
  std::uint64_t events = 0;
  std::uint64_t bus_posted = 0;
  std::uint64_t observations = 0;
  std::uint64_t payload_allocs = 0;
  std::uint64_t payload_copies = 0;

  void add(const Counters& before, const Counters& after) {
    events += after.events - before.events;
    bus_posted += after.bus_posted - before.bus_posted;
    observations += after.observations - before.observations;
    payload_allocs += after.payload.allocations - before.payload.allocations;
    payload_copies += after.payload.copies - before.payload.copies;
  }

  /// Writes the per-message count ratios every workload reports.
  void report(std::map<std::string, double>& out, double messages) const {
    if (messages <= 0) return;
    out["sim.events_per_msg"] = static_cast<double>(events) / messages;
    out["bus.posts_per_msg"] = static_cast<double>(bus_posted) / messages;
    out["obs.observations_per_msg"] = static_cast<double>(observations) / messages;
    out["util.payload_allocs_per_msg"] = static_cast<double>(payload_allocs) / messages;
    out["util.payload_copies_per_msg"] = static_cast<double>(payload_copies) / messages;
  }
};

/// Traced-vs-untraced throughput cost, in percent of the untraced rate.
inline double trace_overhead_pct(double untraced_rate, double traced_rate) {
  if (traced_rate <= 0) return 0.0;
  return (untraced_rate / traced_rate - 1.0) * 100.0;
}

/// Median of rates[i] / speed[i]: the rate at host speed 1.
inline double median_at_speed_one(const std::vector<double>& rates,
                                  const std::vector<double>& speed) {
  std::vector<double> scaled;
  for (std::size_t i = 0; i < rates.size(); ++i) scaled.push_back(rates[i] / speed[i]);
  return median(std::move(scaled));
}

/// Formats one human-readable table line.
template <typename... Args>
std::string line(const char* format, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

/// Writes the first `limit` spans as TSV (layer, key, start, end, parent)
/// to <dir>/<name>.spans.tsv.
void write_spans(const std::string& dir, const std::string& name, const std::vector<Span>& spans,
                 std::size_t limit = 65536);

}  // namespace perfbench
