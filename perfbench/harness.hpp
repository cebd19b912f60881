// Benchmark harness arithmetic and bookkeeping shared by the workloads.
//
// Everything here is deliberately free of Garnet types so the rules the
// benchmark reports by (percentiles, span self time, ladder selection)
// can be unit-tested on their own (tests/harness_test.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- percentiles -------------------------------------------------------------

/// Nearest-rank quantile of `values` (reordered in place). q in [0, 1].
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

inline double median(std::vector<double> values) { return quantile(values, 0.5); }

/// Samples strictly above the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

/// The reporting rule for tails: the highest of `wanted` and the fixed
/// fallbacks below it that still has at least ten samples beyond it.
/// Returns nullopt when not even the median qualifies (n < 20).
inline std::optional<double> reportable_tail(std::size_t n, double wanted = 0.99) {
  static constexpr std::array<double, 6> kLevels = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (const double q : kLevels) {
    if (q > wanted) continue;
    if (samples_beyond(n, q) >= 10) return q;
  }
  return std::nullopt;
}

/// Median plus the reportable tail of one timing distribution.
struct TailSummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< Percentile actually reported (0.99 when n allows).
  double tail = 0.0;
};

inline TailSummary summarize(std::vector<double> values, double wanted = 0.99) {
  TailSummary s;
  s.n = values.size();
  if (values.empty()) return s;
  s.p50 = quantile(values, 0.5);
  s.tail_q = reportable_tail(s.n, wanted).value_or(0.5);
  s.tail = quantile(values, s.tail_q);
  return s;
}

// --- host speed ------------------------------------------------------------------

/// Keeps the reference task's result observable.
inline volatile std::uint64_t reference_task_sink = 0;

/// Wall time (ns) of a fixed task shaped like the simulator's inner loop
/// (std::function events through a binary heap, a hash map of small
/// vectors) that runs no Garnet code. The program's own work leaves it
/// unchanged; a host that runs this process slower stretches it.
inline double reference_task_ns() {
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const { return at != o.at ? at > o.at : seq > o.seq; }
  };
  const std::int64_t t0 = now_ns();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> table;
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t seq = 0;
  std::uint64_t sum = 0;
  const auto run_one = [&queue] {
    Event e = queue.top();
    queue.pop();
    e.fn();
  };
  for (int k = 0; k < 40'000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t key = x % 4096;
    queue.push({x % 100'000, seq++, [&table, &sum, key] {
                  std::vector<std::uint8_t>& v = table[key];
                  v.push_back(1);
                  if (v.size() > 64) v.clear();
                  sum += v.size();
                }});
    if (queue.size() > 512) run_one();
  }
  while (!queue.empty()) run_one();
  reference_task_sink = sum;
  return static_cast<double>(now_ns() - t0);
}

/// The reference task's duration on an undisturbed core of the 2.1 GHz
/// Xeon the bounds were tuned on.
inline constexpr double kReferenceTaskNs = 6.0e6;

/// How fast the host runs this process now, relative to that core: 1 is
/// undisturbed, 0.6 means everything takes 1/0.6 as long. Two reference
/// runs, averaged, bracket each measured repetition.
inline double host_speed() { return kReferenceTaskNs / reference_task_ns(); }

// --- spans -------------------------------------------------------------------

inline constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();

/// One timed call into a layer. `key` identifies the message the call
/// worked on ((packed StreamID << 16) | sequence), shared by nested spans.
struct Span {
  std::uint64_t key = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint8_t layer = 0;
};

/// In-memory span log for one single-threaded call tree. Reserve the
/// capacity before timing so recording never allocates.
class SpanRecorder {
 public:
  void reserve(std::size_t spans) { spans_.reserve(spans); }
  void clear() {
    spans_.clear();
    depth_ = 0;
  }

  void begin(std::uint8_t layer, std::uint64_t key) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = depth_ > 0 ? stack_[depth_ - 1] : kNoParent;
    spans_.push_back({key, now_ns(), 0, parent, layer});
    stack_[depth_++] = index;
  }
  void end() { spans_[stack_[--depth_]].end_ns = now_ns(); }

  /// Key of the innermost open span (0 at top level).
  [[nodiscard]] std::uint64_t open_key() const {
    return depth_ > 0 ? spans_[stack_[depth_ - 1]].key : 0;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::array<std::uint32_t, 16> stack_{};
  std::size_t depth_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once,
/// child time outside the parent's interval not at all).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::uint32_t> children;
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent != kNoParent) children.push_back(i);
  }
  std::stable_sort(children.begin(), children.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (spans[a].parent != spans[b].parent) return spans[a].parent < spans[b].parent;
    return spans[a].start_ns < spans[b].start_ns;
  });
  std::size_t i = 0;
  while (i < children.size()) {
    const Span& parent = spans[spans[children[i]].parent];
    std::int64_t covered = 0;
    std::int64_t reach = parent.start_ns;  // end of the union so far
    const std::uint32_t p = spans[children[i]].parent;
    for (; i < children.size() && spans[children[i]].parent == p; ++i) {
      const Span& c = spans[children[i]];
      const std::int64_t from = std::max(c.start_ns, reach);
      const std::int64_t to = std::min(c.end_ns, parent.end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, std::min(c.end_ns, parent.end_ns));
    }
    self[p] -= covered;
  }
  return self;
}

/// Per-layer totals over a span log.
struct LayerTotals {
  static constexpr std::size_t kLayers = 8;
  std::array<std::int64_t, kLayers> total_ns{};
  std::array<std::int64_t, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> count{};
  std::int64_t top_level_ns = 0;  ///< Sum of spans without a parent.

  void add(const std::vector<Span>& spans) {
    const std::vector<std::int64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      total_ns[s.layer] += s.end_ns - s.start_ns;
      self_ns[s.layer] += self[i];
      ++count[s.layer];
      if (s.parent == kNoParent) top_level_ns += s.end_ns - s.start_ns;
    }
  }
};

// --- rate ladder -------------------------------------------------------------

/// One probed offered rate of an open-loop run.
struct Rung {
  double rate = 0.0;  ///< Offered messages per second.
  double p99_us = 0.0;
  std::uint64_t lost = 0;       ///< Shed or missing deliveries.
  bool backlog_growing = false;
};

[[nodiscard]] inline bool rung_passes(const Rung& r, double p99_limit_us) {
  return r.p99_us <= p99_limit_us && r.lost == 0 && !r.backlog_growing;
}

/// Highest offered rate that passed while every rate probed below it
/// passed too: a passing rung above a failing one is noise, not capacity.
/// A rate probed more than once passes when any attempt passed. Rungs
/// may come in any order (a ladder, then a bisection). nullopt when the
/// lowest rate already failed.
inline std::optional<double> max_sustained_rate(std::vector<Rung> rungs, double p99_limit_us) {
  std::sort(rungs.begin(), rungs.end(),
            [](const Rung& a, const Rung& b) { return a.rate < b.rate; });
  std::optional<double> best;
  for (std::size_t i = 0; i < rungs.size();) {
    bool passed = false;
    std::size_t j = i;
    for (; j < rungs.size() && rungs[j].rate == rungs[i].rate; ++j) {
      passed = passed || rung_passes(rungs[j], p99_limit_us);
    }
    if (!passed) break;
    best = rungs[i].rate;
    i = j;
  }
  return best;
}

// --- digests -------------------------------------------------------------------

/// Order-sensitive 64-bit digest (FNV-1a over 64-bit words, then mixed).
struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ull;
  void add(std::uint64_t word) noexcept {
    value ^= word;
    value *= 0x100000001b3ull;
    value ^= value >> 29;
  }
};

/// splitmix64 finaliser: a well-mixed hash of one word (order-free sums).
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Fixed-size bitset with test-and-set, sized before timing.
class SeenSet {
 public:
  void reset(std::size_t bits) { words_.assign((bits + 63) / 64, 0); }
  /// Marks `bit`; returns false when it was already set.
  bool insert(std::size_t bit) noexcept {
    std::uint64_t& w = words_[bit / 64];
    const std::uint64_t mask = 1ull << (bit % 64);
    const bool fresh = (w & mask) == 0;
    w |= mask;
    return fresh;
  }
  [[nodiscard]] bool contains(std::size_t bit) const noexcept {
    return (words_[bit / 64] >> (bit % 64)) & 1u;
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace perfbench
