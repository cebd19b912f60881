// Streaming statistics used by service counters and the bench harness.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace garnet::util {

/// Welford-style streaming accumulator: mean/variance/min/max without
/// retaining samples.
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< Sample variance (n-1).
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains samples for exact quantiles; used where distributions matter
/// (e.g. actuation latency in experiment E5).
class Quantiles {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void add(Duration d) { add(static_cast<double>(d.ns)); }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }

  /// q in [0,1]; returns 0 when empty. Nearest-rank on the sorted samples.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Fixed-bucket histogram over [lo, hi); overflow/underflow tracked.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Render a compact one-line-per-bucket text chart for example output.
  [[nodiscard]] std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace garnet::util
