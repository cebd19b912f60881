// MetricsRegistry: instrument identity, histogram bucketing and
// quantile accuracy, collision handling, snapshot/collector semantics.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace garnet::obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  MetricsRegistry registry;
  Counter& c = registry.counter("garnet.test.events");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(registry.snapshot().counter("garnet.test.events"), 42u);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("garnet.test.level");
  g.set(10.5);
  g.add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  EXPECT_DOUBLE_EQ(registry.snapshot().gauge("garnet.test.level"), 7.5);
}

TEST(Registry, SameIdentityReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x", {{"k", "v"}});
  Counter& b = registry.counter("x", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.instrument_count(), 1u);
}

TEST(Registry, LabelsAreCanonicalised) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x", {{"a", "1"}, {"b", "2"}});
  Counter& b = registry.counter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, DifferentLabelsAreDifferentSeries) {
  MetricsRegistry registry;
  registry.counter("x", {{"stage", "filter"}}).inc(1);
  registry.counter("x", {{"stage", "deliver"}}).inc(2);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("x", {{"stage", "filter"}}), 1u);
  EXPECT_EQ(snap.counter("x", {{"stage", "deliver"}}), 2u);
}

TEST(Registry, KindCollisionThrows) {
  MetricsRegistry registry;
  registry.counter("garnet.test.collide");
  EXPECT_THROW(registry.gauge("garnet.test.collide"), std::logic_error);
  EXPECT_THROW(registry.histogram("garnet.test.collide"), std::logic_error);
}

TEST(Registry, HistogramLayoutCollisionThrows) {
  MetricsRegistry registry;
  registry.histogram("garnet.test.h", Histogram::Layout::latency_ns());
  // Same layout is a create-or-fetch...
  EXPECT_NO_THROW(registry.histogram("garnet.test.h", Histogram::Layout::latency_ns()));
  // ...another layout under the same identity is a wiring bug.
  EXPECT_THROW(registry.histogram("garnet.test.h", Histogram::Layout::bytes()),
               std::logic_error);
}

TEST(Histogram, BucketBoundaries) {
  // Three buckets with bounds 10, 100, 1000 plus overflow. Bucket i
  // covers (bound[i-1], bound[i]]: a value exactly on a bound lands in
  // that bound's bucket.
  Histogram h(Histogram::Layout{10.0, 10.0, 3});
  h.observe(10.0);    // bucket 0 (at bound)
  h.observe(10.001);  // bucket 1 (just above)
  h.observe(100.0);   // bucket 1
  h.observe(1000.0);  // bucket 2
  h.observe(1001.0);  // overflow
  h.observe(0.5);     // bucket 0

  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_DOUBLE_EQ(snap.bounds[0], 10.0);
  EXPECT_DOUBLE_EQ(snap.bounds[1], 100.0);
  EXPECT_DOUBLE_EQ(snap.bounds[2], 1000.0);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_NEAR(snap.sum, 10.0 + 10.001 + 100.0 + 1000.0 + 1001.0 + 0.5, 1e-9);
}

// The bucket a value lands in is exactly what std::lower_bound over the
// bounds picks, for every kind of double: each bound and its neighbours,
// zeros, negatives, infinities, NaNs and seeded random values (log-spread
// over the layout and raw bit patterns).
TEST(Histogram, BucketMatchesLowerBoundForEveryDouble) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Histogram::Layout layout :
       {Histogram::Layout::latency_ns(), Histogram::Layout::bytes(),
        Histogram::Layout{10.0, 10.0, 3}}) {
    Histogram h(layout);
    const std::vector<double> bounds = h.snapshot().bounds;
    std::vector<double> values = {0.0,
                                  -0.0,
                                  -1.0,
                                  -1e300,
                                  -std::numeric_limits<double>::denorm_min(),
                                  std::numeric_limits<double>::denorm_min(),
                                  std::numeric_limits<double>::min(),
                                  std::numeric_limits<double>::max(),
                                  std::numeric_limits<double>::lowest(),
                                  kInf,
                                  -kInf,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  -std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::signaling_NaN()};
    for (const double bound : bounds) {
      values.push_back(bound);
      values.push_back(std::nextafter(bound, -kInf));
      values.push_back(std::nextafter(bound, kInf));
    }
    util::Rng rng(7);
    const double decades = std::log10(bounds.back() / bounds.front());
    for (int i = 0; i < 100000; ++i) {
      if (i % 2 == 0) {
        values.push_back(bounds.front() * std::pow(10.0, rng.uniform(-1.0, decades + 1.0)));
      } else {
        values.push_back(std::bit_cast<double>(rng.next()));
      }
    }

    std::vector<std::uint64_t> expected(bounds.size() + 1, 0);
    for (const double v : values) {
      const auto index = static_cast<std::size_t>(
          std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
      ++expected[index];
      h.observe(v);
      const HistogramSnapshot snap = h.snapshot();
      ASSERT_EQ(snap.counts[index], expected[index])
          << "value " << v << " (bits " << std::hex << std::bit_cast<std::uint64_t>(v)
          << std::dec << ") should land in bucket " << index;
    }
    EXPECT_EQ(h.snapshot().counts, expected);
  }
}

TEST(Histogram, QuantilesTrackExactGroundTruth) {
  // Log-normal-ish latencies: the histogram's interpolated quantiles
  // must stay within one bucket's relative width (growth factor ~1.33,
  // so ~35%) of util::Quantiles' exact nearest-rank answers.
  Histogram h(Histogram::Layout::latency_ns());
  util::Quantiles exact;
  util::Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    // exp() of a normal gives the heavy right tail real delivery
    // latencies have; centred around 200us.
    const double sample = 2e5 * std::exp(0.8 * rng.normal());
    h.observe(sample);
    exact.add(sample);
  }
  const HistogramSnapshot snap = h.snapshot();
  for (const double q : {0.5, 0.9, 0.99}) {
    const double truth = exact.quantile(q);
    EXPECT_NEAR(snap.quantile(q), truth, truth * 0.35)
        << "quantile " << q << " diverged from ground truth";
  }
  EXPECT_NEAR(snap.mean(), exact.mean(), exact.mean() * 0.05);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram h(Histogram::Layout{10.0, 10.0, 3});
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);  // empty
  h.observe(50.0);
  const HistogramSnapshot snap = h.snapshot();
  // One sample in (10, 100]: every quantile interpolates inside it.
  EXPECT_GT(snap.quantile(0.0), 0.0);
  EXPECT_LE(snap.quantile(1.0), 100.0);
}

TEST(Histogram, ZeroDurationStageReadsZero) {
  // Virtual-time stage spans are often exactly 0 ns; interpolating inside
  // the first 1 us bucket used to report them as p50 = 500 ns.
  Histogram h(Histogram::Layout::latency_ns());
  for (int i = 0; i < 1000; ++i) h.observe(0.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
}

TEST(Histogram, QuantilesClampToObservedRange) {
  Histogram h(Histogram::Layout{10.0, 10.0, 3});
  h.observe(50.0);
  h.observe(60.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.min, 50.0);
  EXPECT_DOUBLE_EQ(snap.max, 60.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 50.0);  // interpolation alone says 10
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 60.0);  // ... and 100
  const double mid = snap.quantile(0.5);
  EXPECT_GE(mid, 50.0);
  EXPECT_LE(mid, 60.0);

  // A hand-built snapshot without a range keeps plain interpolation.
  HistogramSnapshot bare;
  bare.bounds = {10.0, 100.0};
  bare.counts = {0, 2, 0};
  bare.count = 2;
  EXPECT_DOUBLE_EQ(bare.quantile(1.0), 100.0);
}

TEST(Histogram, SnapshotsFromAnotherThreadSeeOneWriterExactly) {
  // The single-writer contract: one thread observes, another snapshots
  // in a loop. Each field is read untorn, so counts never run backwards,
  // and the writer's relaxed load/store updates lose nothing.
  Histogram h(Histogram::Layout::latency_ns());
  constexpr std::uint64_t kObservations = 1'000'000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kObservations; ++i) {
      h.observe(static_cast<double>(i % 1000) * 1000.0);
    }
    done.store(true, std::memory_order_release);
  });
  HistogramSnapshot previous = h.snapshot();
  bool monotone = true;
  while (!done.load(std::memory_order_acquire)) {
    HistogramSnapshot snap = h.snapshot();
    monotone = monotone && snap.count >= previous.count && snap.sum >= previous.sum;
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      monotone = monotone && snap.counts[i] >= previous.counts[i];
    }
    previous = std::move(snap);
  }
  writer.join();
  EXPECT_TRUE(monotone);

  const HistogramSnapshot last = h.snapshot();
  EXPECT_EQ(last.count, kObservations);
  // 1000 rounds of 0 + 1000 + ... + 999000: every partial sum is an
  // integer below 2^53, so the double sum is exact.
  EXPECT_EQ(last.sum, 1000.0 * (999.0 * 1000.0 / 2.0) * 1000.0);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t c : last.counts) bucketed += c;
  EXPECT_EQ(bucketed, kObservations);
  EXPECT_EQ(last.min, 0.0);
  EXPECT_EQ(last.max, 999000.0);
}

TEST(Snapshot, CollectorsAppendSamples) {
  MetricsRegistry registry;
  registry.counter("native").inc(5);
  std::uint64_t pulled = 17;
  registry.add_collector([&pulled](SnapshotBuilder& out) {
    out.counter("pulled", pulled);
    out.gauge("depth", 3.0, {{"queue", "held"}});
  });
  MetricsSnapshot snap = registry.snapshot(123);
  EXPECT_EQ(snap.captured_at_ns, 123u);
  EXPECT_EQ(snap.counter("native"), 5u);
  EXPECT_EQ(snap.counter("pulled"), 17u);
  EXPECT_DOUBLE_EQ(snap.gauge("depth", {{"queue", "held"}}), 3.0);

  // Pull-style: the next snapshot sees the new value, no re-wiring.
  pulled = 18;
  EXPECT_EQ(registry.snapshot().counter("pulled"), 18u);
}

TEST(Snapshot, SamplesSortedByNameThenLabels) {
  MetricsRegistry registry;
  registry.counter("b").inc();
  registry.counter("a", {{"x", "2"}}).inc();
  registry.counter("a", {{"x", "1"}}).inc();
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "a");
  EXPECT_EQ(snap.samples[0].labels, (Labels{{"x", "1"}}));
  EXPECT_EQ(snap.samples[1].labels, (Labels{{"x", "2"}}));
  EXPECT_EQ(snap.samples[2].name, "b");
}

}  // namespace
}  // namespace garnet::obs
