// MetricsRegistry: instrument identity, histogram bucketing and
// quantile accuracy, collision handling, snapshot/collector semantics.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

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
