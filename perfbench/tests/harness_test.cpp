// Tests of the benchmark harness's own arithmetic: the percentile
// reporting rule, span self time, and rate-ladder selection.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <numeric>

#include "harness.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// --- percentiles -------------------------------------------------------------

TEST(Percentiles, NearestRank) {
  std::vector<double> v = one_to(100);
  EXPECT_EQ(quantile(v, 0.5), 50);
  EXPECT_EQ(quantile(v, 0.99), 99);
  EXPECT_EQ(quantile(v, 1.0), 100);
  EXPECT_EQ(quantile(v, 0.0), 1);
  std::vector<double> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0);
}

TEST(Percentiles, TenSamplesBeyondTheReportedTail) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(reportable_tail(1000), 0.99);
  // 999 samples leave only 9 beyond p99: fall back to p95.
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(reportable_tail(999), 0.95);
  EXPECT_EQ(reportable_tail(200), 0.95);
  EXPECT_EQ(reportable_tail(199), 0.9);
  EXPECT_EQ(reportable_tail(20), 0.5);
  EXPECT_FALSE(reportable_tail(19).has_value());
  // Never above the percentile asked for, however many samples.
  EXPECT_EQ(reportable_tail(1'000'000), 0.99);
  EXPECT_EQ(reportable_tail(1'000'000, 0.999), 0.999);
}

TEST(Percentiles, SummaryStatesTheSampleCount) {
  const TailSummary s = summarize(one_to(1000));
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990);

  const TailSummary small = summarize(one_to(500));
  EXPECT_EQ(small.tail_q, 0.95);
  EXPECT_EQ(small.tail, 475);
}

// --- host speed ------------------------------------------------------------------

TEST(HostSpeed, ReferenceTaskTakesMeasurableTime) {
  const double ns = reference_task_ns();
  EXPECT_GT(ns, 0);
  EXPECT_GT(host_speed(), 0);
}

// --- span self time ------------------------------------------------------------

Span span(std::int64_t start, std::int64_t end, std::uint32_t parent = kNoParent,
          std::uint8_t layer = 0) {
  return Span{0, start, end, parent, layer};
}

TEST(SelfTime, ChildrenAreSubtracted) {
  const std::vector<Span> spans = {span(0, 100), span(10, 30, 0), span(40, 50, 0)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, OnlyDirectChildrenCount) {
  // Grandchild time is already inside the child: it must not be taken
  // off the root a second time.
  const std::vector<Span> spans = {span(0, 100), span(10, 60, 0), span(20, 30, 1)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, OverlapCountsOnceAndClipsToTheParent) {
  const std::vector<Span> spans = {span(0, 100), span(10, 30, 0), span(20, 40, 0),
                                   span(90, 120, 0)};
  const auto self = self_times(spans);
  // Covered: [10, 40) once, plus [90, 100) inside the parent.
  EXPECT_EQ(self[0], 100 - 30 - 10);
}

TEST(SelfTime, RecorderNestsAndTotalsPerLayer) {
  SpanRecorder recorder;
  recorder.reserve(8);
  recorder.begin(0, 42);
  recorder.begin(1, recorder.open_key());
  recorder.end();
  recorder.end();
  recorder.begin(0, 43);
  recorder.end();
  const auto& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].key, 42u);
  EXPECT_EQ(spans[2].parent, kNoParent);

  LayerTotals totals;
  totals.add({span(0, 100, kNoParent, 0), span(10, 40, 0, 1), span(200, 250, kNoParent, 0)});
  EXPECT_EQ(totals.total_ns[0], 150);
  EXPECT_EQ(totals.self_ns[0], 120);
  EXPECT_EQ(totals.self_ns[1], 30);
  EXPECT_EQ(totals.count[0], 2u);
  EXPECT_EQ(totals.top_level_ns, 150);
}

// --- rate ladder ---------------------------------------------------------------

constexpr double kLimit = 1000;

Rung ok(double rate) { return {rate, 100, 0, false}; }
Rung slow(double rate) { return {rate, 5000, 0, false}; }

TEST(Ladder, HighestPassingRateBelowTheFirstFailure) {
  EXPECT_EQ(max_sustained_rate({ok(20e3), ok(40e3), slow(60e3)}, kLimit), 40e3);
  // A bisection after the ladder refines the answer; order does not matter.
  EXPECT_EQ(max_sustained_rate({ok(20e3), ok(40e3), slow(60e3), ok(50e3), slow(55e3)}, kLimit),
            50e3);
}

TEST(Ladder, PassAboveAFailureIsNoise) {
  EXPECT_EQ(max_sustained_rate({ok(20e3), slow(40e3), ok(60e3)}, kLimit), 20e3);
}

TEST(Ladder, RetriedRatePassesWhenAnyAttemptDid) {
  EXPECT_EQ(max_sustained_rate({ok(20e3), slow(40e3), ok(40e3), slow(60e3), slow(60e3)}, kLimit),
            40e3);
}

TEST(Ladder, LossOrGrowingBacklogFails) {
  Rung lossy = ok(40e3);
  lossy.lost = 1;
  Rung growing = ok(40e3);
  growing.backlog_growing = true;
  EXPECT_EQ(max_sustained_rate({ok(20e3), lossy}, kLimit), 20e3);
  EXPECT_EQ(max_sustained_rate({ok(20e3), growing}, kLimit), 20e3);
  EXPECT_TRUE(rung_passes({40e3, kLimit, 0, false}, kLimit));  // the limit itself passes
}

TEST(Ladder, NothingSustainedWhenTheFirstRungFails) {
  EXPECT_FALSE(max_sustained_rate({slow(20e3), ok(40e3)}, kLimit).has_value());
  EXPECT_FALSE(max_sustained_rate({}, kLimit).has_value());
}

}  // namespace
}  // namespace perfbench
