// Tracer: span lifecycle, flight-recorder eviction, active-trace cap,
// and the stage-latency histograms fed into a bound registry.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

namespace garnet::obs {
namespace {

TEST(TraceKey, PackingSeparatesDomains) {
  const TraceKey data{0x123456, 7, TraceKey::kData};
  const TraceKey act{0x123456, 7, TraceKey::kActuation};
  EXPECT_NE(data.packed(), act.packed());
  EXPECT_EQ(data, (TraceKey{0x123456, 7}));
}

TEST(Tracer, SpanLifecycle) {
  Tracer tracer;
  const TraceKey key{42, 1};
  tracer.begin_span(key, "radio", 100);
  EXPECT_TRUE(tracer.active(key));
  tracer.end_span(key, "radio", 250);
  tracer.begin_span(key, "filter", 250);
  tracer.end_span(key, "filter", 400);
  tracer.complete(key, 400);

  EXPECT_FALSE(tracer.active(key));
  const Trace* trace = tracer.find_completed(key);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->begin_ns, 100);
  EXPECT_EQ(trace->end_ns, 400);
  ASSERT_EQ(trace->spans.size(), 2u);
  EXPECT_STREQ(trace->spans[0].stage, "radio");
  EXPECT_EQ(trace->spans[0].duration_ns(), 150);
  EXPECT_STREQ(trace->spans[1].stage, "filter");
  EXPECT_EQ(trace->spans[1].duration_ns(), 150);
}

TEST(Tracer, CompleteClosesOpenSpans) {
  Tracer tracer;
  const TraceKey key{1, 1};
  tracer.begin_span(key, "radio", 10);
  tracer.complete(key, 90);
  const Trace* trace = tracer.find_completed(key);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->spans[0].end_ns, 90);
}

TEST(Tracer, UnknownKeysAreNoOps) {
  Tracer tracer;
  tracer.end_span({9, 9}, "radio", 10);  // never began
  tracer.complete({9, 9}, 10);
  tracer.discard({9, 9});
  EXPECT_EQ(tracer.stats().completed, 0u);
  EXPECT_EQ(tracer.stats().discarded, 0u);
}

TEST(Tracer, EndSpanMatchesStageName) {
  Tracer tracer;
  const TraceKey key{1, 1};
  tracer.begin_span(key, "radio", 10);
  tracer.end_span(key, "filter", 20);  // wrong stage: no-op
  tracer.complete(key, 30);
  const Trace* trace = tracer.find_completed(key);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->spans[0].end_ns, 30);  // closed by complete, not end_span
}

TEST(Tracer, DiscardDropsWithoutRecording) {
  Tracer tracer;
  const TraceKey key{5, 5};
  tracer.begin_span(key, "dispatch", 10);
  tracer.discard(key);
  EXPECT_FALSE(tracer.active(key));
  EXPECT_EQ(tracer.find_completed(key), nullptr);
  EXPECT_EQ(tracer.stats().discarded, 1u);
}

TEST(Tracer, FlightRecorderEvictsOldestAtCapacity) {
  Tracer::Config config;
  config.recorder_capacity = 4;
  Tracer tracer(config);
  for (std::uint16_t seq = 0; seq < 10; ++seq) {
    const TraceKey key{1, seq};
    tracer.begin_span(key, "radio", seq * 100);
    tracer.end_span(key, "radio", seq * 100 + 50);
    tracer.complete(key, seq * 100 + 50);
  }
  const auto recorded = tracer.completed_snapshot();
  ASSERT_EQ(recorded.size(), 4u);  // bounded: only the newest four remain
  EXPECT_EQ(recorded.front().key.sequence, 6u);
  EXPECT_EQ(recorded.back().key.sequence, 9u);
  EXPECT_EQ(tracer.stats().completed, 10u);
  EXPECT_EQ(tracer.find_completed({1, 0}), nullptr);  // evicted
  EXPECT_NE(tracer.find_completed({1, 9}), nullptr);
}

TEST(Tracer, ActiveCapAbandonsOldest) {
  Tracer::Config config;
  config.max_active = 3;
  Tracer tracer(config);
  for (std::uint16_t seq = 0; seq < 5; ++seq) {
    tracer.begin_span({1, seq}, "radio", seq);
  }
  EXPECT_EQ(tracer.active_count(), 3u);
  EXPECT_EQ(tracer.stats().abandoned, 2u);
  EXPECT_FALSE(tracer.active({1, 0}));  // oldest went first
  EXPECT_FALSE(tracer.active({1, 1}));
  EXPECT_TRUE(tracer.active({1, 4}));
}

TEST(Tracer, DisabledTracerDoesNothing) {
  Tracer::Config config;
  config.enabled = false;
  Tracer tracer(config);
  tracer.begin_span({1, 1}, "radio", 10);
  EXPECT_EQ(tracer.active_count(), 0u);
  EXPECT_EQ(tracer.stats().started, 0u);
}

TEST(Tracer, ClosedSpansFeedStageHistograms) {
  MetricsRegistry registry;
  Tracer tracer;
  tracer.bind_metrics(&registry);

  const TraceKey key{1, 1};
  tracer.begin_span(key, "filter", 1000);
  tracer.end_span(key, "filter", 251000);  // 250us in "filter"
  tracer.complete(key, 251000);

  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSnapshot* h = snap.histogram(kStageLatencyMetric, {{"stage", "filter"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->sum, 250000.0);
  // Spans closed by complete() (still open) do not feed histograms.
  EXPECT_EQ(snap.histogram(kStageLatencyMetric, {{"stage", "radio"}}), nullptr);
}

TEST(Tracer, SameStageNameFromTwoPointersFeedsOneHistogram) {
  // Instrumentation sites pass literals; two sites naming the same stage
  // may hand over different pointers. They must share one series.
  MetricsRegistry registry;
  Tracer tracer;
  tracer.bind_metrics(&registry);
  static constexpr char first[] = "dispatch";
  static constexpr char second[] = "dispatch";
  ASSERT_NE(static_cast<const char*>(first), static_cast<const char*>(second));

  for (std::uint16_t seq = 0; seq < 3; ++seq) {
    const TraceKey key{2, seq};
    tracer.begin_span(key, first, 0);
    tracer.end_span(key, seq == 1 ? second : first, 100);
  }
  const std::size_t instruments = registry.instrument_count();
  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSnapshot* h = snap.histogram(kStageLatencyMetric, {{"stage", "dispatch"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);

  // Rebinding resolves the stages afresh in the new registry.
  MetricsRegistry other;
  tracer.bind_metrics(&other);
  tracer.begin_span({2, 9}, second, 0);
  tracer.end_span({2, 9}, second, 100);
  EXPECT_EQ(registry.instrument_count(), instruments);
  ASSERT_NE(other.snapshot().histogram(kStageLatencyMetric, {{"stage", "dispatch"}}), nullptr);
}

TEST(Trace, ToStringListsStages) {
  Tracer tracer;
  const TraceKey key{7, 3};
  tracer.begin_span(key, "radio", 0);
  tracer.end_span(key, "radio", 2000000);
  tracer.complete(key, 2000000);
  const std::string text = tracer.find_completed(key)->to_string();
  EXPECT_NE(text.find("7/3"), std::string::npos);
  EXPECT_NE(text.find("radio"), std::string::npos);
}

}  // namespace
}  // namespace garnet::obs
