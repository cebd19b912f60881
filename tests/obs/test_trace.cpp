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

  // A completion in the middle of the order leaves the rest in place:
  // with A, B, C active and B completed, the cap abandons A, then C.
  Tracer middle(config);
  const TraceKey a{2, 1};
  const TraceKey b{2, 2};
  const TraceKey c{2, 3};
  for (const TraceKey key : {a, b, c}) middle.begin_span(key, "radio", 0);
  middle.complete(b, 5);
  middle.begin_span({2, 4}, "radio", 10);  // fills the freed room
  middle.begin_span({2, 5}, "radio", 11);  // at the cap: A goes
  EXPECT_FALSE(middle.active(a));
  EXPECT_TRUE(middle.active(c));
  middle.begin_span({2, 6}, "radio", 12);  // then C
  EXPECT_FALSE(middle.active(c));
  EXPECT_TRUE(middle.active({2, 4}));
  EXPECT_EQ(middle.stats().abandoned, 2u);
  EXPECT_EQ(middle.active_count(), 3u);

  // A key begun again after completion starts a fresh trace.
  Tracer again(config);
  again.begin_span(a, "radio", 0);
  again.end_span(a, "radio", 10);
  again.complete(a, 10);
  again.begin_span(a, "filter", 20);
  EXPECT_TRUE(again.active(a));
  EXPECT_EQ(again.stats().started, 2u);
  again.complete(a, 30);
  const Trace* fresh = again.find_completed(a);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->begin_ns, 20);
  ASSERT_EQ(fresh->spans.size(), 1u);
  EXPECT_STREQ(fresh->spans[0].stage, "filter");
}

TEST(Tracer, ManyActiveTracesStayFindableThroughChurn) {
  // Enough concurrent keys to double the index several times, with
  // completions and discards punching holes all through it.
  Tracer::Config config;
  config.max_active = 1000;
  Tracer tracer(config);
  for (std::uint16_t seq = 0; seq < 900; ++seq) tracer.begin_span({7, seq}, "radio", seq);
  for (std::uint16_t seq = 0; seq < 900; seq += 3) tracer.complete({7, seq}, 1000);
  for (std::uint16_t seq = 1; seq < 900; seq += 3) tracer.discard({7, seq});
  EXPECT_EQ(tracer.active_count(), 300u);
  for (std::uint16_t seq = 0; seq < 900; ++seq) {
    EXPECT_EQ(tracer.active({7, seq}), seq % 3 == 2) << seq;
  }
  EXPECT_EQ(tracer.stats().completed, 300u);
  EXPECT_EQ(tracer.stats().discarded, 300u);
}

TEST(Tracer, SpansPastCapacityAreCountedNotRecorded) {
  Tracer tracer;
  const TraceKey key{3, 3};
  const char* stages[] = {"radio", "filter", "dispatch", "deliver", "extra"};
  for (const char* stage : stages) tracer.begin_span(key, stage, 10);
  tracer.end_span(key, "extra", 20);  // never recorded: nothing to close
  tracer.complete(key, 30);
  const Trace* trace = tracer.find_completed(key);
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->spans.size(), SpanList::kCapacity);
  EXPECT_STREQ(trace->spans[3].stage, "deliver");
  EXPECT_EQ(tracer.stats().spans, 5u);
  EXPECT_EQ(tracer.stats().spans_dropped, 1u);
}

TEST(Tracer, CompleteClosesTheNamedSpanLikeEndSpan) {
  MetricsRegistry registry;
  Tracer tracer;
  tracer.bind_metrics(&registry);
  const TraceKey key{4, 4};
  tracer.begin_span(key, "radio", 0);
  tracer.begin_span(key, "deliver", 100);
  tracer.complete(key, 350, "deliver");
  const Trace* trace = tracer.find_completed(key);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->spans[1].duration_ns(), 250);
  EXPECT_EQ(trace->spans[0].end_ns, 350);  // closed by completion
  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSnapshot* h = snap.histogram(kStageLatencyMetric, {{"stage", "deliver"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->sum, 250.0);
  EXPECT_EQ(snap.histogram(kStageLatencyMetric, {{"stage", "radio"}}), nullptr);
  tracer.complete(key, 400, "deliver");  // already recorded: a no-op
  EXPECT_EQ(tracer.stats().completed, 1u);
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
