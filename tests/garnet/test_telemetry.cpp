// End-to-end telemetry: a message injected at a simulated sensor yields
// one completed trace whose spans cover radio receipt, filtering,
// dispatch, and consumer delivery (four services), with stage-latency
// histograms fed along the way; the actuation path records its own
// round-trip trace in the kActuation domain.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "garnet/report.hpp"
#include "garnet/runtime.hpp"
#include "obs/export.hpp"
#include "util/crc32c.hpp"

namespace garnet {
namespace {

using util::Duration;

Runtime::Config reliable_config() {
  Runtime::Config config;
  config.field.area = {{0, 0}, {600, 600}};
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  return config;
}

wireless::SensorNode& deploy_sensor_at(Runtime& runtime, core::SensorId id, sim::Vec2 position,
                                       std::uint32_t interval_ms = 200,
                                       bool receive_capable = false) {
  wireless::SensorNode::Config config;
  config.id = id;
  config.capabilities.receive_capable = receive_capable;
  wireless::StreamSpec spec;
  spec.interval_ms = interval_ms;
  spec.constraints = {.min_interval_ms = 50, .max_interval_ms = 60000, .max_payload = 128};
  config.streams.push_back(spec);
  return runtime.deploy_sensor(std::move(config),
                               std::make_unique<sim::StaticMobility>(position));
}

TEST(Telemetry, MessageTraceSpansFourServices) {
  Runtime runtime(reliable_config());
  runtime.deploy_receivers(9, 250);
  deploy_sensor_at(runtime, 1, {300, 300});

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(2));

  obs::Tracer& tracer = runtime.telemetry().tracer;
  EXPECT_GT(tracer.stats().completed, 0u);

  const auto traces = tracer.completed_snapshot();
  ASSERT_FALSE(traces.empty());
  const obs::Trace& trace = traces.front();
  EXPECT_EQ(trace.key.domain, obs::TraceKey::kData);
  EXPECT_EQ(trace.key.stream, (core::StreamId{1, 0}).packed());

  // One span per pipeline hop, in journey order, all closed, each
  // starting no earlier than the previous one ended.
  ASSERT_EQ(trace.spans.size(), 4u);
  const char* expected[] = {"radio", "filter", "dispatch", "deliver"};
  std::int64_t previous_end = trace.begin_ns;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_STREQ(trace.spans[i].stage, expected[i]);
    EXPECT_FALSE(trace.spans[i].open());
    EXPECT_GE(trace.spans[i].begin_ns, previous_end);
    previous_end = trace.spans[i].end_ns;
  }
  EXPECT_EQ(trace.end_ns, trace.spans[3].end_ns);
}

TEST(Telemetry, StageLatencyHistogramsCoverEveryHop) {
  Runtime runtime(reliable_config());
  runtime.deploy_receivers(9, 250);
  deploy_sensor_at(runtime, 1, {300, 300});

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(2));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  for (const char* stage : {"radio", "filter", "dispatch", "deliver"}) {
    const obs::HistogramSnapshot* h =
        snap.histogram(obs::kStageLatencyMetric, {{"stage", stage}});
    ASSERT_NE(h, nullptr) << "missing stage histogram: " << stage;
    EXPECT_GT(h->count, 0u) << stage;
  }
  // The radio hop takes real (virtual) time; its p99 must be positive.
  EXPECT_GT(snap.histogram(obs::kStageLatencyMetric, {{"stage", "radio"}})->quantile(0.99), 0.0);
}

TEST(Telemetry, ActuationRoundTripTraced) {
  Runtime runtime(reliable_config());
  runtime.deploy_receivers(9, 250);
  runtime.deploy_transmitters(9, 250);
  auto& sensor = deploy_sensor_at(runtime, 1, {300, 300}, 200, /*receive_capable=*/true);
  sensor.start();

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::seconds(3));  // build location evidence

  consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 100, {});
  runtime.run_for(Duration::seconds(3));
  ASSERT_EQ(runtime.actuation().stats().acked, 1u);

  bool found = false;
  for (const obs::Trace& trace : runtime.telemetry().tracer.completed_snapshot()) {
    if (trace.key.domain != obs::TraceKey::kActuation) continue;
    found = true;
    ASSERT_EQ(trace.spans.size(), 1u);
    EXPECT_STREQ(trace.spans[0].stage, "actuation");
    EXPECT_GT(trace.spans[0].duration_ns(), 0);
  }
  EXPECT_TRUE(found) << "no actuation-domain trace recorded";

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  const obs::HistogramSnapshot* h =
      snap.histogram(obs::kStageLatencyMetric, {{"stage", "actuation"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
}

TEST(Telemetry, OrphanedMessagesAreDiscardedNotRecorded) {
  Runtime runtime(reliable_config());
  runtime.deploy_receivers(9, 250);
  deploy_sensor_at(runtime, 1, {300, 300});
  // No consumer: every delivery attempt ends unclaimed at dispatch.
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(2));

  obs::Tracer& tracer = runtime.telemetry().tracer;
  EXPECT_EQ(tracer.stats().completed, 0u);
  EXPECT_GT(tracer.stats().discarded, 0u);
}

TEST(Telemetry, TracingCanBeDisabledPerRuntime) {
  Runtime::Config config = reliable_config();
  config.trace.enabled = false;
  Runtime runtime(config);
  runtime.deploy_receivers(4, 400);
  deploy_sensor_at(runtime, 1, {300, 300});

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(2));

  EXPECT_GT(consumer.received(), 0u);  // pipeline unaffected
  EXPECT_EQ(runtime.telemetry().tracer.stats().started, 0u);
  EXPECT_TRUE(runtime.telemetry().tracer.completed_snapshot().empty());
}

TEST(Telemetry, RegistryCarriesPushAndPullMetrics) {
  Runtime runtime(reliable_config());
  runtime.deploy_receivers(4, 400);
  deploy_sensor_at(runtime, 1, {300, 300});

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(2));

  const obs::MetricsSnapshot snap = runtime.telemetry().registry.snapshot();
  // Push-style instruments (observed on the hot path)...
  const obs::HistogramSnapshot* transit = snap.histogram("garnet.bus.transit_ns");
  ASSERT_NE(transit, nullptr);
  EXPECT_GT(transit->count, 0u);
  ASSERT_NE(snap.histogram("garnet.radio.frame_bytes"), nullptr);
  // ...and pull-style collector samples agree with the service structs.
  EXPECT_EQ(snap.counter("garnet.filtering.messages_out"),
            runtime.filtering().stats().messages_out);
  EXPECT_GT(snap.counter("garnet.bus.posted"), 0u);
  EXPECT_GE(snap.counter("garnet.bus.posted"), snap.counter("garnet.bus.delivered"));
  EXPECT_DOUBLE_EQ(snap.gauge("garnet.field.sensors"), 1.0);
  // Present even when zero: every receiver here is deployed.
  ASSERT_NE(snap.find("garnet.location.unknown_receiver"), nullptr);
  EXPECT_EQ(snap.counter("garnet.location.unknown_receiver"), 0u);
}

// --- byte pin: every series and recorded trace of one seeded run --------
//
// A lossy field (frames nobody hears leave traces open until the active
// cap abandons them), one firehose consumer, an actuation round trip and
// a stream nobody subscribes to (its traces are discarded), with caps
// small enough that abandonment and recorder eviction run. The tracer's
// counters, the histogram series and the flight recorder's renderings
// are pinned, so a telemetry rewrite that moves one observation fails.

TEST(Telemetry, SeededRunOutputIsPinned) {
  Runtime::Config config;
  config.field.area = {{0, 0}, {600, 600}};
  config.field.seed = 7;
  config.field.radio.base_loss = 0.2;
  config.field.radio.edge_loss = 0.5;
  config.trace.max_active = 16;
  config.trace.recorder_capacity = 8;
  Runtime runtime(config);
  runtime.deploy_receivers(4, 250);
  runtime.deploy_transmitters(9, 250);
  for (core::SensorId id = 1; id <= 5; ++id) {
    deploy_sensor_at(runtime, id, {100.0 * id, 80.0 * id}, 100, /*receive_capable=*/id == 1);
  }
  deploy_sensor_at(runtime, 50, {320, 280}, 150);  // orphaned: nobody subscribes

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  for (core::SensorId id = 1; id <= 5; ++id) consumer.subscribe(core::StreamPattern::all_of(id));
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(3));
  consumer.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 200, {});
  runtime.run_for(Duration::seconds(3));
  ASSERT_EQ(runtime.actuation().stats().acked, 1u);

  const obs::Tracer::Stats& stats = runtime.telemetry().tracer.stats();
  EXPECT_EQ(stats.started, 315u);
  EXPECT_EQ(stats.completed, 220u);
  EXPECT_EQ(stats.discarded, 37u);
  EXPECT_EQ(stats.abandoned, 43u);
  EXPECT_EQ(stats.spans, 1046u);

  const auto expect_pinned = [](const std::string& text, std::size_t size, std::uint32_t crc,
                                 const char* what) {
    const std::uint32_t actual = util::crc32c(util::to_bytes(text));
    EXPECT_EQ(text.size(), size) << what;
    EXPECT_EQ(actual, crc) << what << " crc 0x" << std::hex << actual;
  };
  obs::MetricsSnapshot histograms = runtime.telemetry().registry.snapshot(
      static_cast<std::uint64_t>(runtime.scheduler().now().ns));
  std::erase_if(histograms.samples, [](const obs::Sample& sample) {
    // The payload counters are process-wide; other tests move them.
    return sample.kind != obs::InstrumentKind::kHistogram ||
           sample.name.starts_with("garnet.bus.payload_");
  });
  expect_pinned(obs::render_json(histograms), 2399, 0x73397B55, "histogram series");

  const std::vector<obs::Trace> recorded = runtime.telemetry().tracer.completed_snapshot();
  std::string lines;
  for (const obs::Trace& trace : recorded) {
    lines += trace.to_string();
    lines += '\n';
  }
  expect_pinned(lines, 621, 0x3EC532C4, "recorder lines");
  expect_pinned(obs::render_traces_json(recorded), 2750, 0xF564DD01, "recorder json");
}

}  // namespace
}  // namespace garnet
