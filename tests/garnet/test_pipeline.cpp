// Declarative multi-level stages over the runtime.
#include "garnet/pipeline.hpp"

#include <gtest/gtest.h>

#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;

/// A delivery carrying `payload`, retaining its own wire buffer.
core::DeliveryView delivery_of(util::BytesView payload) {
  core::DataMessageView message;
  message.payload = payload;
  return core::decode_delivery_view(core::encode_delivery(message, {})).value();
}

/// A delivery whose payload is the 8-byte encoding of `value`.
core::DeliveryView delivery_of(double value) {
  util::ByteWriter w(8);
  w.f64(value);
  return delivery_of(w.view());
}

Runtime::Config clean_config() {
  Runtime::Config config;
  config.field.area = {{0, 0}, {400, 400}};
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  return config;
}

struct PipelineFixture : ::testing::Test {
  Runtime runtime{clean_config()};

  PipelineFixture() {
    runtime.deploy_receivers(4, 300);
    wireless::SensorField::PopulationSpec spec;
    spec.count = 2;
    spec.interval_ms = 100;
    runtime.deploy_population(spec);
  }
};

TEST_F(PipelineFixture, SingleStageTransformsAndPublishes) {
  DerivedStage stage(runtime, "means", {core::StreamPattern::all_of(1)}, windowed_mean(4),
                     "smoothed");
  core::Consumer sink(runtime.bus(), "consumer.sink");
  runtime.provision(sink, "sink");
  std::vector<double> means;
  sink.set_data_handler([&](const core::DeliveryView& d) {
    util::ByteReader r(d.message.payload);
    means.push_back(r.f64());
  });
  sink.subscribe(core::StreamPattern::exact(stage.output()));

  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(5));

  EXPECT_GT(stage.consumed(), 30u);
  EXPECT_EQ(stage.published(), stage.consumed() / 4);
  EXPECT_EQ(means.size(), stage.published());
  for (const double m : means) {
    EXPECT_GT(m, 15.0);  // default payloads are N(20, 1)
    EXPECT_LT(m, 25.0);
  }
}

TEST_F(PipelineFixture, StagesChainThroughDerivedStreams) {
  DerivedStage stats(runtime, "stats", {core::StreamPattern::all_of(1)},
                     windowed_minmaxmean(5), "window-stats");
  // Second level consumes the first level's output: alert when the
  // window *max* (first f64 is min, so use a custom transform) — here we
  // simply alert on the min value exceeding an always-true threshold to
  // exercise the chain deterministically.
  DerivedStage alarm(runtime, "alarm", {core::StreamPattern::exact(stats.output())},
                     threshold_alert(0.0), "alert");

  core::Consumer sink(runtime.bus(), "consumer.sink");
  runtime.provision(sink, "sink");
  sink.subscribe(core::StreamPattern::exact(alarm.output()));

  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(5));

  EXPECT_GT(stats.published(), 5u);
  EXPECT_EQ(alarm.consumed(), stats.published());
  // Rising-edge alert: fires exactly once (values stay above 0).
  EXPECT_EQ(alarm.published(), 1u);
  EXPECT_EQ(sink.received(), 1u);
}

TEST_F(PipelineFixture, ThresholdAlertFiresOnRisingEdgesOnly) {
  auto transform = threshold_alert(10.0);
  const auto feed = [&](double value) { return transform(delivery_of(value)).has_value(); };
  EXPECT_FALSE(feed(5.0));
  EXPECT_TRUE(feed(15.0));   // rising edge
  EXPECT_FALSE(feed(20.0));  // still above: no re-alert
  EXPECT_FALSE(feed(5.0));   // falling
  EXPECT_TRUE(feed(11.0));   // rises again
}

TEST_F(PipelineFixture, MinMaxMeanOrdering) {
  auto transform = windowed_minmaxmean(3);
  const auto feed = [&](double value) { return transform(delivery_of(value)); };
  EXPECT_FALSE(feed(3.0).has_value());
  EXPECT_FALSE(feed(1.0).has_value());
  const auto out = feed(2.0);
  ASSERT_TRUE(out.has_value());
  util::ByteReader r(*out);
  EXPECT_DOUBLE_EQ(r.f64(), 1.0);
  EXPECT_DOUBLE_EQ(r.f64(), 3.0);
  EXPECT_DOUBLE_EQ(r.f64(), 2.0);
}

TEST_F(PipelineFixture, StageOutputsAreDiscoverable) {
  DerivedStage stage(runtime, "survey-means", {core::StreamPattern::all_of(1)},
                     windowed_mean(4), "smoothed");
  core::StreamCatalog::Query query;
  query.stream_class = "smoothed";
  const auto found = runtime.catalog().discover(query);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].name, "survey-means");
  EXPECT_EQ(found[0].id, stage.output());
}

TEST_F(PipelineFixture, MalformedInputsAreSkipped) {
  auto transform = windowed_mean(2);
  EXPECT_FALSE(transform(delivery_of(util::to_bytes("shrt"))).has_value());  // < 8 bytes
  // Valid inputs still work afterwards.
  EXPECT_FALSE(transform(delivery_of(4.0)).has_value());
  const auto out = transform(delivery_of(6.0));
  ASSERT_TRUE(out.has_value());
  util::ByteReader r(*out);
  EXPECT_DOUBLE_EQ(r.f64(), 5.0);
}

}  // namespace
}  // namespace garnet
