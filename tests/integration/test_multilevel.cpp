// Multi-level data consumption (paper §4.2): "Consumer processes may
// generate further derived data streams by performing additional
// processing on received data. By supporting multi-level data consumption
// where each layer offers increasingly enhanced services to successive
// levels, an arbitrarily rich application infrastructure can be
// assembled."
//
// This suite builds a three-level graph over the middleware:
//   level 0: raw sensor streams
//   level 1: per-sensor smoother (subscribes raw, publishes averages)
//   level 2: field-wide alarm (subscribes averages, publishes alerts)
#include <gtest/gtest.h>

#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;

Runtime::Config reliable_config() {
  Runtime::Config config;
  config.field.area = {{0, 0}, {400, 400}};
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  return config;
}

/// Level-1 consumer: windowed mean over one sensor's readings.
class Smoother {
 public:
  Smoother(Runtime& runtime, core::SensorId input, std::size_t window)
      : consumer_(runtime.bus(), "consumer.smoother." + std::to_string(input)),
        window_(window) {
    runtime.provision(consumer_, "smoother." + std::to_string(input));
    output_ = runtime.create_derived_stream("smoothed." + std::to_string(input), "smoothed");
    consumer_.set_data_handler([this](const core::DeliveryView& delivery) {
      util::ByteReader r(delivery.message.payload);
      const double value = r.f64();
      if (!r.ok()) return;
      recent_.push_back(value);
      if (recent_.size() < window_) return;
      double sum = 0;
      for (const double x : recent_) sum += x;
      recent_.clear();
      util::ByteWriter w(8);
      w.f64(sum / static_cast<double>(window_));
      consumer_.publish_derived(output_, std::move(w).take(),
                                static_cast<std::uint8_t>(core::HeaderFlag::kFused));
    });
    consumer_.subscribe(core::StreamPattern::all_of(input));
  }

  [[nodiscard]] core::StreamId output() const { return output_; }
  [[nodiscard]] std::uint64_t received() const { return consumer_.received(); }

 private:
  core::Consumer consumer_;
  core::StreamId output_;
  std::size_t window_;
  std::vector<double> recent_;
};

struct MultiLevelFixture : ::testing::Test {
  Runtime runtime{reliable_config()};

  MultiLevelFixture() {
    runtime.deploy_receivers(4, 300);
    wireless::SensorField::PopulationSpec spec;
    spec.first_id = 1;
    spec.count = 3;
    spec.interval_ms = 100;
    runtime.deploy_population(spec);
  }
};

TEST_F(MultiLevelFixture, DerivedStreamsFlowToSecondLevel) {
  Smoother smoother(runtime, 1, 5);
  core::Consumer level2(runtime.bus(), "consumer.level2");
  runtime.provision(level2, "level2");
  std::vector<double> averages;
  level2.set_data_handler([&](const core::DeliveryView& d) {
    util::ByteReader r(d.message.payload);
    averages.push_back(r.f64());
    EXPECT_TRUE(d.message.header.has(core::HeaderFlag::kDerived));
    EXPECT_TRUE(d.message.header.has(core::HeaderFlag::kFused));
  });
  level2.subscribe(core::StreamPattern::exact(smoother.output()));

  runtime.run_for(Duration::millis(50));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(10));

  EXPECT_GT(smoother.received(), 50u);
  EXPECT_GT(averages.size(), 10u);
  // Default sensor payloads are N(20, 1): the smoothed values stay close.
  for (const double avg : averages) {
    EXPECT_GT(avg, 15.0);
    EXPECT_LT(avg, 25.0);
  }
}

TEST_F(MultiLevelFixture, ThreeLevelGraph) {
  Smoother s1(runtime, 1, 5);
  Smoother s2(runtime, 2, 5);

  // Level 2: alarm when any smoothed value exceeds a threshold; publishes
  // its own derived alert stream.
  core::Consumer alarm(runtime.bus(), "consumer.alarm");
  runtime.provision(alarm, "alarm");
  const core::StreamId alerts = runtime.create_derived_stream("alerts", "alert");
  std::uint64_t alarm_inputs = 0;
  alarm.set_data_handler([&](const core::DeliveryView& d) {
    ++alarm_inputs;
    util::ByteReader r(d.message.payload);
    const double value = r.f64();
    if (value > 15.0) {  // always true for the synthetic signal
      util::ByteWriter w(8);
      w.f64(value);
      alarm.publish_derived(alerts, std::move(w).take());
    }
  });
  alarm.subscribe(core::StreamPattern::exact(s1.output()));
  alarm.subscribe(core::StreamPattern::exact(s2.output()));

  // Level 3 observer: end of the chain.
  core::Consumer observer(runtime.bus(), "consumer.observer");
  runtime.provision(observer, "observer");
  observer.subscribe(core::StreamPattern::exact(alerts));

  runtime.run_for(Duration::millis(50));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(10));

  EXPECT_GT(alarm_inputs, 10u);
  EXPECT_GT(observer.received(), 10u);
}

TEST_F(MultiLevelFixture, DerivedStreamsAppearInCatalog) {
  Smoother smoother(runtime, 1, 5);
  runtime.run_for(Duration::millis(50));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(5));

  const core::StreamInfo* info = runtime.catalog().find(smoother.output());
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->advertised);
  EXPECT_TRUE(info->derived);
  EXPECT_EQ(info->stream_class, "smoothed");
  EXPECT_GT(info->messages, 0u);

  core::StreamCatalog::Query query;
  query.stream_class = "smoothed";
  EXPECT_EQ(runtime.catalog().discover(query).size(), 1u);
}

TEST_F(MultiLevelFixture, RawSubscribersUnaffectedByDerivedLayer) {
  // Mutually-unaware consumption: adding the derived layer must not
  // change what a raw subscriber sees.
  core::Consumer raw(runtime.bus(), "consumer.raw");
  runtime.provision(raw, "raw");
  raw.subscribe(core::StreamPattern::all_of(1));
  Smoother smoother(runtime, 1, 5);

  runtime.run_for(Duration::millis(50));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(5));

  EXPECT_GT(raw.received(), 20u);
  EXPECT_EQ(raw.received(), smoother.received());
}

}  // namespace
}  // namespace garnet
