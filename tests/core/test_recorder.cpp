// Stream recording and timing-preserving replay.
#include "core/recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "garnet/runtime.hpp"
#include "util/shared_bytes.hpp"

namespace garnet::core {
namespace {

using util::Duration;
using util::SimTime;

/// A delivery of `msg` heard at `heard`, retaining its own wire buffer.
DeliveryView delivery_of(const DataMessage& msg, SimTime heard) {
  return decode_delivery_view(encode_delivery(as_view(msg), heard)).value();
}

TEST(Recording, StreamsAndSpan) {
  Recording recording;
  DataMessage a;
  a.stream_id = {1, 0};
  DataMessage b;
  b.stream_id = {2, 0};
  recording.append(delivery_of(a, SimTime{} + Duration::seconds(1)));
  recording.append(delivery_of(b, SimTime{} + Duration::seconds(2)));
  recording.append(delivery_of(a, SimTime{} + Duration::seconds(4)));

  EXPECT_EQ(recording.size(), 3u);
  EXPECT_EQ(recording.streams().size(), 2u);
  EXPECT_EQ(recording.stream({1, 0}).size(), 2u);
  EXPECT_EQ(recording.span().ns, Duration::seconds(3).ns);
}

TEST(Replay, PreservesRelativeTiming) {
  sim::Scheduler scheduler;
  Recording recording;
  DataMessage msg;
  msg.stream_id = {1, 0};
  for (int i = 0; i < 4; ++i) {
    msg.sequence = static_cast<SequenceNo>(i);
    recording.append(delivery_of(msg, SimTime{} + Duration::millis(100 * i)));
  }

  std::vector<std::int64_t> fire_times;
  const SimTime last = replay(
      scheduler, recording, [&](const DeliveryView&) { fire_times.push_back(scheduler.now().ns); });
  scheduler.run();

  ASSERT_EQ(fire_times.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(fire_times[i], Duration::millis(100 * i).ns);
  EXPECT_EQ(last.ns, Duration::millis(300).ns);
}

TEST(Replay, SpeedScalesGaps) {
  sim::Scheduler scheduler;
  Recording recording;
  DataMessage msg;
  msg.stream_id = {1, 0};
  recording.append(delivery_of(msg, SimTime{}));
  recording.append(delivery_of(msg, SimTime{} + Duration::seconds(10)));

  std::vector<std::int64_t> fire_times;
  replay(
      scheduler, recording, [&](const DeliveryView&) { fire_times.push_back(scheduler.now().ns); },
      /*speed=*/5.0);
  scheduler.run();
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_EQ(fire_times[1], Duration::seconds(2).ns);  // 10s compressed 5x
}

TEST(Replay, EmptyRecordingIsNoop) {
  sim::Scheduler scheduler;
  const Recording recording;
  const SimTime last = replay(scheduler, recording, [](const DeliveryView&) { FAIL(); });
  EXPECT_EQ(last, scheduler.now());
  scheduler.run();
}

TEST(Recorder, TransparentlyChainsHandler) {
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  Runtime runtime(config);
  runtime.deploy_receivers(4, 400);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 1;
  spec.interval_ms = 100;
  runtime.deploy_population(spec);

  Consumer consumer(runtime.bus(), "consumer.archiver");
  runtime.provision(consumer, "archiver");
  std::size_t app_saw = 0;
  consumer.set_data_handler([&](const DeliveryView&) { ++app_saw; });
  StreamRecorder recorder(consumer);  // chained AFTER the app handler set
  consumer.subscribe(StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(3));

  EXPECT_GT(app_saw, 10u);                                 // app still served
  EXPECT_EQ(recorder.recording().size(), app_saw);          // archive complete
  EXPECT_GT(recorder.recording().span().ns, 0);
}

TEST(Recorder, ArchivesWithoutPayloadCopies) {
  // Archived entries retain their dispatch-time wire buffers: recording
  // N deliveries copies no payload byte, and the recording outlives the
  // runtime and consumer that delivered it.
  constexpr int kMessages = 32;
  const auto payload_of = [](int i) {
    util::Bytes payload(64 + static_cast<std::size_t>(i));
    for (std::size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<std::byte>(i * 31 + static_cast<int>(b));
    }
    return payload;
  };

  Recording recording;
  {
    Runtime runtime(Runtime::Config{});
    Consumer consumer(runtime.bus(), "consumer.archiver");
    runtime.provision(consumer, "archiver");
    StreamRecorder recorder(consumer);
    consumer.subscribe(StreamPattern::exact({7, 0}));
    runtime.run_for(Duration::millis(20));

    std::vector<util::Bytes> payloads;
    for (int i = 0; i < kMessages; ++i) payloads.push_back(payload_of(i));

    const util::PayloadStats before = util::payload_stats();
    DataMessageView msg;
    msg.stream_id = {7, 0};
    for (int i = 0; i < kMessages; ++i) {
      msg.sequence = static_cast<SequenceNo>(i);
      msg.payload = payloads[static_cast<std::size_t>(i)];
      runtime.inject_external(msg);
      runtime.run_for(Duration::millis(1));
    }
    ASSERT_EQ(recorder.recording().size(), static_cast<std::size_t>(kMessages));
    EXPECT_EQ(util::payload_stats().copies - before.copies, 0u);
    recording = std::move(recorder).take();
  }

  sim::Scheduler scheduler;
  std::vector<int> replayed;
  replay(scheduler, recording, [&](const DeliveryView& d) {
    const int i = d.message.sequence;
    const util::Bytes expected = payload_of(i);
    EXPECT_TRUE(std::ranges::equal(d.message.payload, expected)) << "message " << i;
    replayed.push_back(i);
  });
  scheduler.run();
  ASSERT_EQ(replayed.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(replayed[static_cast<std::size_t>(i)], i);
}

TEST(Recorder, ReplayAsDerivedStreamReachesSubscribers) {
  Runtime::Config config;
  config.field.radio.base_loss = 0.0;
  config.field.radio.edge_loss = 0.0;
  Runtime runtime(config);
  runtime.deploy_receivers(4, 400);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 1;
  spec.interval_ms = 200;
  runtime.deploy_population(spec);

  // Record 5 seconds of live data.
  Consumer archiver(runtime.bus(), "consumer.archiver");
  runtime.provision(archiver, "archiver");
  StreamRecorder recorder(archiver);
  archiver.subscribe(StreamPattern::all_of(1));
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(5));
  runtime.field().stop_all();
  const std::size_t recorded = recorder.recording().size();
  ASSERT_GT(recorded, 5u);

  // Replay the archive as a derived stream; an analyst subscribes to it.
  const StreamId archive = runtime.create_derived_stream("archive.1", "replay");
  Consumer analyst(runtime.bus(), "consumer.analyst");
  runtime.provision(analyst, "analyst");
  std::size_t replayed = 0;
  analyst.set_data_handler([&](const DeliveryView& d) {
    ++replayed;
    EXPECT_TRUE(d.message.header.has(HeaderFlag::kDerived));
    EXPECT_TRUE(d.message.header.has(HeaderFlag::kFused));
  });
  analyst.subscribe(StreamPattern::exact(archive));
  runtime.run_for(Duration::millis(20));

  replay_as_stream(runtime.scheduler(), recorder.recording(), archiver, archive, /*speed=*/10.0);
  runtime.run_for(Duration::seconds(2));

  EXPECT_EQ(replayed, recorded);
}

}  // namespace
}  // namespace garnet::core
