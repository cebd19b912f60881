#include "core/orphanage.hpp"

#include <gtest/gtest.h>

#include "sim/scheduler.hpp"

namespace garnet::core {
namespace {

using util::Duration;
using util::SimTime;

struct OrphanageFixture : ::testing::Test {
  sim::Scheduler scheduler;
  net::MessageBus bus{scheduler, {}};
  Orphanage orphanage{bus, {.retention_per_stream = 4}};
  net::Address sender{99};

  void deliver(StreamId id, SequenceNo seq, SimTime heard = {},
               std::string_view payload = "orphan") {
    DataMessage msg;
    msg.stream_id = id;
    msg.sequence = seq;
    msg.payload = util::to_bytes(payload);
    bus.post(sender, orphanage.address(), kDataDelivery, encode_delivery(as_view(msg), heard));
    scheduler.run();
  }
};

TEST_F(OrphanageFixture, StoresUnclaimedData) {
  deliver({1, 0}, 0);
  EXPECT_EQ(orphanage.total_received(), 1u);
  const OrphanAnalysis* analysis = orphanage.analysis({1, 0});
  ASSERT_NE(analysis, nullptr);
  EXPECT_EQ(analysis->messages, 1u);
}

TEST_F(OrphanageFixture, RetentionBounded) {
  for (SequenceNo seq = 0; seq < 10; ++seq) deliver({1, 0}, seq);
  const OrphanAnalysis* analysis = orphanage.analysis({1, 0});
  ASSERT_NE(analysis, nullptr);
  EXPECT_EQ(analysis->messages, 10u);
  EXPECT_EQ(analysis->evicted, 6u);  // capacity 4

  const auto backlog = orphanage.claim({1, 0});
  ASSERT_EQ(backlog.size(), 4u);
  EXPECT_EQ(backlog.front().message.sequence, 6u);  // oldest retained
  EXPECT_EQ(backlog.back().message.sequence, 9u);
}

TEST_F(OrphanageFixture, ClaimEmptiesBacklog) {
  deliver({1, 0}, 0);
  deliver({1, 0}, 1);
  EXPECT_EQ(orphanage.claim({1, 0}).size(), 2u);
  EXPECT_TRUE(orphanage.claim({1, 0}).empty());
}

TEST_F(OrphanageFixture, ClaimRespectsMax) {
  for (SequenceNo seq = 0; seq < 4; ++seq) deliver({1, 0}, seq);
  EXPECT_EQ(orphanage.claim({1, 0}, 3).size(), 3u);
  EXPECT_EQ(orphanage.claim({1, 0}).size(), 1u);
}

TEST_F(OrphanageFixture, ClaimUnknownStreamEmpty) {
  EXPECT_TRUE(orphanage.claim({9, 9}).empty());
}

TEST_F(OrphanageFixture, AnalysisTracksRateAndSizes) {
  deliver({1, 0}, 0, SimTime{} + Duration::seconds(0), "abcd");
  deliver({1, 0}, 1, SimTime{} + Duration::seconds(1), "abcdefgh");
  deliver({1, 0}, 2, SimTime{} + Duration::seconds(2), "abcd");
  const OrphanAnalysis* analysis = orphanage.analysis({1, 0});
  ASSERT_NE(analysis, nullptr);
  EXPECT_NEAR(analysis->arrival_rate_hz, 1.0, 0.01);
  EXPECT_NEAR(analysis->mean_payload_bytes, (4 + 8 + 4) / 3.0, 0.01);
}

TEST_F(OrphanageFixture, StreamsTrackedIndependently) {
  deliver({1, 0}, 0);
  deliver({2, 0}, 0);
  deliver({2, 0}, 1);
  EXPECT_EQ(orphanage.report().size(), 2u);
  EXPECT_EQ(orphanage.analysis({1, 0})->messages, 1u);
  EXPECT_EQ(orphanage.analysis({2, 0})->messages, 2u);
}

TEST_F(OrphanageFixture, IgnoresNonDeliveryEnvelopes) {
  bus.post(sender, orphanage.address(), kStateChange, util::to_bytes("noise"));
  scheduler.run();
  EXPECT_EQ(orphanage.total_received(), 0u);
}

TEST_F(OrphanageFixture, IgnoresMalformedDeliveries) {
  bus.post(sender, orphanage.address(), kDataDelivery, util::to_bytes("junk"));
  scheduler.run();
  EXPECT_EQ(orphanage.total_received(), 0u);
}

TEST_F(OrphanageFixture, BacklogFetchableViaRpc) {
  deliver({1, 0}, 0);
  deliver({1, 0}, 1);

  net::RpcNode caller(bus, "claimer");
  std::vector<DeliveryView> fetched;
  util::ByteWriter w(6);
  w.u32(StreamId{1, 0}.packed());
  w.u16(10);
  caller.call(orphanage.address(), Orphanage::kFetchBacklog, std::move(w).take(),
              net::CallOptions{}, [&](net::RpcResult result) {
                ASSERT_TRUE(result.ok());
                util::ByteReader r(result.value());
                const std::uint16_t n = r.u16();
                for (std::uint16_t i = 0; i < n; ++i) {
                  const std::uint16_t len = r.u16();
                  const auto delivery = decode_delivery_view(r.raw(len), ChecksumPolicy::kVerify);
                  ASSERT_TRUE(delivery.ok());
                  fetched.push_back(delivery.value());
                }
              });
  scheduler.run();

  ASSERT_EQ(fetched.size(), 2u);
  EXPECT_EQ(fetched[0].message.sequence, 0u);
  EXPECT_EQ(fetched[1].message.sequence, 1u);
}

}  // namespace
}  // namespace garnet::core
