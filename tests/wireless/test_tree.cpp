// Self-organizing tree routing: wire codec, sink decisions, formation
// over the lossy medium, repair journalling, and the router's defensive
// behaviour against duplicates, loops, and TTL abuse.
#include "wireless/tree.hpp"

#include <gtest/gtest.h>

#include "core/message.hpp"
#include "wireless/field.hpp"

namespace garnet::wireless::tree {
namespace {

using util::Duration;
using util::SimTime;

util::Bytes sample_frame(core::SensorId sensor, core::SequenceNo seq) {
  core::DataMessage msg;
  msg.stream_id = {sensor, 0};
  msg.sequence = seq;
  msg.payload = util::to_bytes("reading");
  return core::encode(msg);
}

// --- wire format ----------------------------------------------------------

TEST(TreeCodec, BeaconRoundTrip) {
  const Beacon beacon{root_key(3), 0, root_key(3)};
  const util::Bytes wire = encode_beacon(beacon);
  EXPECT_TRUE(is_tree_frame(wire));
  const auto decoded = decode_beacon(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->origin, root_key(3));
  EXPECT_EQ(decoded->hop, 0);
  EXPECT_EQ(decoded->root, root_key(3));
}

TEST(TreeCodec, DataRoundTripInnerPreserved) {
  const util::Bytes inner = sample_frame(7, 42);
  const util::Bytes wire = encode_data(DataFrame{8, 2, 11, 7, inner});
  EXPECT_TRUE(is_tree_frame(wire));
  const auto decoded = decode_data(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ttl, 8);
  EXPECT_EQ(decoded->hop, 2);
  EXPECT_EQ(decoded->next_hop, 11u);
  EXPECT_EQ(decoded->origin, 7u);
  EXPECT_TRUE(std::equal(decoded->inner.begin(), decoded->inner.end(), inner.begin(),
                         inner.end()));
}

TEST(TreeCodec, CorruptedFramesRejected) {
  util::Bytes beacon = encode_beacon(Beacon{root_key(1), 0, root_key(1)});
  beacon[5] ^= std::byte{0x40};
  EXPECT_FALSE(decode_beacon(beacon).has_value());

  util::Bytes data = encode_data(DataFrame{4, 1, 2, 3, sample_frame(3, 1)});
  data[data.size() - 1] ^= std::byte{0x01};
  EXPECT_FALSE(decode_data(data).has_value());
}

TEST(TreeCodec, MagicByteCannotCollideWithFigure2) {
  // A Figure-2 frame's first byte carries version 1 in bits 7..6
  // (0b01xxxxxx); the tree magic is 0b10110111.
  const util::Bytes figure2 = sample_frame(1, 0);
  EXPECT_FALSE(is_tree_frame(figure2));
  EXPECT_EQ(static_cast<std::uint8_t>(figure2[0]) >> 6, 0b01);
  EXPECT_EQ(kTreeMagic >> 6, 0b10);
}

TEST(TreeCodec, RootKeysNeverCollideWithSensorKeys) {
  EXPECT_TRUE(is_root_key(root_key(1)));
  EXPECT_FALSE(is_root_key(core::kMaxSensorId));
  EXPECT_EQ(key_name(root_key(4)), "root-4");
  EXPECT_EQ(key_name(17), "sensor-17");
}

// --- sink decisions -------------------------------------------------------

TEST(TreeSink, BeaconsDropDataDecapsulatesPlainPassesThrough) {
  const util::Bytes beacon = encode_beacon(Beacon{root_key(1), 0, root_key(1)});
  EXPECT_EQ(decide_at_sink(beacon).verdict, SinkDecision::Verdict::kBeacon);

  const util::Bytes inner = sample_frame(9, 3);
  const util::Bytes wrapped = encode_data(DataFrame{8, 1, root_key(1), 5, inner});
  const SinkDecision data = decide_at_sink(wrapped);
  EXPECT_EQ(data.verdict, SinkDecision::Verdict::kInner);
  EXPECT_EQ(data.inner, inner);

  EXPECT_EQ(decide_at_sink(inner).verdict, SinkDecision::Verdict::kPassThrough);

  util::Bytes corrupt = wrapped;
  corrupt[3] ^= std::byte{0xFF};
  EXPECT_EQ(decide_at_sink(corrupt).verdict, SinkDecision::Verdict::kCorrupt);
}

// --- journal --------------------------------------------------------------

TEST(TreeJournalTest, RendersDeterministicTextAndHonoursLimit) {
  TreeJournal journal(2);
  journal.record(SimTime{1000}, "attach", 5, root_key(1));
  journal.record(SimTime{2000}, "orphan", 5, root_key(1));
  journal.record(SimTime{3000}, "attach", 5, 6);  // over limit: dropped
  EXPECT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal.text(), "1000 attach sensor-5->root-1\n2000 orphan sensor-5->root-1\n");
}

// --- router unit behaviour ------------------------------------------------

struct RouterFixture : ::testing::Test {
  sim::Scheduler scheduler;
  TreeConfig config;
  std::vector<util::Bytes> sent;

  std::unique_ptr<TreeRouter> make_router(std::uint32_t key) {
    auto router = std::make_unique<TreeRouter>(scheduler, config, key);
    router->set_transmit([this](util::Bytes frame) { sent.push_back(std::move(frame)); });
    router->start();
    return router;
  }
};

TEST_F(RouterFixture, AttachesToRootBeaconAndBeaconsBack) {
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  EXPECT_TRUE(router->attached());
  EXPECT_EQ(router->parent_key(), root_key(1));
  EXPECT_EQ(router->depth(), 1);
  // Attach announces the new depth immediately (cascade convergence).
  ASSERT_EQ(sent.size(), 1u);
  const auto beacon = decode_beacon(sent[0]);
  ASSERT_TRUE(beacon.has_value());
  EXPECT_EQ(beacon->origin, 5u);
  EXPECT_EQ(beacon->hop, 1);
}

TEST_F(RouterFixture, SendOwnPlainWhenParentIsRoot) {
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  sent.clear();
  router->send_own(sample_frame(5, 0));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_FALSE(is_tree_frame(sent[0]));  // final hop is a plain Figure-2 frame
}

TEST_F(RouterFixture, SendOwnWrapsTowardRelayParent) {
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{9, 1, root_key(1)}), -40.0);
  sent.clear();
  router->send_own(sample_frame(5, 0));
  ASSERT_EQ(sent.size(), 1u);
  const auto data = decode_data(sent[0]);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->next_hop, 9u);
  EXPECT_EQ(data->origin, 5u);
  EXPECT_EQ(data->ttl, kMaxTtl);
}

TEST_F(RouterFixture, NeverAttachedSendsPlainLegacyUplink) {
  auto router = make_router(5);
  router->send_own(sample_frame(5, 0));
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_FALSE(is_tree_frame(sent[0]));
}

TEST_F(RouterFixture, ForwardsAddressedDataTaggedRelayed) {
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  sent.clear();

  const util::Bytes inner = sample_frame(9, 7);
  router->on_frame(encode_data(DataFrame{8, 2, 5, 9, inner}), -60.0);
  ASSERT_EQ(sent.size(), 1u);
  const auto forwarded = core::decode_view(sent[0]);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_TRUE(forwarded.value().header.has(core::HeaderFlag::kRelayed));
  EXPECT_EQ(forwarded.value().stream_id.sensor, 9u);
  EXPECT_EQ(router->stats().forwarded, 1u);
}

TEST_F(RouterFixture, DropsDataAddressedElsewhere) {
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  sent.clear();
  router->on_frame(encode_data(DataFrame{8, 2, 6, 9, sample_frame(9, 0)}), -60.0);
  EXPECT_TRUE(sent.empty());
  EXPECT_EQ(router->stats().forwarded, 0u);
}

TEST_F(RouterFixture, DuplicateSuppressionForwardsOnce) {
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  sent.clear();
  const util::Bytes wire = encode_data(DataFrame{8, 2, 5, 9, sample_frame(9, 7)});
  router->on_frame(wire, -60.0);
  router->on_frame(wire, -61.0);
  router->on_frame(wire, -59.0);
  EXPECT_EQ(sent.size(), 1u);
  EXPECT_EQ(router->stats().dup_dropped, 2u);
}

TEST_F(RouterFixture, TtlZeroAndForgedTtlBounded) {
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{9, 1, root_key(1)}), -40.0);  // relay parent
  sent.clear();

  router->on_frame(encode_data(DataFrame{0, 2, 5, 9, sample_frame(9, 1)}), -60.0);
  EXPECT_EQ(router->stats().ttl_dropped, 1u);
  EXPECT_TRUE(sent.empty());

  // A forged TTL of 255 is clamped to kMaxTtl before the hop is spent.
  router->on_frame(encode_data(DataFrame{255, 2, 5, 9, sample_frame(9, 2)}), -60.0);
  ASSERT_EQ(sent.size(), 1u);
  const auto data = decode_data(sent[0]);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->ttl, kMaxTtl - 1);
}

TEST_F(RouterFixture, OwnFrameComingBackIsLoopDropped) {
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  sent.clear();
  router->on_frame(encode_data(DataFrame{8, 2, 5, 5, sample_frame(9, 0)}), -60.0);
  router->on_frame(encode_data(DataFrame{8, 2, 5, 9, sample_frame(5, 0)}), -60.0);
  EXPECT_EQ(router->stats().loop_dropped, 2u);
  EXPECT_TRUE(sent.empty());
}

TEST_F(RouterFixture, ImplausibleHopCountRejected) {
  auto router = make_router(5);
  // hop 0xFFFF would wrap hop+1 to depth 0 and hijack parent selection.
  router->on_frame(encode_beacon(Beacon{9, 0xFFFF, root_key(1)}), -10.0);
  EXPECT_FALSE(router->attached());
  EXPECT_EQ(router->stats().corrupt_dropped, 1u);
}

TEST_F(RouterFixture, OrphanedFramesBufferAndFlushOnReattach) {
  config.beacon_interval = Duration::millis(100);
  config.orphan_capacity = 4;
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{9, 1, root_key(1)}), -40.0);
  ASSERT_TRUE(router->attached());

  // Parent goes silent; the missed-beacon timeout orphans the router.
  scheduler.run_until(scheduler.now() + Duration::millis(1000));
  EXPECT_FALSE(router->attached());
  EXPECT_EQ(router->stats().orphan_events, 1u);

  sent.clear();
  for (core::SequenceNo seq = 0; seq < 3; ++seq) router->send_own(sample_frame(5, seq));
  EXPECT_TRUE(sent.empty());
  EXPECT_EQ(router->orphan_backlog(), 3u);

  // Backoff passes; a new parent appears; the backlog drains to it.
  scheduler.run_until(scheduler.now() + Duration::millis(500));
  router->on_frame(encode_beacon(Beacon{root_key(2), 0, root_key(2)}), -45.0);
  EXPECT_TRUE(router->attached());
  EXPECT_EQ(router->orphan_backlog(), 0u);
  // 1 attach beacon + 3 flushed data frames (plain: parent is a root).
  EXPECT_EQ(sent.size(), 4u);
}

TEST_F(RouterFixture, OrphanOverflowSpillsOldestAsPlain) {
  config.beacon_interval = Duration::millis(100);
  config.orphan_capacity = 2;
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{9, 1, root_key(1)}), -40.0);
  scheduler.run_until(scheduler.now() + Duration::millis(1000));
  ASSERT_FALSE(router->attached());

  sent.clear();
  for (core::SequenceNo seq = 0; seq < 4; ++seq) router->send_own(sample_frame(5, seq));
  EXPECT_EQ(router->orphan_backlog(), 2u);
  EXPECT_EQ(router->stats().spilled, 2u);
  ASSERT_EQ(sent.size(), 2u);  // spilled frames went out plain
  EXPECT_FALSE(is_tree_frame(sent[0]));
}

TEST_F(RouterFixture, StopWipesRoutingState) {
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  ASSERT_TRUE(router->attached());
  router->stop();
  EXPECT_FALSE(router->attached());
  EXPECT_EQ(router->neighbor_count(), 0u);
  // Restarted cold: it needs a fresh beacon to rejoin.
  router->start();
  EXPECT_FALSE(router->attached());
  router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  EXPECT_TRUE(router->attached());
}

TEST_F(RouterFixture, BeaconDeafLosesParentViaTimeout) {
  config.beacon_interval = Duration::millis(100);
  auto router = make_router(5);
  router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  router->set_beacon_deaf(true);
  for (int i = 0; i < 12; ++i) {
    scheduler.run_until(scheduler.now() + Duration::millis(100));
    router->on_frame(encode_beacon(Beacon{root_key(1), 0, root_key(1)}), -40.0);
  }
  EXPECT_FALSE(router->attached());
  EXPECT_EQ(router->stats().orphan_events, 1u);
}

// --- formation over the real medium --------------------------------------

SensorField::Config chain_field() {
  SensorField::Config config;
  config.area = {{0, 0}, {600, 100}};
  config.radio.base_loss = 0.0;
  config.radio.edge_loss = 0.0;
  config.seed = 7;
  config.tree_beacons = true;
  config.tree.beacon_interval = Duration::millis(200);
  config.tree_journal_limit = 1024;
  return config;
}

SensorNode::Config chain_node(core::SensorId id, const SensorField::Config& field,
                              bool sampling) {
  SensorNode::Config config;
  config.id = id;
  config.capabilities.relay_capable = true;
  config.relay_overhear_range_m = 150;
  config.tree = field.tree;
  if (sampling) {
    StreamSpec spec;
    spec.interval_ms = 500;
    config.streams.push_back(spec);
  }
  return config;
}

struct ChainResult {
  std::uint16_t relay_depth = 0;
  std::uint16_t source_depth = 0;
  std::uint32_t source_parent = 0;
  std::uint64_t inner_heard = 0;
  std::uint64_t relayed_heard = 0;
  std::string journal;
};

ChainResult run_chain(std::uint64_t seed) {
  sim::Scheduler scheduler;
  SensorField::Config config = chain_field();
  config.seed = seed;
  SensorField field(scheduler, config);
  field.medium().add_receiver({1, {0, 0}, 120});

  SensorNode& relay =
      field.add_sensor(chain_node(1, config, /*sampling=*/false),
                       std::make_unique<sim::StaticMobility>(sim::Vec2{100, 0}));
  SensorNode& source =
      field.add_sensor(chain_node(2, config, /*sampling=*/true),
                       std::make_unique<sim::StaticMobility>(sim::Vec2{220, 0}));

  ChainResult result;
  field.medium().set_uplink_sink([&](const ReceptionReport& r) {
    auto decision = tree::decide_at_sink(r.frame);
    if (decision.verdict == SinkDecision::Verdict::kBeacon) return;
    const util::BytesView frame = decision.verdict == SinkDecision::Verdict::kInner
                                      ? util::BytesView(decision.inner)
                                      : util::BytesView(r.frame);
    const auto decoded = core::decode_view(frame);
    if (!decoded.ok()) return;
    if (decoded.value().stream_id.sensor != 2) return;
    ++result.inner_heard;
    if (decoded.value().header.has(core::HeaderFlag::kRelayed)) ++result.relayed_heard;
  });

  field.start_all();
  scheduler.run_until(SimTime{} + Duration::seconds(20));

  result.relay_depth = relay.router()->depth();
  result.source_depth = source.router()->depth();
  result.source_parent = source.router()->parent_key();
  result.journal = field.tree_journal().text();
  return result;
}

TEST(TreeFormation, ChainFormsAndDeliversThroughRelay) {
  const ChainResult result = run_chain(7);
  EXPECT_EQ(result.relay_depth, 1);
  EXPECT_EQ(result.source_depth, 2);
  EXPECT_EQ(result.source_parent, 1u);  // source attached to the relay
  // The receiver is out of the source's direct range: every source frame
  // it heard came through the relay, tagged kRelayed.
  EXPECT_GT(result.inner_heard, 30u);
  EXPECT_EQ(result.relayed_heard, result.inner_heard);
  EXPECT_NE(result.journal.find("attach sensor-1->root-1"), std::string::npos);
  EXPECT_NE(result.journal.find("attach sensor-2->sensor-1"), std::string::npos);
}

TEST(TreeFormation, SameSeedSameJournalAndTopology) {
  const ChainResult a = run_chain(21);
  const ChainResult b = run_chain(21);
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.inner_heard, b.inner_heard);
  EXPECT_EQ(a.source_parent, b.source_parent);
}

}  // namespace
}  // namespace garnet::wireless::tree
