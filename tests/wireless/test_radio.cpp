#include "wireless/radio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"

namespace garnet::wireless {
namespace {

using util::Duration;

RadioMedium::Config perfect_radio() {
  RadioMedium::Config config;
  config.base_loss = 0.0;
  config.edge_loss = 0.0;
  config.max_jitter = Duration::nanos(0);
  return config;
}

struct RadioFixture : ::testing::Test {
  sim::Scheduler scheduler;
};

TEST_F(RadioFixture, DeliversToReceiverInRange) {
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.add_receiver({1, {0, 0}, 100});
  std::vector<ReceptionReport> reports;
  medium.set_uplink_sink([&](const ReceptionReport& r) { reports.push_back(r); });

  medium.uplink({50, 0}, util::to_bytes("frame"));
  scheduler.run();

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].receiver, 1u);
  EXPECT_EQ(util::to_string(reports[0].frame), "frame");
  EXPECT_GE(reports[0].received_at.ns, RadioMedium::kHopLatency.ns);
}

TEST_F(RadioFixture, OutOfRangeFrameUnheard) {
  obs::MetricsRegistry registry;
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.set_metrics(registry);
  medium.add_receiver({1, {0, 0}, 100});
  int heard = 0;
  medium.set_uplink_sink([&](const ReceptionReport&) { ++heard; });

  medium.uplink({500, 0}, util::to_bytes("frame"));
  scheduler.run();

  EXPECT_EQ(heard, 0);
  EXPECT_EQ(registry.snapshot().counter("garnet.radio.uplink_unheard"), 1u);
}

TEST_F(RadioFixture, OverlappingReceiversDuplicate) {
  // Paper §4.2: overlapping coverage "causes potential duplication of
  // data messages".
  obs::MetricsRegistry registry;
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.set_metrics(registry);
  medium.add_receiver({1, {-10, 0}, 100});
  medium.add_receiver({2, {10, 0}, 100});
  medium.add_receiver({3, {0, 10}, 100});
  int heard = 0;
  medium.set_uplink_sink([&](const ReceptionReport&) { ++heard; });

  medium.uplink({0, 0}, util::to_bytes("frame"));
  scheduler.run();

  EXPECT_EQ(heard, 3);
  EXPECT_EQ(registry.snapshot().counter("garnet.radio.uplink_duplicates"), 2u);
}

TEST_F(RadioFixture, LossModelDropsFrames) {
  RadioMedium::Config lossy = perfect_radio();
  lossy.base_loss = 0.5;
  RadioMedium medium(scheduler, lossy, util::Rng(7));
  medium.add_receiver({1, {0, 0}, 100});
  int heard = 0;
  medium.set_uplink_sink([&](const ReceptionReport&) { ++heard; });

  for (int i = 0; i < 1000; ++i) medium.uplink({10, 0}, util::Bytes(4));
  scheduler.run();

  EXPECT_GT(heard, 400);
  EXPECT_LT(heard, 600);
}

TEST_F(RadioFixture, EdgeLossExceedsCenterLoss) {
  RadioMedium::Config config = perfect_radio();
  config.edge_loss = 0.4;
  RadioMedium medium(scheduler, config, util::Rng(9));
  medium.add_receiver({1, {0, 0}, 100});
  int heard_near = 0;
  int heard_far = 0;
  int* counter = &heard_near;
  medium.set_uplink_sink([&](const ReceptionReport&) { ++*counter; });

  for (int i = 0; i < 2000; ++i) medium.uplink({5, 0}, util::Bytes(1));
  scheduler.run();
  counter = &heard_far;
  for (int i = 0; i < 2000; ++i) medium.uplink({99, 0}, util::Bytes(1));
  scheduler.run();

  EXPECT_GT(heard_near, heard_far + 300);
}

TEST_F(RadioFixture, RssiDecreasesWithDistance) {
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(3));
  medium.add_receiver({1, {0, 0}, 1000});
  std::vector<double> rssi;
  medium.set_uplink_sink([&](const ReceptionReport& r) { rssi.push_back(r.rssi_dbm); });

  for (int i = 0; i < 50; ++i) medium.uplink({10, 0}, util::Bytes(1));
  for (int i = 0; i < 50; ++i) medium.uplink({900, 0}, util::Bytes(1));
  scheduler.run();

  ASSERT_EQ(rssi.size(), 100u);
  double near_mean = 0;
  double far_mean = 0;
  for (int i = 0; i < 50; ++i) near_mean += rssi[static_cast<std::size_t>(i)] / 50;
  for (int i = 50; i < 100; ++i) far_mean += rssi[static_cast<std::size_t>(i)] / 50;
  EXPECT_GT(near_mean, far_mean + 20);  // ~2.4*10*log10(90) ≈ 47 dB apart
}

TEST_F(RadioFixture, DownlinkReachesEndpointInRange) {
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.add_transmitter({1, {0, 0}, 200});
  std::vector<std::string> delivered;
  medium.add_downlink_endpoint({42, [] { return sim::Vec2{100, 0}; },
                                [&](util::BytesView frame) {
                                  delivered.push_back(util::to_string(frame));
                                }});

  const std::size_t scheduled = medium.downlink(1, util::to_bytes("ctl"));
  scheduler.run();

  EXPECT_EQ(scheduled, 1u);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], "ctl");
}

TEST_F(RadioFixture, DownlinkSkipsOutOfRangeEndpoint) {
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.add_transmitter({1, {0, 0}, 200});
  medium.add_downlink_endpoint({42, [] { return sim::Vec2{900, 0}; }, [](util::BytesView) {
                                  FAIL() << "out of range";
                                }});
  EXPECT_EQ(medium.downlink(1, util::Bytes(4)), 0u);
  scheduler.run();
}

TEST_F(RadioFixture, DownlinkPositionSampledAtSendTime) {
  // A mobile endpoint that has wandered away no longer hears broadcasts.
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.add_transmitter({1, {0, 0}, 200});
  sim::Vec2 position{100, 0};
  int heard = 0;
  medium.add_downlink_endpoint({42, [&] { return position; },
                                [&](util::BytesView) { ++heard; }});

  medium.downlink(1, util::Bytes(1));
  scheduler.run();
  position = {5000, 0};
  medium.downlink(1, util::Bytes(1));
  scheduler.run();

  EXPECT_EQ(heard, 1);
}

TEST_F(RadioFixture, RemovedEndpointNotDelivered) {
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.add_transmitter({1, {0, 0}, 200});
  medium.add_downlink_endpoint({42, [] { return sim::Vec2{0, 0}; }, [](util::BytesView) {
                                  FAIL() << "endpoint was removed";
                                }});
  medium.downlink(1, util::Bytes(1));  // delivery scheduled...
  medium.remove_downlink_endpoint(42); // ...but endpoint leaves first
  scheduler.run();
}

TEST_F(RadioFixture, StatsExportedThroughRegistry) {
  obs::MetricsRegistry registry;
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.set_metrics(registry);
  medium.add_receiver({1, {0, 0}, 100});
  medium.add_transmitter({1, {0, 0}, 100});
  medium.set_uplink_sink([](const ReceptionReport&) {});
  medium.add_downlink_endpoint({1, [] { return sim::Vec2{0, 0}; }, [](util::BytesView) {}});

  medium.uplink({0, 0}, util::Bytes(10));
  medium.downlink(1, util::Bytes(20));
  scheduler.run();

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("garnet.radio.uplink_frames"), 1u);
  EXPECT_EQ(snapshot.counter("garnet.radio.uplink_bytes_sent"), 10u);
  EXPECT_EQ(snapshot.counter("garnet.radio.downlink_broadcasts"), 1u);
  EXPECT_EQ(snapshot.counter("garnet.radio.downlink_bytes_sent"), 20u);
  EXPECT_EQ(snapshot.counter("garnet.radio.downlink_deliveries"), 1u);
}

TEST_F(RadioFixture, CollectorSurvivesMediumTeardown) {
  obs::MetricsRegistry registry;
  {
    RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
    medium.set_metrics(registry);
    medium.add_receiver({1, {0, 0}, 100});
    medium.set_uplink_sink([](const ReceptionReport&) {});
    medium.uplink({0, 0}, util::Bytes(4));
    scheduler.run();
    EXPECT_EQ(registry.snapshot().counter("garnet.radio.uplink_frames"), 1u);
  }
  // The medium deregistered its collector on destruction: snapshotting
  // must not touch freed state, and the counter is simply gone.
  EXPECT_EQ(registry.snapshot().counter("garnet.radio.uplink_frames"), 0u);
}

TEST_F(RadioFixture, JitterVariesDeliveryTimes) {
  RadioMedium::Config config = perfect_radio();
  config.max_jitter = Duration::millis(5);
  RadioMedium medium(scheduler, config, util::Rng(5));
  medium.add_receiver({1, {0, 0}, 100});
  std::set<std::int64_t> arrival_times;
  medium.set_uplink_sink([&](const ReceptionReport& r) { arrival_times.insert(r.received_at.ns); });

  for (int i = 0; i < 20; ++i) medium.uplink({0, 0}, util::Bytes(1));
  scheduler.run();

  EXPECT_GT(arrival_times.size(), 10u);  // distinct arrival instants
}

TEST_F(RadioFixture, DownlinkVisitsEndpointsInRegistrationOrderAcrossRemovals) {
  // Equal delays (no jitter): deliveries fire in scheduling order, which
  // is the endpoint table's iteration order.
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.add_transmitter({1, {0, 0}, 200});
  std::vector<std::uint32_t> heard;
  const auto add = [&](std::uint32_t key) {
    medium.add_downlink_endpoint(
        {key, [] { return sim::Vec2{10, 0}; }, [&heard, key](util::BytesView) { heard.push_back(key); }});
  };
  for (std::uint32_t key = 1; key <= 10; ++key) add(key);
  for (const std::uint32_t key : {2u, 4u, 6u, 8u, 9u, 10u}) medium.remove_downlink_endpoint(key);
  add(4);   // re-registration goes last
  add(11);
  medium.remove_downlink_endpoint(99);  // unknown key: no-op

  EXPECT_EQ(medium.downlink(1, util::Bytes(1)), 6u);
  scheduler.run();
  EXPECT_EQ(heard, (std::vector<std::uint32_t>{1, 3, 5, 7, 4, 11}));
}

TEST_F(RadioFixture, DuplicateKeyResolvesToFirstRegistration) {
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.add_transmitter({1, {0, 0}, 200});
  int first = 0;
  int second = 0;
  medium.add_downlink_endpoint({5, [] { return sim::Vec2{0, 0}; }, [&](util::BytesView) { ++first; }});
  medium.add_downlink_endpoint({5, [] { return sim::Vec2{0, 0}; }, [&](util::BytesView) { ++second; }});
  // Both registrations hear the broadcast; each copy is delivered by key,
  // and the key resolves to the first registration.
  EXPECT_EQ(medium.downlink(1, util::Bytes(1)), 2u);
  scheduler.run();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 0);
  medium.remove_downlink_endpoint(5);  // removes both
  EXPECT_EQ(medium.downlink(1, util::Bytes(1)), 0u);
}

TEST_F(RadioFixture, EndpointMayDeregisterWhileBeingDelivered) {
  RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
  medium.add_transmitter({1, {0, 0}, 200});
  std::vector<std::uint32_t> heard;
  for (std::uint32_t key = 1; key <= 8; ++key) {
    medium.add_downlink_endpoint({key, [] { return sim::Vec2{0, 0}; },
                                  [&, key](util::BytesView) {
                                    heard.push_back(key);
                                    // Leaving mid-delivery tombstones most of the table.
                                    for (std::uint32_t k = 1; k <= 8; ++k) {
                                      if (k != 8) medium.remove_downlink_endpoint(k);
                                    }
                                  }});
  }
  medium.downlink(1, util::Bytes(1));
  scheduler.run();
  EXPECT_EQ(heard, (std::vector<std::uint32_t>{1, 8}));
  EXPECT_EQ(medium.downlink(1, util::Bytes(1)), 1u);  // only key 8 is left
}

// --- receiver grid equivalence ----------------------------------------------

/// One surviving uplink copy: (receiver, rssi, delay ns).
using Copy = std::tuple<ReceiverId, double, std::int64_t>;

/// The receiver scan the grid replaces: every receiver in insertion order,
/// the same loss/RSSI/jitter draws in the same order. Returns the copies
/// in the order the scheduler delivers them (by delay, ties in emission
/// order).
std::vector<Copy> reference_uplink(const std::vector<Receiver>& receivers,
                                   const RadioMedium::Config& config, util::Rng& rng,
                                   sim::Vec2 from) {
  std::vector<Copy> copies;
  for (const Receiver& rx : receivers) {
    const double dist = sim::distance(from, rx.position);
    if (dist > rx.range_m) continue;
    const double frac = rx.range_m > 0 ? std::min(dist / rx.range_m, 1.0) : 1.0;
    if (rng.chance(config.base_loss + config.edge_loss * frac * frac)) continue;
    const double rssi = RadioMedium::kTxPowerDbm -
                        10.0 * RadioMedium::kPathLossExponent * std::log10(std::max(dist, 1.0)) +
                        rng.normal(0.0, RadioMedium::kRssiNoiseStddev);
    const auto jitter_ns = static_cast<std::int64_t>(
        rng.uniform() * static_cast<double>(config.max_jitter.ns));
    copies.emplace_back(rx.id, rssi, (RadioMedium::kHopLatency + Duration::nanos(jitter_ns)).ns);
  }
  std::stable_sort(copies.begin(), copies.end(),
                   [](const Copy& a, const Copy& b) { return std::get<2>(a) < std::get<2>(b); });
  return copies;
}

class RadioGridEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadioGridEquivalence, GridMatchesFullScan) {
  util::Rng layout(GetParam());
  RadioMedium::Config config;
  config.base_loss = 0.1;
  config.edge_loss = 0.3;
  sim::Scheduler scheduler;
  RadioMedium medium(scheduler, config, util::Rng(GetParam() * 7919));
  util::Rng reference_rng(GetParam() * 7919);
  std::vector<Receiver> receivers;
  std::vector<Copy> heard;
  util::SimTime sent;
  medium.set_uplink_sink([&](const ReceptionReport& r) {
    heard.emplace_back(r.receiver, r.rssi_dbm, (r.received_at - sent).ns);
  });

  // Sparse to dense: up to ~40 cells of the widest range per side.
  const double side = layout.uniform(500.0, 20000.0);
  const auto add_receivers = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      // Mixed ranges: mostly modest, a few wide, some tiny (and a zero).
      const auto kind = layout.below(10);
      const double range = kind == 0   ? 0.0
                           : kind < 3  ? layout.uniform(1.0, 20.0)
                           : kind < 9  ? layout.uniform(50.0, 250.0)
                                       : layout.uniform(400.0, 500.0);
      const Receiver rx{static_cast<ReceiverId>(receivers.size() + 1),
                        {layout.uniform(0.0, side), layout.uniform(0.0, side)}, range};
      receivers.push_back(rx);
      medium.add_receiver(rx);
    }
  };
  const auto check_uplink = [&](sim::Vec2 from) {
    heard.clear();
    sent = scheduler.now();
    medium.uplink(from, util::Bytes(3));
    scheduler.run();
    const std::vector<Copy> expected = reference_uplink(receivers, config, reference_rng, from);
    ASSERT_EQ(heard, expected) << "sender at (" << from.x << ", " << from.y << ")";
  };
  const auto random_sender = [&] {
    if (layout.chance(0.5)) {
      // Anywhere, including well outside the receivers' bounding box.
      return sim::Vec2{layout.uniform(-side, 2 * side), layout.uniform(-side, 2 * side)};
    }
    // Near a receiver, straddling its range.
    const Receiver& rx = receivers[layout.below(receivers.size())];
    const double reach = 1.2 * rx.range_m + 1.0;
    return rx.position + sim::Vec2{layout.uniform(-reach, reach), layout.uniform(-reach, reach)};
  };

  add_receivers(1 + layout.below(60));
  for (int i = 0; i < 300; ++i) check_uplink(random_sender());
  add_receivers(1 + layout.below(60));  // after the first uplink: grid rebuilds
  for (int i = 0; i < 300; ++i) check_uplink(random_sender());
  // Senders exactly at range along both axes, and at the receiver itself.
  for (const Receiver& rx : receivers) {
    const double r = rx.range_m;
    for (const sim::Vec2 offset : {sim::Vec2{r, 0}, sim::Vec2{-r, 0}, sim::Vec2{0, r},
                                   sim::Vec2{0, -r}, sim::Vec2{0, 0}}) {
      check_uplink(rx.position + offset);
    }
  }
  EXPECT_TRUE(medium.rng() == reference_rng) << "the grid changed the RNG draw sequence";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadioGridEquivalence, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST_F(RadioFixture, GridHandlesDegenerateLayouts) {
  // All receivers on one point, and a lone receiver: one-cell grids.
  for (const std::size_t count : {std::size_t{1}, std::size_t{5}}) {
    RadioMedium medium(scheduler, perfect_radio(), util::Rng(1));
    for (std::size_t i = 0; i < count; ++i) {
      medium.add_receiver({static_cast<ReceiverId>(i + 1), {42, 42}, 10});
    }
    int heard = 0;
    medium.set_uplink_sink([&](const ReceptionReport&) { ++heard; });
    medium.uplink({52, 42}, util::Bytes(1));      // exactly at range
    medium.uplink({52.001, 42}, util::Bytes(1));  // just beyond
    medium.uplink({-1e9, 1e9}, util::Bytes(1));   // far off the grid
    scheduler.run();
    EXPECT_EQ(heard, static_cast<int>(count));
  }
}

}  // namespace
}  // namespace garnet::wireless
