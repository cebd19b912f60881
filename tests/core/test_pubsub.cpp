#include "core/pubsub.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace garnet::core {
namespace {

TEST(StreamPattern, ExactMatchesOnlyItself) {
  const auto p = StreamPattern::exact({5, 2});
  EXPECT_TRUE(p.matches({5, 2}));
  EXPECT_FALSE(p.matches({5, 3}));
  EXPECT_FALSE(p.matches({6, 2}));
  EXPECT_TRUE(p.is_exact());
}

TEST(StreamPattern, SensorWildcardMatchesAllStreams) {
  const auto p = StreamPattern::all_of(5);
  EXPECT_TRUE(p.matches({5, 0}));
  EXPECT_TRUE(p.matches({5, 255}));
  EXPECT_FALSE(p.matches({6, 0}));
  EXPECT_FALSE(p.is_exact());
}

TEST(StreamPattern, EverythingMatchesEverything) {
  const auto p = StreamPattern::everything();
  EXPECT_TRUE(p.matches({0, 0}));
  EXPECT_TRUE(p.matches({kMaxSensorId, 255}));
}

TEST(StreamPattern, PackedRoundTrip) {
  for (const auto p : {StreamPattern::exact({123, 45}), StreamPattern::all_of(99),
                       StreamPattern::everything(), StreamPattern{std::nullopt, 7}}) {
    const auto back = StreamPattern::from_packed(p.packed());
    EXPECT_EQ(back.sensor, p.sensor);
    EXPECT_EQ(back.stream, p.stream);
  }
}

struct TableFixture : ::testing::Test {
  SubscriptionTable table;
  std::vector<net::Address> out;

  std::vector<net::Address> collect(StreamId id) {
    out.clear();
    table.collect(id, out);
    return out;
  }
};

TEST_F(TableFixture, ExactSubscriptionRouting) {
  table.add(net::Address{10}, StreamPattern::exact({1, 0}));
  table.add(net::Address{20}, StreamPattern::exact({2, 0}));
  EXPECT_EQ(collect({1, 0}), (std::vector<net::Address>{{10}}));
  EXPECT_EQ(collect({2, 0}), (std::vector<net::Address>{{20}}));
  EXPECT_TRUE(collect({3, 0}).empty());
}

TEST_F(TableFixture, WildcardRouting) {
  table.add(net::Address{10}, StreamPattern::all_of(1));
  EXPECT_EQ(collect({1, 7}).size(), 1u);
  EXPECT_TRUE(collect({2, 7}).empty());
}

TEST_F(TableFixture, ExactAndWildcardDeduplicated) {
  table.add(net::Address{10}, StreamPattern::exact({1, 0}));
  table.add(net::Address{10}, StreamPattern::all_of(1));
  EXPECT_EQ(collect({1, 0}).size(), 1u);  // one copy despite two matches
}

TEST_F(TableFixture, MultipleConsumersFanOut) {
  for (std::uint32_t a = 1; a <= 5; ++a) {
    table.add(net::Address{a}, StreamPattern::exact({1, 0}));
  }
  EXPECT_EQ(collect({1, 0}).size(), 5u);
}

TEST_F(TableFixture, RemoveBySubscriptionId) {
  const SubscriptionId id = table.add(net::Address{10}, StreamPattern::exact({1, 0}));
  EXPECT_TRUE(table.remove(id));
  EXPECT_FALSE(table.remove(id));  // idempotent failure
  EXPECT_TRUE(collect({1, 0}).empty());
  EXPECT_EQ(table.size(), 0u);
}

TEST_F(TableFixture, RemoveWildcardById) {
  const SubscriptionId id = table.add(net::Address{10}, StreamPattern::everything());
  EXPECT_TRUE(table.remove(id));
  EXPECT_TRUE(collect({1, 0}).empty());
}

TEST_F(TableFixture, RemoveConsumerDropsAllItsSubscriptions) {
  table.add(net::Address{10}, StreamPattern::exact({1, 0}));
  table.add(net::Address{10}, StreamPattern::all_of(2));
  table.add(net::Address{20}, StreamPattern::exact({1, 0}));
  EXPECT_EQ(table.remove_consumer(net::Address{10}), 2u);
  EXPECT_EQ(collect({1, 0}), (std::vector<net::Address>{{20}}));
  EXPECT_TRUE(collect({2, 5}).empty());
}

TEST_F(TableFixture, AnyoneWants) {
  EXPECT_FALSE(table.anyone_wants({1, 0}));
  table.add(net::Address{10}, StreamPattern::all_of(1));
  EXPECT_TRUE(table.anyone_wants({1, 9}));
  EXPECT_FALSE(table.anyone_wants({2, 0}));
}

TEST_F(TableFixture, SizeTracksAddsAndRemoves) {
  const auto a = table.add(net::Address{1}, StreamPattern::exact({1, 0}));
  table.add(net::Address{2}, StreamPattern::everything());
  EXPECT_EQ(table.size(), 2u);
  table.remove(a);
  EXPECT_EQ(table.size(), 1u);
}

TEST_F(TableFixture, CollectAppendsWithoutClobbering) {
  table.add(net::Address{10}, StreamPattern::exact({1, 0}));
  out.push_back(net::Address{99});  // pre-existing content preserved
  table.collect({1, 0}, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], net::Address{99});
}

// anyone_wants() reads a bucket's presence as "someone subscribes", so
// emptied buckets must go, by either removal path.
TEST_F(TableFixture, RemoveConsumerErasesEmptiedBuckets) {
  table.add(net::Address{10}, StreamPattern::exact({1, 0}));
  table.add(net::Address{10}, StreamPattern::all_of(2));
  table.add(net::Address{10}, StreamPattern::all_of(3));
  table.add(net::Address{20}, StreamPattern::all_of(3));
  EXPECT_EQ(table.remove_consumer(net::Address{10}), 3u);
  EXPECT_FALSE(table.anyone_wants({1, 0}));
  EXPECT_FALSE(table.anyone_wants({2, 4}));
  EXPECT_TRUE(table.anyone_wants({3, 4}));
  EXPECT_FALSE(table.subscribes(net::Address{10}, {3, 4}));
  EXPECT_EQ(collect({3, 4}), (std::vector<net::Address>{{20}}));
}

// Brute-force model of SubscriptionTable: one flat list scanned in full
// for every query, with the same QoS rules and capture() layout.
class LinearTable {
 public:
  SubscriptionId add(net::Address consumer, StreamPattern pattern, SubscribeOptions qos) {
    const SubscriptionId id = next_id_++;
    entries_.push_back({id, consumer, pattern, qos, util::SimTime{-1}});
    return id;
  }
  bool remove(SubscriptionId id) {
    return std::erase_if(entries_, [id](const Entry& e) { return e.id == id; }) != 0;
  }
  std::size_t remove_consumer(net::Address consumer) {
    return std::erase_if(entries_, [consumer](const Entry& e) { return e.consumer == consumer; });
  }
  void restore_entry(SubscriptionId id, net::Address consumer, StreamPattern pattern,
                     SubscribeOptions qos) {
    if (std::any_of(entries_.begin(), entries_.end(), [id](const Entry& e) { return e.id == id; })) {
      return;
    }
    entries_.push_back({id, consumer, pattern, qos, util::SimTime{-1}});
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) { return a.id < b.id; });
    next_id_ = std::max(next_id_, id + 1);
  }
  /// What restore() of a capture does: same entries, rate state forgotten.
  void forget_rate_state() {
    for (Entry& e : entries_) e.last_delivery = util::SimTime{-1};
  }
  std::vector<net::Address> collect(StreamId id, const SubscriptionTable::DeliveryContext& ctx) {
    std::vector<net::Address> out;
    for (Entry& e : entries_) {
      if (!e.pattern.matches(id)) continue;
      if (e.qos.max_age_ms != 0 &&
          ctx.now - ctx.first_heard > util::Duration::millis(e.qos.max_age_ms)) {
        ++stats_.suppressed_stale;
        continue;
      }
      if (e.qos.min_interval_ms != 0 && e.last_delivery.ns >= 0 &&
          ctx.now - e.last_delivery < util::Duration::millis(e.qos.min_interval_ms)) {
        ++stats_.suppressed_rate;
        continue;
      }
      e.last_delivery = ctx.now;
      out.push_back(e.consumer);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }
  bool anyone_wants(StreamId id) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [id](const Entry& e) { return e.pattern.matches(id); });
  }
  bool subscribes(net::Address consumer, StreamId id) const {
    return std::any_of(entries_.begin(), entries_.end(), [&](const Entry& e) {
      return e.consumer == consumer && e.pattern.matches(id);
    });
  }
  util::Bytes capture() const {
    util::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(entries_.size()));
    for (const Entry& e : entries_) {
      w.u64(e.id);
      w.u32(e.consumer.value);
      w.u64(e.pattern.packed());
      w.u32(e.qos.min_interval_ms);
      w.u32(e.qos.max_age_ms);
    }
    w.u64(next_id_);
    return std::move(w).take();
  }
  std::size_t size() const { return entries_.size(); }
  const QosStats& qos_stats() const { return stats_; }
  std::vector<SubscriptionId> ids() const {
    std::vector<SubscriptionId> out;
    for (const Entry& e : entries_) out.push_back(e.id);
    return out;
  }

 private:
  struct Entry {
    SubscriptionId id;
    net::Address consumer;
    StreamPattern pattern;
    SubscribeOptions qos;
    util::SimTime last_delivery;
  };
  std::vector<Entry> entries_;  // ascending id
  SubscriptionId next_id_ = 1;
  QosStats stats_;
};

util::Bytes capture_of(const SubscriptionTable& table) {
  util::ByteWriter w;
  table.capture(w);
  return std::move(w).take();
}

// A seeded mix of exact, all_of(sensor), stream-only and everything()
// patterns, some with QoS, through every mutation path; after each
// operation every query must equal the linear-scan model.
TEST(SubscriptionTableModel, MatchesLinearScanThroughEveryMutation) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    SubscriptionTable table;
    LinearTable model;
    constexpr std::uint32_t kSensors = 5;
    constexpr std::uint32_t kStreams = 3;
    constexpr std::uint32_t kConsumers = 6;
    util::SimTime now{0};

    const auto random_pattern = [&]() -> StreamPattern {
      const auto sensor = static_cast<SensorId>(rng.below(kSensors));
      const auto stream = static_cast<InternalStreamId>(rng.below(kStreams));
      switch (rng.below(8)) {
        case 0: case 1: case 2: return StreamPattern::exact({sensor, stream});
        case 3: case 4: case 5: return StreamPattern::all_of(sensor);
        case 6: return StreamPattern{std::nullopt, stream};
        default: return StreamPattern::everything();
      }
    };
    const auto random_qos = [&]() {
      SubscribeOptions qos;
      if (rng.chance(0.3)) qos.min_interval_ms = static_cast<std::uint32_t>(1 + rng.below(8));
      if (rng.chance(0.3)) qos.max_age_ms = static_cast<std::uint32_t>(1 + rng.below(8));
      return qos;
    };
    const auto random_consumer = [&] {
      return net::Address{static_cast<std::uint32_t>(1 + rng.below(kConsumers))};
    };

    for (int op = 0; op < 1500; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const auto roll = rng.below(100);
      if (roll < 45) {
        const net::Address consumer = random_consumer();
        const StreamPattern pattern = random_pattern();
        const SubscribeOptions qos = random_qos();
        ASSERT_EQ(table.add(consumer, pattern, qos), model.add(consumer, pattern, qos));
      } else if (roll < 70) {
        const std::vector<SubscriptionId> ids = model.ids();
        const SubscriptionId id =
            ids.empty() || rng.chance(0.1) ? 1 + rng.below(2000) : ids[rng.below(ids.size())];
        ASSERT_EQ(table.remove(id), model.remove(id));
      } else if (roll < 78) {
        const net::Address consumer = random_consumer();
        ASSERT_EQ(table.remove_consumer(consumer), model.remove_consumer(consumer));
      } else if (roll < 85) {
        // Op-log replay: an id already present is ignored, a new one
        // bumps the allocator past it.
        const std::vector<SubscriptionId> ids = model.ids();
        const SubscriptionId id = !ids.empty() && rng.chance(0.5)
                                      ? ids[rng.below(ids.size())]
                                      : 1 + rng.below(3000);
        const net::Address consumer = random_consumer();
        const StreamPattern pattern = random_pattern();
        const SubscribeOptions qos = random_qos();
        table.restore_entry(id, consumer, pattern, qos);
        model.restore_entry(id, consumer, pattern, qos);
      } else if (roll < 90) {
        // Checkpoint round trip into the same table: entries and the id
        // allocator come back, rate-cap state does not, and the QoS
        // counters (not captured) carry on.
        const util::Bytes bytes = capture_of(table);
        util::ByteReader r(bytes);
        ASSERT_TRUE(table.restore(r).ok());
        model.forget_rate_state();
      } else {
        now = now + util::Duration::millis(static_cast<std::int64_t>(rng.below(4)));
      }

      ASSERT_EQ(table.size(), model.size());
      ASSERT_EQ(capture_of(table), model.capture());
      const SubscriptionTable::DeliveryContext context{
          now, now - util::Duration::millis(static_cast<std::int64_t>(rng.below(10)))};
      for (SensorId sensor = 0; sensor <= kSensors; ++sensor) {
        for (InternalStreamId stream = 0; stream <= kStreams; ++stream) {
          const StreamId id{sensor, stream};
          std::vector<net::Address> got;
          table.collect(id, context, got);
          ASSERT_EQ(got, model.collect(id, context));
          ASSERT_EQ(table.anyone_wants(id), model.anyone_wants(id));
          for (std::uint32_t c = 1; c <= kConsumers; ++c) {
            ASSERT_EQ(table.subscribes(net::Address{c}, id),
                      model.subscribes(net::Address{c}, id));
          }
        }
      }
      ASSERT_EQ(table.qos_stats().suppressed_rate, model.qos_stats().suppressed_rate);
      ASSERT_EQ(table.qos_stats().suppressed_stale, model.qos_stats().suppressed_stale);
    }
  }
}

}  // namespace
}  // namespace garnet::core
