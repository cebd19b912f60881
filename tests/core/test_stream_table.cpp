// StreamTable: the flat stream-state container every hot-path service
// keys its state on. Covers the map contract (upsert/find/mutate/erase,
// reference stability across growth, tombstone reuse), the determinism
// contract (for_each_sorted ascending and complete), and the
// incremental-checkpoint surface (dirty/removal journals, clear_dirty
// rebasing) — plus the strong-key types that keep a SensorId from being
// passed where a StreamKey belongs.
#include "core/stream_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace garnet::core {
namespace {

TEST(StreamKey, PackedFormMatchesFigure2Layout) {
  const StreamKey key(/*sensor=*/0x00ABCDEF, /*tag=*/0x42);
  EXPECT_EQ(key.pack(), 0xABCDEF42u);
  EXPECT_EQ(key.sensor(), 0x00ABCDEFu);
  EXPECT_EQ(key.tag(), 0x42u);
  EXPECT_EQ(key.id().packed(), 0xABCDEF42u);
  EXPECT_EQ(StreamKey::from_packed(0xABCDEF42u), key);
  EXPECT_EQ(StreamKey(key.id()), key);
}

TEST(StreamKey, OrderingFollowsPackedValue) {
  EXPECT_LT(StreamKey(1, 0), StreamKey(1, 1));
  EXPECT_LT(StreamKey(1, 255), StreamKey(2, 0));
  EXPECT_EQ(std::hash<StreamKey>{}(StreamKey(7, 3)),
            std::hash<std::uint32_t>{}(StreamKey(7, 3).pack()));
}

TEST(SensorAndConsumerKeys, RoundTripTheirIdentity) {
  EXPECT_EQ(SensorKey(0x123456u).sensor(), 0x123456u);
  EXPECT_EQ(SensorKey::from_packed(9).pack(), 9u);
  EXPECT_EQ(ConsumerKey(77u).pack(), 77u);
  EXPECT_EQ(ConsumerKey::from_packed(77u), ConsumerKey(77u));
  EXPECT_LT(SensorKey(1), SensorKey(2));
}

TEST(StreamTable, UpsertFindEraseContract) {
  StreamTable<std::uint64_t> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(StreamKey(1, 0)), nullptr);
  EXPECT_FALSE(table.erase(StreamKey(1, 0)));

  table.upsert(StreamKey(1, 0)) = 10;
  table.upsert(StreamKey(2, 0)) = 20;
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.find(StreamKey(1, 0)), nullptr);
  EXPECT_EQ(*table.find(StreamKey(1, 0)), 10u);
  EXPECT_TRUE(table.contains(StreamKey(2, 0)));

  table.upsert(StreamKey(1, 0)) = 11;  // upsert of existing key overwrites
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(*table.find(StreamKey(1, 0)), 11u);

  EXPECT_TRUE(table.erase(StreamKey(1, 0)));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(StreamKey(1, 0)), nullptr);
  EXPECT_FALSE(table.contains(StreamKey(1, 0)));
  EXPECT_TRUE(table.contains(StreamKey(2, 0)));  // probe chain survives the tombstone
}

TEST(StreamTable, TryEmplaceReportsInsertionAndMutateMissesCleanly) {
  StreamTable<std::uint64_t> table;
  auto [first, inserted] = table.try_emplace(StreamKey(3, 1));
  EXPECT_TRUE(inserted);
  *first = 7;
  auto [again, inserted_again] = table.try_emplace(StreamKey(3, 1));
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 7u);

  EXPECT_EQ(table.mutate(StreamKey(9, 9)), nullptr);
  std::uint64_t* live = table.mutate(StreamKey(3, 1));
  ASSERT_NE(live, nullptr);
  *live = 8;
  EXPECT_EQ(*table.find(StreamKey(3, 1)), 8u);
}

TEST(StreamTable, ReferencesStayStableAcrossGrowth) {
  StreamTable<std::uint64_t> table;
  std::uint64_t& early = table.upsert(StreamKey(0, 1));
  early = 0xBEEF;
  const std::uint64_t* early_ptr = &early;
  // Force several rehashes and fresh arena chunks.
  for (std::uint32_t sensor = 1; sensor <= 5000; ++sensor) {
    table.upsert(StreamKey(sensor, 0)) = sensor;
  }
  EXPECT_EQ(&table.upsert(StreamKey(0, 1)), early_ptr);
  EXPECT_EQ(early, 0xBEEFu);
  EXPECT_EQ(*table.find(StreamKey(4999, 0)), 4999u);
}

TEST(StreamTable, SurvivesRehashWithEveryEntryIntact) {
  StreamTable<std::uint64_t> table;
  for (std::uint32_t sensor = 0; sensor < 2000; ++sensor) {
    table.upsert(StreamKey(sensor, static_cast<std::uint8_t>(sensor & 3))) = sensor * 3;
  }
  EXPECT_EQ(table.size(), 2000u);
  for (std::uint32_t sensor = 0; sensor < 2000; ++sensor) {
    const std::uint64_t* value =
        table.find(StreamKey(sensor, static_cast<std::uint8_t>(sensor & 3)));
    ASSERT_NE(value, nullptr) << "lost sensor " << sensor;
    EXPECT_EQ(*value, sensor * 3);
  }
}

TEST(StreamTable, SortedIterationIsAscendingAndComplete) {
  StreamTable<std::uint64_t> table;
  // Insert in an order the arena will not match.
  for (const std::uint32_t sensor : {9u, 2u, 7u, 1u, 8u, 3u}) {
    table.upsert(StreamKey(sensor, 0)) = sensor;
  }
  table.erase(StreamKey(7, 0));

  std::vector<std::uint32_t> seen;
  table.for_each_sorted(
      [&](StreamKey key, const std::uint64_t& value) {
        EXPECT_EQ(value, key.sensor());
        seen.push_back(key.pack());
      });
  const std::vector<std::uint32_t> expected = {1u << 8, 2u << 8, 3u << 8, 8u << 8, 9u << 8};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(table.sorted_keys(), expected);
}

TEST(StreamTable, MutableSortedIterationEditsInPlace) {
  StreamTable<std::uint64_t> table;
  for (const std::uint32_t sensor : {4u, 1u, 3u}) table.upsert(StreamKey(sensor, 0)) = 0;
  std::uint64_t rank = 0;
  table.for_each_sorted([&](StreamKey, std::uint64_t& value) { value = ++rank; });
  EXPECT_EQ(*table.find(StreamKey(1, 0)), 1u);
  EXPECT_EQ(*table.find(StreamKey(3, 0)), 2u);
  EXPECT_EQ(*table.find(StreamKey(4, 0)), 3u);
}

TEST(StreamTable, ArenaIterationVisitsEveryLiveEntryOnce) {
  StreamTable<std::uint64_t> table;
  for (std::uint32_t sensor = 0; sensor < 100; ++sensor) table.upsert(StreamKey(sensor, 0));
  for (std::uint32_t sensor = 0; sensor < 100; sensor += 2) table.erase(StreamKey(sensor, 0));
  std::size_t visits = 0;
  table.for_each([&](StreamKey key, std::uint64_t&) {
    EXPECT_EQ(key.sensor() % 2, 1u);
    ++visits;
  });
  EXPECT_EQ(visits, 50u);
}

TEST(StreamTable, DirtyJournalTracksEveryMutationPath) {
  StreamTable<std::uint64_t> table;
  table.upsert(StreamKey(5, 0)) = 1;       // insert dirties
  table.try_emplace(StreamKey(3, 0));      // emplace dirties
  EXPECT_EQ(table.dirty_count(), 2u);
  EXPECT_EQ(table.dirty_keys(), (std::vector<std::uint32_t>{3u << 8, 5u << 8}));

  table.clear_dirty();
  EXPECT_EQ(table.dirty_count(), 0u);
  EXPECT_TRUE(table.dirty_keys().empty());

  (void)table.find(StreamKey(5, 0));  // reads stay clean
  EXPECT_EQ(table.dirty_count(), 0u);
  (void)table.mutate(StreamKey(5, 0));  // mutating lookup dirties
  EXPECT_EQ(table.dirty_keys(), (std::vector<std::uint32_t>{5u << 8}));

  table.mark_all_dirty();
  EXPECT_EQ(table.dirty_count(), 2u);
}

TEST(StreamTable, RemovalJournalRecordsSortsAndDedupes) {
  StreamTable<std::uint64_t> table;
  for (const std::uint32_t sensor : {1u, 2u, 3u}) table.upsert(StreamKey(sensor, 0));
  table.clear_dirty();

  table.erase(StreamKey(3, 0));
  table.erase(StreamKey(1, 0));
  table.upsert(StreamKey(3, 0)) = 9;  // erased then re-inserted
  table.erase(StreamKey(3, 0));       // ...and erased again

  EXPECT_EQ(table.removed_keys(), (std::vector<std::uint32_t>{1u << 8, 3u << 8}));
  table.clear_dirty();
  EXPECT_TRUE(table.removed_keys().empty());
}

TEST(StreamTable, ErasedSlotsAreReusedNotLeaked) {
  StreamTable<std::uint64_t> table;
  for (std::uint32_t sensor = 0; sensor < 1000; ++sensor) table.upsert(StreamKey(sensor, 0));
  const std::size_t grown = table.memory_bytes();
  // Churn: erase and re-insert the same population many times over. The
  // free list and tombstone reuse must keep both arena and index flat.
  for (int round = 0; round < 5; ++round) {
    for (std::uint32_t sensor = 0; sensor < 1000; ++sensor) table.erase(StreamKey(sensor, 0));
    table.clear_dirty();
    for (std::uint32_t sensor = 0; sensor < 1000; ++sensor) table.upsert(StreamKey(sensor, 0));
  }
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_LE(table.memory_bytes(), grown * 2);
}

TEST(StreamTable, ClearDropsEntriesAndJournals) {
  StreamTable<std::uint64_t> table;
  table.upsert(StreamKey(1, 0));
  table.erase(StreamKey(1, 0));
  table.upsert(StreamKey(2, 0));
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.dirty_keys().empty());
  EXPECT_TRUE(table.removed_keys().empty());
  EXPECT_EQ(table.find(StreamKey(2, 0)), nullptr);
  table.upsert(StreamKey(3, 0)) = 3;  // usable again after clear
  EXPECT_EQ(*table.find(StreamKey(3, 0)), 3u);
}

TEST(StreamTable, ReservePresizesWithoutChangingContents) {
  StreamTable<std::uint64_t> table;
  table.upsert(StreamKey(1, 0)) = 1;
  const std::size_t before = table.memory_bytes();
  table.reserve(100000);
  const std::size_t reserved = table.memory_bytes();
  EXPECT_GT(reserved, before);  // the index grew up front
  for (std::uint32_t sensor = 2; sensor <= 50000; ++sensor) {
    table.upsert(StreamKey(sensor, 0)) = sensor;
  }
  // Well under the reserved load factor: only arena chunks were added,
  // never a doubled slot array.
  EXPECT_LT(table.memory_bytes() - reserved, reserved);
  EXPECT_EQ(*table.find(StreamKey(1, 0)), 1u);
  EXPECT_EQ(table.size(), 50000u);
}

TEST(StreamTable, WorksWithAlternateKeyTypes) {
  StreamTable<std::uint64_t, SensorKey> tracks;
  tracks.upsert(SensorKey(7)) = 70;
  tracks.upsert(SensorKey(3)) = 30;
  EXPECT_EQ(tracks.sorted_keys(), (std::vector<std::uint32_t>{3, 7}));

  StreamTable<std::uint64_t, ConsumerKey> flows;
  flows.upsert(ConsumerKey(42)) = 1;
  EXPECT_TRUE(flows.contains(ConsumerKey(42)));
  EXPECT_FALSE(flows.contains(ConsumerKey(43)));
}

// Probe-length regression: a hash that clusters the packed ids (tag 0
// in the low byte, as on most sensors) still passes every map-contract
// test above but turns each lookup into a long linear scan. These key
// sets are the shapes the services actually hold.
template <typename Key>
ProbeStats probe_stats_after_inserting(const std::vector<Key>& keys) {
  StreamTable<std::uint64_t, Key> table;
  for (const Key key : keys) table.upsert(key) = key.pack();
  const ProbeStats stats = table.probe_stats();
  EXPECT_EQ(stats.entries, keys.size());
  return stats;
}

std::vector<StreamKey> tag0_stream_keys(std::uint32_t sensors) {
  std::vector<StreamKey> keys;
  for (std::uint32_t sensor = 0; sensor < sensors; ++sensor) keys.emplace_back(sensor, 0);
  return keys;
}

TEST(StreamTableProbes, Tag0StreamKeysSitNearTheirHomeSlot) {
  for (const std::uint32_t sensors : {4000u, 100000u}) {
    const ProbeStats stats = probe_stats_after_inserting(tag0_stream_keys(sensors));
    EXPECT_LE(stats.mean(), 1.5) << sensors << " sensors";
    EXPECT_LE(stats.max_probes, 4u) << sensors << " sensors";
  }
}

TEST(StreamTableProbes, SensorsWithSeveralTagsSitNearTheirHomeSlot) {
  std::vector<StreamKey> keys;
  for (std::uint32_t sensor = 0; sensor < 256; ++sensor) {
    for (InternalStreamId tag = 0; tag < 4; ++tag) keys.emplace_back(sensor, tag);
  }
  const ProbeStats stats = probe_stats_after_inserting(keys);
  EXPECT_LE(stats.mean(), 1.5);
  EXPECT_LE(stats.max_probes, 4u);
}

TEST(StreamTableProbes, DenseSensorKeysSitNearTheirHomeSlot) {
  std::vector<SensorKey> keys;
  for (std::uint32_t sensor = 0; sensor < 100000; ++sensor) keys.emplace_back(sensor);
  const ProbeStats stats = probe_stats_after_inserting(keys);
  EXPECT_LE(stats.mean(), 1.5);
  EXPECT_LE(stats.max_probes, 4u);
}

TEST(StreamTableProbes, StatsWalkOnlyLiveSlotsAndSum) {
  StreamTable<std::uint64_t> table;
  EXPECT_EQ(table.probe_stats().entries, 0u);
  EXPECT_EQ(table.probe_stats().mean(), 0.0);
  for (std::uint32_t sensor = 0; sensor < 100; ++sensor) table.upsert(StreamKey(sensor, 0));
  for (std::uint32_t sensor = 0; sensor < 100; sensor += 2) table.erase(StreamKey(sensor, 0));
  const ProbeStats stats = table.probe_stats();
  EXPECT_EQ(stats.entries, 50u);  // tombstones are not entries
  EXPECT_GE(stats.mean(), 1.0);

  ProbeStats sum = stats;
  sum += stats;
  EXPECT_EQ(sum.entries, 100u);
  EXPECT_EQ(sum.total_probes, 2 * stats.total_probes);
  EXPECT_EQ(sum.max_probes, stats.max_probes);
  EXPECT_DOUBLE_EQ(sum.mean(), stats.mean());
}

}  // namespace
}  // namespace garnet::core
