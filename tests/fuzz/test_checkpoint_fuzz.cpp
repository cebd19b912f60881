// Checkpoint-decode robustness: recovery state frames arrive over the
// same bus as everything else, so the decoder and every service's
// restore_state() face arbitrary bytes. Seeded pseudo-fuzzing throws
// random buffers, truncations, bit flips and version skews at them —
// nothing may crash, nothing may be accepted unless it is a byte-exact
// valid frame, and a rejected restore must leave service state
// untouched (no partial application).
#include <gtest/gtest.h>

#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/checkpoint.hpp"
#include "core/dispatch.hpp"
#include "core/filtering.hpp"
#include "core/location.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace garnet {
namespace {

namespace checkpoint = core::checkpoint;

util::Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  util::Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

util::Bytes valid_frame(util::Rng& rng) {
  checkpoint::Header header;
  header.service = "fuzzed";
  header.epoch = rng.next();
  header.taken_at = util::SimTime{} + util::Duration::millis(static_cast<std::int64_t>(rng.below(10000)));
  return checkpoint::encode(header, random_bytes(rng, 96));
}

class CheckpointFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckpointFuzz, CheckpointDecodeNeverAcceptsRandomBytes) {
  util::Rng rng(GetParam());
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    if (checkpoint::decode(random_bytes(rng, 160)).ok()) ++accepted;
  }
  // Magic + version + CRC make random acceptance a ~2^-32 event.
  EXPECT_EQ(accepted, 0);
}

TEST_P(CheckpointFuzz, CheckpointDecodeSurvivesBitFlippedFrames) {
  util::Rng rng(GetParam());
  const util::Bytes valid = valid_frame(rng);
  for (int i = 0; i < 5000; ++i) {
    util::Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::byte>(1 + rng.below(255));
    }
    // Must not crash; must not accept unless the flips round-tripped.
    const auto decoded = checkpoint::decode(mutated);
    if (mutated != valid) {
      EXPECT_FALSE(decoded.ok());
    }
  }
}

TEST_P(CheckpointFuzz, CheckpointDecodeRejectsEveryTruncationAndPadding) {
  util::Rng rng(GetParam());
  const util::Bytes valid = valid_frame(rng);
  // Every prefix is truncated; any appended junk breaks the declared
  // length; both must be rejected without reading out of bounds.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(checkpoint::decode(util::BytesView(valid.data(), len)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    util::Bytes padded = valid;
    const util::Bytes extra = random_bytes(rng, 16);
    padded.insert(padded.end(), extra.begin(), extra.end());
    if (!extra.empty()) {
      EXPECT_FALSE(checkpoint::decode(padded).ok());
    }
  }
}

TEST_P(CheckpointFuzz, CheckpointDecodeRejectsVersionSkew) {
  util::Rng rng(GetParam());
  const util::Bytes valid = valid_frame(rng);
  for (int i = 0; i < 255; ++i) {
    util::Bytes skewed = valid;
    const auto version = static_cast<std::uint8_t>(1 + rng.below(255));
    if (version == checkpoint::kVersion) continue;
    skewed[4] = std::byte{version};  // byte 4 = version, after the magic
    const auto decoded = checkpoint::decode(skewed);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error(), util::DecodeError::kBadVersion);
  }
}

util::Bytes valid_delta_frame(util::Rng& rng) {
  checkpoint::Header header;
  header.service = "fuzzed";
  header.epoch = rng.next();
  header.taken_at = util::SimTime{} + util::Duration::millis(static_cast<std::int64_t>(rng.below(10000)));
  return checkpoint::encode_delta(header, rng.next(), random_bytes(rng, 96));
}

TEST_P(CheckpointFuzz, DecodeAnyNeverAcceptsRandomBytes) {
  util::Rng rng(GetParam());
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    if (checkpoint::decode_any(random_bytes(rng, 160)).ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

TEST_P(CheckpointFuzz, DeltaFramesSurviveBitFlipsAndTruncation) {
  util::Rng rng(GetParam());
  const util::Bytes valid = valid_delta_frame(rng);
  for (int i = 0; i < 5000; ++i) {
    util::Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::byte>(1 + rng.below(255));
    }
    if (mutated != valid) {
      EXPECT_FALSE(checkpoint::decode_any(mutated).ok());
    }
  }
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(checkpoint::decode_any(util::BytesView(valid.data(), len)).ok());
  }
  // The full-only decoder must treat a pristine delta as foreign.
  EXPECT_FALSE(checkpoint::decode(valid).ok());
}

// --- every service's restore_state() and apply_delta() ---------------
//
// Each fixture holds one checkpointed service seeded with non-empty
// state, and touch() changes some of it (what the next delta carries);
// the properties below run against all four services.

struct FilteringFixture {
  sim::Scheduler scheduler;
  core::FilteringService service{scheduler, {}};
  FilteringFixture() {
    for (core::SequenceNo seq = 0; seq < 10; ++seq) service.note_seen({3, 0}, seq);
    service.note_seen({17, 2}, 4);
  }
  void touch() {
    service.note_seen({3, 0}, 10);
    service.note_seen({8, 0}, 2);
  }
};

struct CatalogFixture {
  core::StreamCatalog service;
  CatalogFixture() {
    service.advertise({1, 0}, "one", "temperature");
    service.note_message({2, 2}, util::SimTime{} + util::Duration::millis(3));
  }
  void touch() {
    service.note_message({1, 0}, util::SimTime{} + util::Duration::millis(5));
    service.advertise({9, 9}, "nine", "water-level");
  }
};

struct LocationFixture {
  sim::Scheduler scheduler;
  net::MessageBus bus{scheduler, {}};
  core::AuthService auth{{}};
  core::LocationService service{bus, auth};
  const util::SimTime t = util::SimTime{} + util::Duration::seconds(1);
  LocationFixture() {
    service.set_receiver_layout({{.id = 1, .position = {0.0, 0.0}},
                                 {.id = 2, .position = {50.0, 0.0}}});
    service.observe({.sensor = 4, .receiver = 1, .rssi_dbm = -60.0, .heard_at = t});
    service.observe({.sensor = 4, .receiver = 2, .rssi_dbm = -70.0, .heard_at = t});
  }
  void touch() {
    const util::SimTime later = t + util::Duration::millis(10);
    service.observe({.sensor = 4, .receiver = 2, .rssi_dbm = -65.0, .heard_at = later});
    service.observe({.sensor = 6, .receiver = 1, .rssi_dbm = -80.0, .heard_at = later});
  }
};

struct DispatchFixture {
  sim::Scheduler scheduler;
  net::MessageBus bus{scheduler, {}};
  core::AuthService auth{{}};
  core::StreamCatalog catalog;
  core::DispatchingService service{bus, auth, catalog};
  net::Address subscriber = bus.add_endpoint("fuzz.consumer", [](net::Envelope) {});
  DispatchFixture() {
    service.subscribe(subscriber, core::StreamPattern::everything());
    service.subscribe(subscriber, core::StreamPattern::exact({5, 0}), {.min_interval_ms = 20});
  }
  void touch() { service.subscribe(subscriber, core::StreamPattern::all_of(9)); }
};

const auto kRestore = [](auto& service, util::BytesView body) {
  return service.restore_state(body);
};
const auto kApplyDelta = [](auto& service, util::BytesView body) {
  return service.apply_delta(body);
};

/// Throws random bodies at `load` (restore_state or apply_delta). A
/// rejected body must leave the service byte-identical; an accepted one
/// must leave a state that still round-trips.
template <typename Fixture, typename Load>
void expect_random_bodies_never_partially_apply(std::uint64_t seed, Load load) {
  util::Rng rng(seed);
  Fixture fixture;
  auto& service = fixture.service;
  const util::Bytes before = service.capture_full();

  for (int i = 0; i < 2000; ++i) {
    if (!load(service, random_bytes(rng, 128)).ok()) {
      ASSERT_EQ(service.capture_state(), before) << "partial apply at iteration " << i;
    } else {
      const util::Bytes again = service.capture_state();
      ASSERT_TRUE(service.restore_state(again).ok());
      ASSERT_TRUE(service.restore_state(before).ok());
    }
  }
}

/// A seeded service's full body, and the delta body its touch() makes.
template <typename Fixture>
util::Bytes full_body() {
  return Fixture{}.service.capture_full();
}
template <typename Fixture>
util::Bytes delta_body() {
  Fixture primary;
  (void)primary.service.capture_full();
  primary.touch();
  return primary.service.capture_delta();
}

/// Flips bytes inside a well-formed body (what a corrupted but
/// CRC-colliding frame would hand over): parseable mutations may apply,
/// since the frame CRC upstream is the integrity guard, but nothing may
/// crash and a rejected body must not partially apply.
template <typename Fixture, typename Load>
void expect_flipped_bodies_never_partially_apply(std::uint64_t seed, Load load,
                                                 const util::Bytes& valid) {
  util::Rng rng(seed);
  Fixture fixture;
  auto& service = fixture.service;
  const util::Bytes before = service.capture_full();

  for (int i = 0; i < 3000; ++i) {
    util::Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::byte>(1 + rng.below(255));
    }
    if (!load(service, mutated).ok()) {
      ASSERT_EQ(service.capture_state(), before) << "partial apply at iteration " << i;
    } else {
      ASSERT_TRUE(service.restore_state(before).ok());
    }
  }
}

TEST_P(CheckpointFuzz, FilteringApplyDeltaNeverPartiallyApplies) {
  expect_random_bodies_never_partially_apply<FilteringFixture>(GetParam(), kApplyDelta);
}

TEST_P(CheckpointFuzz, CatalogApplyDeltaNeverPartiallyApplies) {
  expect_random_bodies_never_partially_apply<CatalogFixture>(GetParam(), kApplyDelta);
}

TEST_P(CheckpointFuzz, LocationApplyDeltaNeverPartiallyApplies) {
  expect_random_bodies_never_partially_apply<LocationFixture>(GetParam(), kApplyDelta);
}

TEST_P(CheckpointFuzz, DispatchApplyDeltaNeverPartiallyApplies) {
  expect_random_bodies_never_partially_apply<DispatchFixture>(GetParam(), kApplyDelta);
}

TEST_P(CheckpointFuzz, FilteringRestoreNeverPartiallyApplies) {
  expect_random_bodies_never_partially_apply<FilteringFixture>(GetParam(), kRestore);
}

TEST_P(CheckpointFuzz, CatalogRestoreNeverPartiallyApplies) {
  expect_random_bodies_never_partially_apply<CatalogFixture>(GetParam(), kRestore);
}

TEST_P(CheckpointFuzz, LocationRestoreNeverPartiallyApplies) {
  expect_random_bodies_never_partially_apply<LocationFixture>(GetParam(), kRestore);
}

TEST_P(CheckpointFuzz, DispatchRestoreNeverPartiallyApplies) {
  expect_random_bodies_never_partially_apply<DispatchFixture>(GetParam(), kRestore);
}

TEST_P(CheckpointFuzz, MutatedValidDeltaBodiesNeverCorruptFiltering) {
  expect_flipped_bodies_never_partially_apply<FilteringFixture>(GetParam(), kApplyDelta,
                                                                delta_body<FilteringFixture>());
}

TEST_P(CheckpointFuzz, MutatedValidDeltaBodiesNeverCorruptCatalog) {
  expect_flipped_bodies_never_partially_apply<CatalogFixture>(GetParam(), kApplyDelta,
                                                              delta_body<CatalogFixture>());
}

TEST_P(CheckpointFuzz, MutatedValidDeltaBodiesNeverCorruptLocation) {
  expect_flipped_bodies_never_partially_apply<LocationFixture>(GetParam(), kApplyDelta,
                                                               delta_body<LocationFixture>());
}

TEST_P(CheckpointFuzz, MutatedValidDeltaBodiesNeverCorruptDispatch) {
  expect_flipped_bodies_never_partially_apply<DispatchFixture>(GetParam(), kApplyDelta,
                                                               delta_body<DispatchFixture>());
}

TEST_P(CheckpointFuzz, MutatedValidStateBodiesNeverCorruptFiltering) {
  expect_flipped_bodies_never_partially_apply<FilteringFixture>(GetParam(), kRestore,
                                                                full_body<FilteringFixture>());
}

TEST_P(CheckpointFuzz, MutatedValidStateBodiesNeverCorruptCatalog) {
  expect_flipped_bodies_never_partially_apply<CatalogFixture>(GetParam(), kRestore,
                                                              full_body<CatalogFixture>());
}

TEST_P(CheckpointFuzz, MutatedValidStateBodiesNeverCorruptLocation) {
  expect_flipped_bodies_never_partially_apply<LocationFixture>(GetParam(), kRestore,
                                                               full_body<LocationFixture>());
}

TEST_P(CheckpointFuzz, MutatedValidStateBodiesNeverCorruptDispatch) {
  expect_flipped_bodies_never_partially_apply<DispatchFixture>(GetParam(), kRestore,
                                                               full_body<DispatchFixture>());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzz, ::testing::Values(0xAAAAu, 0xBBBBu, 0xCCCCu));

}  // namespace
}  // namespace garnet
