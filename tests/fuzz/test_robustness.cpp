// Adversarial-input robustness: every decode path and every service
// endpoint must survive arbitrary bytes without crashing, corrupting
// state, or accepting garbage. Seeded pseudo-fuzzing keeps runs
// deterministic; each seed throws thousands of random and
// mutated-valid inputs at the parsers and the bus endpoints.
#include <gtest/gtest.h>

#include "core/constraints.hpp"
#include "garnet/runtime.hpp"

namespace garnet {
namespace {

using util::Duration;

util::Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  util::Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, MessageDecodeNeverAcceptsRandomBytes) {
  util::Rng rng(GetParam());
  int accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    const util::Bytes junk = random_bytes(rng, 128);
    const auto decoded = core::decode_view(junk);
    if (decoded.ok()) ++accepted;
  }
  // A 32-bit CRC makes random acceptance a ~2^-32 event.
  EXPECT_EQ(accepted, 0);
}

TEST_P(FuzzSeeds, MessageDecodeSurvivesMutatedValidFrames) {
  util::Rng rng(GetParam());
  core::DataMessage msg;
  msg.stream_id = {1234, 5};
  msg.sequence = 77;
  msg.payload = random_bytes(rng, 64);
  const util::Bytes valid = core::encode(msg);

  for (int i = 0; i < 5000; ++i) {
    util::Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::byte>(1 + rng.below(255));
    }
    // Must not crash; must not accept (checksum covers every byte) —
    // unless the mutation round-tripped to the original.
    const auto decoded = core::decode_view(mutated);
    if (mutated != valid) {
      EXPECT_FALSE(decoded.ok());
    }
  }
}

TEST_P(FuzzSeeds, UpdateDecodeNeverAcceptsRandomBytes) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    const auto decoded = core::decode_update(random_bytes(rng, 64));
    EXPECT_FALSE(decoded.ok());
  }
}

TEST_P(FuzzSeeds, ConstraintParserSurvivesGarbageText) {
  util::Rng rng(GetParam());
  const std::string_view alphabet = "abcdefgmnixsz_0123456789 <>=!{},;#\n\t~";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const std::size_t len = rng.below(64);
    for (std::size_t c = 0; c < len; ++c) {
      text += alphabet[rng.below(alphabet.size())];
    }
    const auto parsed = core::ConstraintSet::parse(text);  // must not crash
    if (parsed.ok()) {
      // Whatever parsed must re-render and re-parse stably.
      const auto again = core::ConstraintSet::parse(parsed.value().to_string());
      EXPECT_TRUE(again.ok());
    } else {
      EXPECT_LE(parsed.error().offset, text.size());
    }
  }
}

TEST_P(FuzzSeeds, ServiceEndpointsSurviveHostileEnvelopes) {
  Runtime runtime;
  runtime.deploy_receivers(4, 300);
  runtime.deploy_transmitters(4, 300);
  wireless::SensorField::PopulationSpec spec;
  spec.count = 2;
  runtime.deploy_population(spec);
  runtime.start_sensors();

  core::Consumer consumer(runtime.bus(), "consumer.app");
  runtime.provision(consumer, "app");
  consumer.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));

  util::Rng rng(GetParam());
  const char* targets[] = {
      core::DispatchingService::kEndpointName, core::Orphanage::kEndpointName,
      core::LocationService::kEndpointName,    core::ResourceManager::kEndpointName,
      core::ActuationService::kEndpointName,   core::SuperCoordinator::kEndpointName,
  };
  const net::Address attacker = runtime.bus().add_endpoint("attacker", [](net::Envelope) {});

  for (int i = 0; i < 1500; ++i) {
    const auto target = runtime.bus().lookup(targets[rng.below(std::size(targets))]);
    ASSERT_TRUE(target.has_value());
    // Random type tag (including RPC framing types) + random payload.
    const auto type = static_cast<net::MessageType>(rng.below(120));
    runtime.bus().post(attacker, *target, type, random_bytes(rng, 96));
    if (i % 100 == 0) runtime.run_for(Duration::millis(50));
  }
  runtime.run_for(Duration::seconds(5));

  // The data plane kept working underneath the abuse.
  EXPECT_GT(consumer.received(), 0u);
  // And nothing hostile was admitted into governance state.
  EXPECT_EQ(runtime.coordinator().view().size(), 0u);
  EXPECT_EQ(runtime.location().stats().hints, 0u);
}

TEST_P(FuzzSeeds, FilterSurvivesHostileFrames) {
  sim::Scheduler scheduler;
  core::FilteringService filter(scheduler, {});
  std::uint64_t delivered = 0;
  filter.set_message_sink([&](const core::DataMessage&, util::SimTime) { ++delivered; });

  util::Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    filter.ingest(wireless::ReceptionReport{1, -40.0, scheduler.now(), random_bytes(rng, 64)});
  }
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(filter.stats().malformed, 3000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(0x1111u, 0x2222u, 0x3333u));

}  // namespace
}  // namespace garnet
