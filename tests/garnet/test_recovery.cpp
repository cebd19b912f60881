// RecoveryHarness unit tests against a synthetic stateful service: a
// key->value table whose capture/restore use the core/checkpoint
// framing and whose mutations are op-logged. Covers the full contract —
// checkpoint replication over the bus, op-log tailing, crash-stop
// semantics (wiped state, silenced endpoints, dropped ops), watchdog
// promotion from checkpoint + tail, scheduled-restart rejoin, the input
// door (inputs held while down run at recovery, in arrival order), and
// the garnet.recovery.* / garnet.checkpoint.* telemetry.
#include "garnet/recovery.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/message.hpp"
#include "core/wire_types.hpp"
#include "garnet/runtime.hpp"
#include "obs/metrics.hpp"

namespace garnet {
namespace {

using util::Duration;
using util::SimTime;

constexpr std::uint16_t kOpSet = 1;  ///< payload: [u32 key][u64 value]

/// The service under management: a sorted table, so capture is
/// deterministic by construction. Tracks dirty/removed keys the same
/// way core::StreamTable does, so the delta hooks can be exercised.
struct FakeService {
  std::map<std::uint32_t, std::uint64_t> table;
  std::map<std::uint32_t, bool> dirty;
  std::vector<std::uint32_t> removed;
  int restarts = 0;
  int delta_captures = 0;

  void set(std::uint32_t key, std::uint64_t value) {
    table[key] = value;
    dirty[key] = true;
  }

  void erase(std::uint32_t key) {
    if (table.erase(key) == 0) return;
    dirty.erase(key);
    removed.push_back(key);
  }

  util::Bytes capture() const {
    util::ByteWriter w(4 + table.size() * 12);
    w.u32(static_cast<std::uint32_t>(table.size()));
    for (const auto& [key, value] : table) {
      w.u32(key);
      w.u64(value);
    }
    return std::move(w).take();
  }

  util::Bytes capture_full() {
    util::Bytes state = capture();
    dirty.clear();
    removed.clear();
    return state;
  }

  util::Bytes capture_delta() {
    ++delta_captures;
    util::ByteWriter w(8 + removed.size() * 4 + dirty.size() * 12);
    w.u32(static_cast<std::uint32_t>(removed.size()));
    for (const std::uint32_t key : removed) w.u32(key);
    w.u32(static_cast<std::uint32_t>(dirty.size()));
    for (const auto& [key, unused] : dirty) {
      w.u32(key);
      w.u64(table.at(key));
    }
    dirty.clear();
    removed.clear();
    return std::move(w).take();
  }

  util::Status<util::DecodeError> apply_delta(util::BytesView delta) {
    util::ByteReader r(delta);
    std::vector<std::uint32_t> gone;
    const std::uint32_t removed_count = r.u32();
    for (std::uint32_t i = 0; i < removed_count && r.ok(); ++i) gone.push_back(r.u32());
    std::vector<std::pair<std::uint32_t, std::uint64_t>> upserts;
    const std::uint32_t dirty_count = r.u32();
    for (std::uint32_t i = 0; i < dirty_count && r.ok(); ++i) {
      const std::uint32_t key = r.u32();
      const std::uint64_t value = r.u64();
      upserts.emplace_back(key, value);
    }
    if (!r.ok() || r.remaining() != 0) return util::Err{util::DecodeError::kTruncated};
    for (const std::uint32_t key : gone) table.erase(key);
    for (const auto& [key, value] : upserts) table[key] = value;
    dirty.clear();
    removed.clear();
    return {};
  }

  util::Status<util::DecodeError> restore(util::BytesView state) {
    util::ByteReader r(state);
    const std::uint32_t count = r.u32();
    std::map<std::uint32_t, std::uint64_t> next;
    for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
      const std::uint32_t key = r.u32();
      const std::uint64_t value = r.u64();
      next[key] = value;
    }
    if (!r.ok() || r.remaining() != 0) return util::Err{util::DecodeError::kTruncated};
    table = std::move(next);
    dirty.clear();
    removed.clear();
    return {};
  }

  void apply_op(std::uint16_t kind, util::BytesView payload) {
    if (kind != kOpSet) return;
    util::ByteReader r(payload);
    const std::uint32_t key = r.u32();
    const std::uint64_t value = r.u64();
    if (r.ok()) table[key] = value;
  }
};

struct RecoveryFixture : ::testing::Test {
  obs::MetricsRegistry registry;
  sim::Scheduler scheduler;
  net::MessageBus bus{scheduler, {}};
  FakeService fake;

  static RecoveryConfig config() {
    RecoveryConfig c;
    c.enabled = true;
    c.heartbeat_interval = Duration::millis(100);
    c.miss_threshold = 3;
    c.checkpoint_interval = Duration::millis(250);
    return c;
  }

  static RecoveryConfig delta_config(std::uint32_t full_interval) {
    RecoveryConfig c = config();
    c.full_checkpoint_interval = full_interval;
    return c;
  }

  RecoveryHarness::Service service_spec(std::vector<std::string> endpoints = {}) {
    RecoveryHarness::Service spec;
    spec.name = "fake";
    spec.endpoints = std::move(endpoints);
    spec.capture = [this] { return fake.capture(); };
    spec.restore = [this](util::BytesView state) { return fake.restore(state); };
    spec.wipe = [this] { fake.table.clear(); };
    spec.apply_op = [this](std::uint16_t kind, util::BytesView payload) {
      fake.apply_op(kind, payload);
    };
    spec.on_restart = [this] { ++fake.restarts; };
    return spec;
  }

  /// service_spec() plus the incremental pair: full captures rebase the
  /// dirty set, deltas carry only what changed since the last capture.
  RecoveryHarness::Service delta_spec(std::vector<std::string> endpoints = {}) {
    RecoveryHarness::Service spec = service_spec(std::move(endpoints));
    spec.capture = [this] { return fake.capture_full(); };
    spec.capture_delta = [this] { return fake.capture_delta(); };
    spec.apply_delta = [this](util::BytesView delta) { return fake.apply_delta(delta); };
    return spec;
  }

  /// Mutates the primary AND logs the op, as a real service's runtime
  /// wiring does.
  void set_and_log(RecoveryHarness& harness, std::uint32_t key, std::uint64_t value) {
    fake.set(key, value);
    util::ByteWriter w(12);
    w.u32(key);
    w.u64(value);
    harness.log_op("fake", kOpSet, w.view());
  }

  /// Posts a hand-built checkpoint frame straight to the replica
  /// endpoint, exactly as the primary's take_checkpoints() wraps it —
  /// the attack surface for delta-before-full and epoch-skew frames.
  void post_forged_frame(const util::Bytes& frame, std::uint64_t watermark = 1) {
    const auto replica = bus.lookup(RecoveryHarness::kReplicaEndpointName);
    ASSERT_TRUE(replica.has_value());
    if (!forger_.has_value()) {
      forger_ = bus.add_endpoint("test.forger", [](net::Envelope) {});
    }
    util::ByteWriter w(2 + 4 + 8 + 4 + frame.size());
    w.str("fake");
    w.u64(watermark);
    w.u32(static_cast<std::uint32_t>(frame.size()));
    w.raw(frame);
    bus.post(*forger_, *replica, core::kCheckpointReplica, util::take_shared(std::move(w)));
  }

  std::optional<net::Address> forger_;

  std::uint64_t counter(const char* name) { return registry.snapshot().counter(name); }
  double gauge(const char* name) { return registry.snapshot().gauge(name); }
};

TEST_F(RecoveryFixture, CheckpointsReplicateOnCadence) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  harness.manage(service_spec());

  fake.table = {{1, 10}, {2, 20}};
  scheduler.run_for(Duration::millis(600));  // two cadences + bus latency

  EXPECT_GE(counter("garnet.checkpoint.taken"), 2u);
  EXPECT_GE(counter("garnet.checkpoint.stored"), 2u);
  EXPECT_EQ(counter("garnet.checkpoint.rejected"), 0u);
  EXPECT_GT(gauge("garnet.checkpoint.last_bytes"), 0.0);
}

TEST_F(RecoveryFixture, OpsReplicateToTheStandbyLog) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  harness.manage(service_spec());

  for (std::uint32_t key = 1; key <= 5; ++key) set_and_log(harness, key, key * 10);
  scheduler.run_for(Duration::millis(50));  // replication latency only

  EXPECT_EQ(counter("garnet.recovery.ops_logged"), 5u);
  EXPECT_EQ(counter("garnet.recovery.ops_replicated"), 5u);
}

TEST_F(RecoveryFixture, CrashWipesStateAndSilencesEndpoints) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  bus.set_metrics(registry);
  std::size_t arrivals = 0;
  const net::Address svc = bus.add_endpoint("fake.svc", [&](net::Envelope) { ++arrivals; });
  const net::Address peer = bus.add_endpoint("fake.peer", [](net::Envelope) {});
  harness.manage(service_spec({"fake.svc"}));

  fake.table = {{1, 1}};
  harness.crash("fake");
  EXPECT_TRUE(harness.crashed("fake"));
  EXPECT_TRUE(fake.table.empty());  // volatile state died with the process
  EXPECT_EQ(counter("garnet.recovery.crashes"), 1u);
  EXPECT_EQ(gauge("garnet.recovery.crashed"), 1.0);

  // Peers cannot tell it is gone: the post succeeds, the bus discards.
  bus.post(peer, svc, net::app_type(0), util::SharedBytes{util::to_bytes("hello?")});
  scheduler.run_for(Duration::millis(50));
  EXPECT_EQ(arrivals, 0u);
  EXPECT_EQ(counter("garnet.bus.dropped_endpoint_down"), 1u);
}

TEST_F(RecoveryFixture, CrashedServiceLogsNothing) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  harness.manage(service_spec());

  harness.crash("fake");
  set_and_log(harness, 1, 1);
  scheduler.run_for(Duration::millis(50));
  EXPECT_EQ(counter("garnet.recovery.ops_logged"), 0u);
}

TEST_F(RecoveryFixture, WatchdogPromotesFromCheckpointPlusTail) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  harness.manage(service_spec());

  // Pre-checkpoint state, then a checkpoint cadence, then a tail of ops.
  set_and_log(harness, 1, 10);
  set_and_log(harness, 2, 20);
  scheduler.run_for(Duration::millis(300));  // checkpoint lands, log truncates
  set_and_log(harness, 3, 30);
  set_and_log(harness, 2, 21);  // overwrite past the watermark
  scheduler.run_for(Duration::millis(20));
  const auto expected = fake.table;

  harness.crash("fake");
  ASSERT_TRUE(fake.table.empty());
  scheduler.run_for(Duration::seconds(1));  // watchdog notices, promotes

  EXPECT_FALSE(harness.crashed("fake"));
  EXPECT_EQ(fake.table, expected);  // checkpoint + tail == pre-crash state
  EXPECT_EQ(counter("garnet.recovery.promotions"), 1u);
  EXPECT_EQ(counter("garnet.recovery.rejoins"), 0u);
  // Only the post-watermark tail replayed, not the checkpointed prefix.
  EXPECT_EQ(counter("garnet.recovery.ops_replayed"), 2u);
  EXPECT_EQ(fake.restarts, 1);
  // Detection within (miss_threshold-1, miss_threshold] heartbeats.
  EXPECT_LE(gauge("garnet.recovery.latency_ns"),
            static_cast<double>(Duration::millis(400).ns));
  EXPECT_GE(gauge("garnet.recovery.latency_ns"),
            static_cast<double>(Duration::millis(200).ns));
}

TEST_F(RecoveryFixture, CrashBeforeFirstCheckpointReplaysFromBoot) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  harness.manage(service_spec());

  for (std::uint32_t key = 1; key <= 4; ++key) set_and_log(harness, key, key);
  scheduler.run_for(Duration::millis(20));  // replicate; no checkpoint yet
  const auto expected = fake.table;

  harness.crash("fake");
  harness.restart("fake");  // scheduled restart, not watchdog
  EXPECT_EQ(fake.table, expected);
  EXPECT_EQ(counter("garnet.recovery.rejoins"), 1u);
  EXPECT_EQ(counter("garnet.recovery.promotions"), 0u);
  EXPECT_EQ(counter("garnet.recovery.ops_replayed"), 4u);
}

TEST_F(RecoveryFixture, RestartIsNoopUnlessCrashed) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  harness.manage(service_spec());

  harness.restart("fake");
  harness.restart("no-such-service");
  EXPECT_EQ(counter("garnet.recovery.rejoins"), 0u);
  EXPECT_EQ(fake.restarts, 0);
}

TEST_F(RecoveryFixture, CrashIsIdempotent) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  harness.manage(service_spec());

  harness.crash("fake");
  harness.crash("fake");
  EXPECT_EQ(counter("garnet.recovery.crashes"), 1u);
  scheduler.run_for(Duration::seconds(1));
  EXPECT_EQ(counter("garnet.recovery.promotions"), 1u);
}

// --- the input door ---------------------------------------------------------

TEST_F(RecoveryFixture, HeldInputsRunInArrivalOrder) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  const RecoveryHarness::Door door = harness.manage(service_spec());
  const obs::Labels fake_labels{{"service", "fake"}};

  harness.crash("fake");
  ASSERT_TRUE(door.down());
  std::vector<int> ran;
  for (int input = 1; input <= 3; ++input) door.hold([&ran, input] { ran.push_back(input); });
  EXPECT_TRUE(ran.empty());  // nothing runs on a dead service
  EXPECT_EQ(registry.snapshot().gauge("garnet.recovery.inputs_held", fake_labels), 3.0);

  harness.restart("fake");
  EXPECT_FALSE(door.down());
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(registry.snapshot().gauge("garnet.recovery.inputs_held", fake_labels), 0.0);
  EXPECT_EQ(registry.snapshot().counter("garnet.recovery.inputs_handed_back", fake_labels), 3u);

  // Handed back once: a second crash/restart cycle runs nothing again.
  harness.crash("fake");
  harness.restart("fake");
  EXPECT_EQ(ran.size(), 3u);
  EXPECT_EQ(registry.snapshot().counter("garnet.recovery.inputs_handed_back", fake_labels), 3u);
}

TEST_F(RecoveryFixture, HeldInputsRunAfterRestoreAndReplayBeforeOnRestart) {
  RecoveryHarness harness(scheduler, bus, config());
  const RecoveryHarness::Door door = harness.manage(service_spec());
  set_and_log(harness, 1, 10);
  scheduler.run_for(Duration::millis(300));  // checkpoint lands
  set_and_log(harness, 2, 20);               // the op-log tail
  scheduler.run_for(Duration::millis(20));
  const auto expected = fake.table;

  harness.crash("fake");
  std::optional<std::map<std::uint32_t, std::uint64_t>> seen_table;
  int seen_restarts = -1;
  door.hold([&] {
    seen_table = fake.table;
    seen_restarts = fake.restarts;
  });
  harness.restart("fake");

  ASSERT_TRUE(seen_table.has_value());
  EXPECT_EQ(*seen_table, expected);  // checkpoint restored and tail replayed
  EXPECT_EQ(seen_restarts, 0);       // on_restart had not run yet
  EXPECT_EQ(fake.restarts, 1);
}

TEST_F(RecoveryFixture, WatchdogPromotionHandsHeldInputsBack) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  const RecoveryHarness::Door door = harness.manage(service_spec());

  harness.crash("fake");
  int ran = 0;
  door.hold([&ran] { ++ran; });
  door.hold([&ran] { ++ran; });
  scheduler.run_for(Duration::seconds(1));  // no restart: the watchdog promotes

  EXPECT_EQ(counter("garnet.recovery.promotions"), 1u);
  EXPECT_EQ(counter("garnet.recovery.rejoins"), 0u);
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(door.down());
}

TEST_F(RecoveryFixture, NothingIsHeldWhileTheServiceIsUp) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  const RecoveryHarness::Door door = harness.manage(service_spec());
  EXPECT_FALSE(RecoveryHarness::Door{}.down());  // a door of no service

  // Up before any crash and again after recovery: callers run their
  // inputs directly, and the door's series read zero for the service.
  EXPECT_FALSE(door.down());
  harness.crash("fake");
  harness.restart("fake");
  EXPECT_FALSE(door.down());
  scheduler.run_for(Duration::seconds(1));
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::Labels fake_labels{{"service", "fake"}};
  ASSERT_NE(snap.find("garnet.recovery.inputs_held", fake_labels), nullptr);
  ASSERT_NE(snap.find("garnet.recovery.inputs_handed_back", fake_labels), nullptr);
  EXPECT_EQ(snap.gauge("garnet.recovery.inputs_held", fake_labels), 0.0);
  EXPECT_EQ(snap.counter("garnet.recovery.inputs_handed_back", fake_labels), 0u);
}

TEST_F(RecoveryFixture, EndpointsComeBackUpAtRecovery) {
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  std::size_t arrivals = 0;
  const net::Address svc = bus.add_endpoint("fake.svc", [&](net::Envelope) { ++arrivals; });
  const net::Address peer = bus.add_endpoint("fake.peer", [](net::Envelope) {});
  harness.manage(service_spec({"fake.svc"}));

  harness.crash("fake");
  EXPECT_TRUE(bus.endpoint_down("fake.svc"));
  scheduler.run_for(Duration::seconds(1));  // watchdog promotes
  EXPECT_FALSE(bus.endpoint_down("fake.svc"));

  bus.post(peer, svc, net::app_type(0), util::SharedBytes{util::to_bytes("back?")});
  scheduler.run_for(Duration::millis(50));
  EXPECT_EQ(arrivals, 1u);
}

TEST_F(RecoveryFixture, CheckpointOnlyServiceSkipsReplay) {
  // Location/catalog-style management: no apply_op hook. Promotion is
  // restore-only; nothing counts as replayed.
  RecoveryHarness harness(scheduler, bus, config());
  harness.set_metrics(registry);
  RecoveryHarness::Service spec = service_spec();
  spec.apply_op = nullptr;
  harness.manage(std::move(spec));

  fake.table = {{5, 50}};
  scheduler.run_for(Duration::millis(300));  // checkpoint lands
  harness.crash("fake");
  scheduler.run_for(Duration::seconds(1));

  EXPECT_EQ(fake.table, (std::map<std::uint32_t, std::uint64_t>{{5, 50}}));
  EXPECT_EQ(counter("garnet.recovery.ops_replayed"), 0u);
}

TEST_F(RecoveryFixture, DeltaChainRestoresFullPlusDeltasAtPromotion) {
  // full_checkpoint_interval=4: one full frame, then three deltas, then
  // the next full. Promotion must stack the chain in order — including
  // a removal — with no op replay masking a bad chain.
  RecoveryHarness harness(scheduler, bus, delta_config(4));
  harness.set_metrics(registry);
  RecoveryHarness::Service spec = delta_spec();
  spec.apply_op = nullptr;
  harness.manage(std::move(spec));

  fake.set(1, 10);
  fake.set(2, 20);
  scheduler.run_for(Duration::millis(300));  // cadence 1: full frame
  EXPECT_EQ(counter("garnet.checkpoint.taken"), 1u);
  EXPECT_EQ(counter("garnet.checkpoint.deltas_taken"), 0u);

  fake.set(3, 30);
  fake.set(2, 21);
  scheduler.run_for(Duration::millis(250));  // cadence 2: delta
  fake.erase(1);
  fake.set(4, 40);
  scheduler.run_for(Duration::millis(250));  // cadence 3: delta
  EXPECT_EQ(counter("garnet.checkpoint.taken"), 1u);
  EXPECT_EQ(counter("garnet.checkpoint.deltas_taken"), 2u);
  EXPECT_EQ(counter("garnet.checkpoint.deltas_stored"), 2u);
  EXPECT_EQ(counter("garnet.checkpoint.deltas_rejected"), 0u);
  EXPECT_GT(gauge("garnet.checkpoint.delta_last_bytes"), 0.0);
  const auto expected = fake.table;

  harness.crash("fake");
  ASSERT_TRUE(fake.table.empty());
  scheduler.run_for(Duration::seconds(1));  // watchdog promotes

  EXPECT_FALSE(harness.crashed("fake"));
  EXPECT_EQ(fake.table, expected);  // full + delta + delta, no ops
  EXPECT_EQ(counter("garnet.checkpoint.deltas_applied"), 2u);
  EXPECT_EQ(counter("garnet.recovery.ops_replayed"), 0u);
}

TEST_F(RecoveryFixture, EveryNthCheckpointIsFullAndRebasesTheChain) {
  RecoveryHarness harness(scheduler, bus, delta_config(3));
  harness.set_metrics(registry);
  harness.manage(delta_spec());

  // Cadences: full, delta, delta, full, delta, delta — interval 3.
  for (int cadence = 0; cadence < 6; ++cadence) {
    fake.set(static_cast<std::uint32_t>(cadence), 1);
    scheduler.run_for(Duration::millis(250));
  }
  scheduler.run_for(Duration::millis(100));
  EXPECT_EQ(counter("garnet.checkpoint.taken"), 2u);
  EXPECT_EQ(counter("garnet.checkpoint.deltas_taken"), 4u);
  EXPECT_EQ(counter("garnet.checkpoint.deltas_stored"), 4u);
}

TEST_F(RecoveryFixture, ServicesWithoutDeltaHooksAlwaysGetFullFrames) {
  // The config asks for deltas but the service only has capture/restore:
  // the harness must fall back to full frames, never emit an un-appliable
  // delta.
  RecoveryHarness harness(scheduler, bus, delta_config(4));
  harness.set_metrics(registry);
  harness.manage(service_spec());

  fake.table = {{1, 1}};
  scheduler.run_for(Duration::millis(800));  // three cadences
  EXPECT_EQ(counter("garnet.checkpoint.taken"), 3u);
  EXPECT_EQ(counter("garnet.checkpoint.deltas_taken"), 0u);
}

TEST_F(RecoveryFixture, RecoveryForcesAFullReanchorFrame) {
  // After promotion the primary's state (base + deltas + replay) has
  // diverged from the replica's chain bookkeeping; the next capture must
  // be a full frame even mid-interval.
  RecoveryHarness harness(scheduler, bus, delta_config(8));
  harness.set_metrics(registry);
  harness.manage(delta_spec());

  set_and_log(harness, 1, 10);
  scheduler.run_for(Duration::millis(300));  // cadence 1: full
  set_and_log(harness, 2, 20);
  scheduler.run_for(Duration::millis(250));  // cadence 2: delta
  EXPECT_EQ(counter("garnet.checkpoint.deltas_taken"), 1u);

  harness.crash("fake");
  scheduler.run_for(Duration::seconds(1));  // promote + next cadences
  EXPECT_FALSE(harness.crashed("fake"));
  // Interval 8 would have allowed deltas until cadence 8; the recovery
  // forced at least one more full frame instead.
  EXPECT_GE(counter("garnet.checkpoint.taken"), 2u);
}

TEST_F(RecoveryFixture, DeltaBeforeAnyFullFrameIsRejected) {
  RecoveryHarness harness(scheduler, bus, delta_config(4));
  harness.set_metrics(registry);
  harness.manage(delta_spec());

  // Forge a well-formed delta frame before the first full checkpoint
  // cadence ever fires: the replica has no base to chain it onto.
  core::checkpoint::Header header;
  header.service = "fake";
  header.epoch = 2;
  header.taken_at = scheduler.now();
  fake.set(1, 10);
  post_forged_frame(core::checkpoint::encode_delta(header, 1, fake.capture_delta()));
  scheduler.run_for(Duration::millis(50));

  EXPECT_EQ(counter("garnet.checkpoint.deltas_stored"), 0u);
  EXPECT_EQ(counter("garnet.checkpoint.deltas_rejected"), 1u);
}

TEST_F(RecoveryFixture, EpochSkewedDeltaBreaksTheChain) {
  RecoveryHarness harness(scheduler, bus, delta_config(8));
  harness.set_metrics(registry);
  RecoveryHarness::Service spec = delta_spec();
  spec.apply_op = nullptr;
  harness.manage(std::move(spec));

  fake.set(1, 10);
  scheduler.run_for(Duration::millis(300));  // cadence 1: full, chain epoch 1
  EXPECT_EQ(counter("garnet.checkpoint.taken"), 1u);

  // A delta claiming base epoch 5 models a lost replica envelope: the
  // chain head is epoch 1, so the frame must be refused even though its
  // CRC and framing are valid.
  core::checkpoint::Header header;
  header.service = "fake";
  header.epoch = 6;
  header.taken_at = scheduler.now();
  fake.set(2, 20);
  post_forged_frame(core::checkpoint::encode_delta(header, 5, fake.capture_delta()), 2);
  scheduler.run_for(Duration::millis(50));
  EXPECT_EQ(counter("garnet.checkpoint.deltas_stored"), 0u);
  EXPECT_EQ(counter("garnet.checkpoint.deltas_rejected"), 1u);

  // Promotion before the chain heals restores the last full frame only:
  // the skewed delta (and the mutation it carried) never applied.
  harness.crash("fake");
  scheduler.run_for(Duration::seconds(1));
  EXPECT_EQ(fake.table, (std::map<std::uint32_t, std::uint64_t>{{1, 10}}));
}

TEST_F(RecoveryFixture, CorruptDeltaFrameIsRejectedAtReceipt) {
  RecoveryHarness harness(scheduler, bus, delta_config(4));
  harness.set_metrics(registry);
  harness.manage(delta_spec());

  fake.set(1, 10);
  scheduler.run_for(Duration::millis(300));  // full frame stored
  core::checkpoint::Header header;
  header.service = "fake";
  header.epoch = 2;
  header.taken_at = scheduler.now();
  fake.set(2, 20);
  util::Bytes frame = core::checkpoint::encode_delta(header, 1, fake.capture_delta());
  frame[frame.size() / 2] ^= std::byte{0x40};  // bit flip inside the frame
  post_forged_frame(frame, 2);
  scheduler.run_for(Duration::millis(50));

  EXPECT_EQ(counter("garnet.checkpoint.deltas_stored"), 0u);
  // CRC failures surface as checkpoint rejections (decode_any fails
  // before the frame kind is even known).
  EXPECT_GE(counter("garnet.checkpoint.rejected") +
                counter("garnet.checkpoint.deltas_rejected"),
            1u);
}

// --- admission control must never gate the watchdog -------------------------

TEST(AdmissionRecovery, SaturatedDataPoolNeverDelaysWatchdogPromotion) {
  // Recovery heartbeats and the promotion path ride the control plane,
  // which never passes the admission gate: only data ingress takes
  // tickets. A data pool wedged completely shut must therefore leave the
  // crash-detection latency bit-for-bit unchanged.
  const auto promotion_latency = [](bool saturate_pool) {
    Runtime::Config config;
    config.recovery.enabled = true;
    config.recovery.heartbeat_interval = Duration::millis(100);
    config.recovery.miss_threshold = 3;
    config.recovery.checkpoint_interval = Duration::millis(250);
    config.admission.enabled = true;
    config.admission.probing = false;
    config.admission.probe.initial_concurrency = 1;
    config.admission.probe.min_concurrency = 1;
    config.admission.probe.lease = Duration::seconds(30);      // never expires in-test
    config.admission.probe.interval = Duration::seconds(60);   // no probe ticks
    Runtime runtime(config);

    if (saturate_pool) {
      core::DataMessage msg;
      msg.stream_id = {7, 0};
      msg.payload = util::to_bytes("x");
      for (int i = 0; i < 4; ++i) {
        msg.sequence = static_cast<core::SequenceNo>(i);
        runtime.inject_external(core::as_view(msg));  // 1 admitted, 3 refused
      }
      EXPECT_EQ(runtime.admission()->stats().data_rejected, 3u);
      EXPECT_EQ(runtime.admission()->data_pool().holders(), 1u);  // wedged shut
    }
    runtime.run_for(Duration::millis(50));
    runtime.recovery()->crash("dispatch");
    runtime.run_for(Duration::seconds(1));

    EXPECT_EQ(runtime.telemetry().registry.snapshot().counter("garnet.recovery.promotions"),
              1u);
    if (saturate_pool) {
      // Still saturated after the promotion: the watchdog never waited
      // for a ticket.
      EXPECT_FALSE(runtime.admission()->admit_data(
          util::SimTime::zero() + Duration::seconds(2)));
    }
    return runtime.telemetry().registry.snapshot().gauge("garnet.recovery.latency_ns");
  };

  const double unsaturated = promotion_latency(false);
  const double saturated = promotion_latency(true);
  // Detection within (miss_threshold-1, miss_threshold] heartbeats...
  EXPECT_GE(unsaturated, static_cast<double>(Duration::millis(200).ns));
  EXPECT_LE(unsaturated, static_cast<double>(Duration::millis(400).ns));
  // ...and exactly as fast with the front door wedged shut.
  EXPECT_EQ(saturated, unsaturated);
}

}  // namespace
}  // namespace garnet
