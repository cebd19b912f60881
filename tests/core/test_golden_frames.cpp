// Golden-frame determinism for the StreamTable migration.
//
// The services used to checkpoint by walking sorted std::maps; they now
// walk StreamTable::for_each_sorted. Replicas upgrade one process at a
// time, so the refactor must be invisible on the wire: this suite pins
// capture_state() bytes against independent std::map-based reference
// encoders (the pre-refactor baseline, reconstructed inline), checks
// insertion-order invariance, and proves the incremental path — a full
// frame plus every subsequent delta — reproduces the primary's full
// capture byte for byte, with no partial application on corrupt input.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/dispatch.hpp"
#include "core/filtering.hpp"
#include "core/location.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/crc32c.hpp"

namespace garnet::core {
namespace {

using util::Duration;
using util::SimTime;

// --- catalog: byte-golden against the std::map baseline ---------------

TEST(GoldenFrames, CatalogCaptureMatchesSortedMapReference) {
  StreamCatalog catalog;
  const SimTime t1 = SimTime{} + Duration::millis(100);
  const SimTime t2 = SimTime{} + Duration::millis(250);
  // Scrambled insertion order; the frame must come out key-sorted.
  catalog.advertise({7, 2}, "well-7", "water-level");
  catalog.advertise({1, 0}, "temp-1", "temperature");
  catalog.note_message({7, 2}, t1);
  catalog.note_message({3, 1}, t1);  // auto-detected, unadvertised
  catalog.note_message({3, 1}, t2);

  // Pre-refactor reference: a sorted std::map of the same logical
  // entries, encoded with the documented per-entry layout.
  struct Entry {
    std::string name, stream_class;
    bool advertised = false, derived = false;
    SimTime first_seen, last_seen;
    std::uint64_t messages = 0;
  };
  std::map<std::uint32_t, Entry> reference;
  reference[StreamId{1, 0}.packed()] = {"temp-1", "temperature", true, false, {}, {}, 0};
  reference[StreamId{7, 2}.packed()] = {"well-7", "water-level", true, false, {}, t1, 1};
  reference[StreamId{3, 1}.packed()] = {"", "", false, false, t1, t2, 2};

  util::ByteWriter w(256);
  w.u32(static_cast<std::uint32_t>(reference.size()));
  for (const auto& [packed, info] : reference) {
    w.u32(packed);
    w.str(info.name);
    w.str(info.stream_class);
    w.u8(info.advertised ? 1 : 0);
    w.u8(info.derived ? 1 : 0);
    w.i64(info.first_seen.ns);
    w.i64(info.last_seen.ns);
    w.u64(info.messages);
  }
  w.u32(kDerivedSensorBase);  // untouched derived-id allocator
  w.u8(0);

  EXPECT_EQ(catalog.capture_state(), std::move(w).take());
}

TEST(GoldenFrames, CatalogCaptureIsInsertionOrderInvariant) {
  const SimTime t = SimTime{} + Duration::millis(10);
  StreamCatalog a;
  a.advertise({1, 0}, "one", "temperature");
  a.advertise({2, 0}, "two", "temperature");
  a.note_message({9, 3}, t);
  StreamCatalog b;
  b.note_message({9, 3}, t);
  b.advertise({2, 0}, "two", "temperature");
  b.advertise({1, 0}, "one", "temperature");
  EXPECT_EQ(a.capture_state(), b.capture_state());
}

// --- filtering: byte-golden against the std::map baseline -------------

TEST(GoldenFrames, FilteringCaptureMatchesSortedMapReference) {
  sim::Scheduler scheduler;
  FilteringService service(scheduler, {});
  // note_seen drives the dedup cursor exactly like accepted traffic.
  service.note_seen({5, 1}, 3);
  service.note_seen({5, 1}, 4);
  service.note_seen({2, 0}, 7);

  // Reference: per-stream records sorted by packed id, each encoding
  // [started][newest][next_release][accepted][total_advance][seen set].
  util::ByteWriter w(128);
  w.u32(2);
  w.u32(StreamId{2, 0}.packed());
  w.u8(1);
  w.u16(7);
  w.u16(8);
  w.u64(1);
  w.u64(0);
  w.u16(1);
  w.u16(7);
  w.u32(StreamId{5, 1}.packed());
  w.u8(1);
  w.u16(4);
  w.u16(5);
  w.u64(2);
  w.u64(1);
  w.u16(2);
  w.u16(3);
  w.u16(4);

  EXPECT_EQ(service.capture_state(), std::move(w).take());
}

// --- byte pins: full frame + the delta after it, per service ----------
//
// The reference encoders above cover two services' full frames; these
// pins cover every service's full *and* delta bytes by length and
// CRC-32C, so a codec change that keeps the chain self-consistent but
// moves a byte still fails.

struct Pin {
  std::size_t size = 0;
  std::uint32_t crc = 0;
};

void expect_pinned(const util::Bytes& bytes, Pin pin, const char* what) {
  EXPECT_EQ(bytes.size(), pin.size) << what;
  EXPECT_EQ(util::crc32c(bytes), pin.crc) << what << " crc 0x" << std::hex << util::crc32c(bytes);
}

TEST(GoldenFrames, CheckpointBytesArePinned) {
  const SimTime t = SimTime{} + Duration::seconds(1);
  {
    StreamCatalog catalog;
    catalog.advertise({7, 2}, "well-7", "water-level");
    catalog.advertise({1, 0}, "temp-1", "temperature");
    catalog.note_message({3, 1}, t);
    (void)catalog.allocate_derived();
    expect_pinned(catalog.capture_full(), {145, 0xC7E79A49}, "catalog full");
    catalog.note_message({7, 2}, t + Duration::millis(5));
    catalog.advertise({9, 9}, "nine", "water-level");
    (void)catalog.allocate_derived();
    expect_pinned(catalog.capture_delta(), {113, 0x66C02D44}, "catalog delta");
  }
  {
    sim::Scheduler scheduler;
    FilteringService filtering(scheduler, {});
    for (const SequenceNo seq : {3, 1, 4, 9, 7}) filtering.note_seen({5, 1}, seq);
    filtering.note_seen({2, 0}, 0xFFFE);
    filtering.note_seen({2, 0}, 2);  // wraps past 0xFFFF
    filtering.note_seen({8, 4}, 40);
    expect_pinned(filtering.capture_full(), {101, 0xEF771C4F}, "filtering full");
    filtering.note_seen({5, 1}, 12);
    filtering.note_seen({6, 0}, 1);
    expect_pinned(filtering.capture_delta(), {76, 0x5DBEA5AF}, "filtering delta");
  }
  {
    sim::Scheduler scheduler;
    net::MessageBus bus(scheduler, {});
    AuthService auth{{}};
    LocationService location(bus, auth);
    location.set_receiver_layout({{.id = 1, .position = {0.0, 0.0}},
                                  {.id = 2, .position = {60.0, 0.0}},
                                  {.id = 3, .position = {0.0, 80.0}}});
    location.observe({.sensor = 4, .receiver = 1, .rssi_dbm = -60.0, .heard_at = t});
    location.observe({.sensor = 4, .receiver = 2, .rssi_dbm = -71.25, .heard_at = t});
    location.observe({.sensor = 9, .receiver = 3, .rssi_dbm = -72.5, .heard_at = t});
    LocationHint hint;
    hint.sensor = 9;
    hint.x = 12.0;
    hint.y = 34.0;
    hint.radius_m = 20.0;
    location.hint(hint, t);
    expect_pinned(location.capture_full(), {114, 0x1FE9004C}, "location full");
    location.observe({.sensor = 4, .receiver = 3, .rssi_dbm = -55.0,
                      .heard_at = t + Duration::millis(10)});
    location.observe({.sensor = 11, .receiver = 1, .rssi_dbm = -80.0,
                      .heard_at = t + Duration::millis(20)});
    expect_pinned(location.capture_delta(), {106, 0xA0911DC2}, "location delta");
  }
  {
    sim::Scheduler scheduler;
    net::MessageBus bus(scheduler, {});
    AuthService auth{{}};
    StreamCatalog catalog;
    DispatchingService dispatch(bus, auth, catalog);
    FlowControlConfig flow;
    flow.credit_window = 3;
    dispatch.set_flow_control(flow);
    const net::Address a = bus.add_endpoint("consumer.a", [](net::Envelope) {});
    const net::Address b = bus.add_endpoint("consumer.b", [](net::Envelope) {});
    dispatch.subscribe(a, StreamPattern::all_of(1));
    dispatch.subscribe(b, StreamPattern::exact({2, 0}));

    DataMessage msg;
    msg.payload = util::to_bytes("x");
    const auto send = [&](StreamId id, SequenceNo seq) {
      msg.stream_id = id;
      msg.sequence = seq;
      dispatch.on_filtered(msg, scheduler.now());
    };
    for (SequenceNo seq = 0; seq < 5; ++seq) send({1, 0}, seq);  // a quarantines, sheds
    send({2, 0}, 7);
    send({3, 0}, 1);  // nobody subscribed
    expect_pinned(dispatch.capture_full(), {150, 0x52A5FC51}, "dispatch full");
    dispatch.subscribe(b, StreamPattern::exact({1, 3}));
    send({1, 3}, 2);
    send({2, 0}, 8);
    expect_pinned(dispatch.capture_delta(), {204, 0x0297FDBB}, "dispatch delta");
  }
}

// --- full + deltas == full, per service -------------------------------
//
// Every delta goes through ship_delta(): each proper prefix of it must be
// rejected with the standby untouched (never partially applied), and the
// intact delta must bring the standby byte-identical to the primary.

template <typename Service>
void ship_delta(Service& primary, Service& standby) {
  const util::Bytes delta = primary.capture_delta();
  const util::Bytes before = standby.capture_state();
  for (std::size_t len = 0; len < delta.size(); ++len) {
    EXPECT_FALSE(standby.apply_delta(util::BytesView(delta.data(), len)).ok())
        << "accepted a " << len << "-byte delta prefix";
    EXPECT_EQ(standby.capture_state(), before) << "partial apply at len " << len;
  }
  ASSERT_TRUE(standby.apply_delta(delta).ok());
  EXPECT_EQ(standby.capture_state(), primary.capture_state());
}

TEST(GoldenFrames, CatalogDeltaChainReproducesFullCapture) {
  const SimTime t = SimTime{} + Duration::millis(50);
  StreamCatalog primary;
  primary.advertise({1, 0}, "one", "temperature");
  primary.note_message({2, 0}, t);

  StreamCatalog standby;
  ASSERT_TRUE(standby.restore_state(primary.capture_full()).ok());
  ASSERT_EQ(standby.capture_state(), primary.capture_state());

  // Delta 1: a new stream, a touched stream, and an allocator bump.
  primary.note_message({2, 0}, t + Duration::millis(5));
  primary.advertise({9, 9}, "nine", "water-level");
  (void)primary.allocate_derived();
  ship_delta(primary, standby);

  // Delta 2: only untouched state — an empty delta must also converge.
  ship_delta(primary, standby);
}

TEST(GoldenFrames, FilteringDeltaChainReproducesFullCapture) {
  sim::Scheduler scheduler;
  FilteringService primary(scheduler, {});
  FilteringService standby(scheduler, {});
  for (SequenceNo seq = 0; seq < 8; ++seq) primary.note_seen({1, 0}, seq);
  primary.note_seen({2, 0}, 100);

  ASSERT_TRUE(standby.restore_state(primary.capture_full()).ok());
  ASSERT_EQ(standby.capture_state(), primary.capture_state());

  primary.note_seen({1, 0}, 8);        // existing stream advances
  primary.note_seen({3, 3}, 0);        // brand-new stream
  ship_delta(primary, standby);

  primary.note_seen({2, 0}, 101);
  ship_delta(primary, standby);
}

TEST(GoldenFrames, LocationDeltaChainReproducesFullCapture) {
  const std::vector<wireless::Receiver> layout = {{.id = 1, .position = {0.0, 0.0}},
                                                  {.id = 2, .position = {60.0, 0.0}},
                                                  {.id = 3, .position = {0.0, 80.0}}};
  sim::Scheduler scheduler_a;
  net::MessageBus bus_a(scheduler_a, {});
  AuthService auth_a{{}};
  LocationService primary(bus_a, auth_a);
  primary.set_receiver_layout(layout);
  sim::Scheduler scheduler_b;
  net::MessageBus bus_b(scheduler_b, {});
  AuthService auth_b{{}};
  LocationService standby(bus_b, auth_b);
  standby.set_receiver_layout(layout);

  const SimTime t = SimTime{} + Duration::seconds(1);
  primary.observe({.sensor = 4, .receiver = 1, .rssi_dbm = -60.0, .heard_at = t});
  primary.observe({.sensor = 9, .receiver = 2, .rssi_dbm = -72.5, .heard_at = t});

  ASSERT_TRUE(standby.restore_state(primary.capture_full()).ok());
  ASSERT_EQ(standby.capture_state(), primary.capture_state());

  primary.observe({.sensor = 4, .receiver = 3, .rssi_dbm = -55.0,
                   .heard_at = t + Duration::millis(10)});
  LocationHint hint;
  hint.sensor = 9;
  hint.x = 12.0;
  hint.y = 34.0;
  hint.radius_m = 20.0;
  primary.hint(hint, t + Duration::millis(20));
  ship_delta(primary, standby);
}

TEST(GoldenFrames, DispatchDeltaChainReproducesFullCapture) {
  sim::Scheduler scheduler_a;
  net::MessageBus bus_a(scheduler_a, {});
  AuthService auth_a{{}};
  StreamCatalog catalog_a;
  DispatchingService primary(bus_a, auth_a, catalog_a);
  sim::Scheduler scheduler_b;
  net::MessageBus bus_b(scheduler_b, {});
  AuthService auth_b{{}};
  StreamCatalog catalog_b;
  DispatchingService standby(bus_b, auth_b, catalog_b);

  const net::Address consumer = bus_a.add_endpoint("consumer", [](net::Envelope) {});
  primary.subscribe(consumer, StreamPattern::all_of(1));

  DataMessage msg;
  msg.stream_id = {1, 0};
  msg.payload = util::to_bytes("x");
  for (SequenceNo seq = 0; seq < 4; ++seq) {
    msg.sequence = seq;
    primary.on_filtered(msg, scheduler_a.now());
  }

  ASSERT_TRUE(standby.restore_state(primary.capture_full()).ok());
  ASSERT_EQ(standby.capture_state(), primary.capture_state());

  // Delta: a new subscription rides whole, the cursor table rides as
  // dirty entries only.
  primary.subscribe(consumer, StreamPattern::exact({2, 0}));
  msg.stream_id = {2, 0};
  msg.sequence = 9;
  primary.on_filtered(msg, scheduler_a.now());
  msg.stream_id = {1, 0};
  msg.sequence = 4;
  primary.on_filtered(msg, scheduler_a.now());
  ship_delta(primary, standby);

  ship_delta(primary, standby);
}

// --- corrupt deltas never partially apply -----------------------------

TEST(GoldenFrames, TruncatedDeltaLeavesStateUntouched) {
  const SimTime t = SimTime{} + Duration::millis(5);
  StreamCatalog primary;
  primary.advertise({1, 0}, "one", "temperature");
  StreamCatalog standby;
  ASSERT_TRUE(standby.restore_state(primary.capture_full()).ok());

  primary.advertise({2, 0}, "two", "temperature");
  primary.note_message({1, 0}, t);
  ship_delta(primary, standby);
}

TEST(GoldenFrames, FilteringTruncatedDeltaLeavesStateUntouched) {
  sim::Scheduler scheduler;
  FilteringService primary(scheduler, {});
  FilteringService standby(scheduler, {});
  primary.note_seen({1, 0}, 1);
  ASSERT_TRUE(standby.restore_state(primary.capture_full()).ok());
  primary.note_seen({1, 0}, 2);
  primary.note_seen({4, 0}, 5);
  ship_delta(primary, standby);
}

}  // namespace
}  // namespace garnet::core
