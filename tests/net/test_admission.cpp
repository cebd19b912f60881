// Adaptive admission control (net/admission.hpp): ticket-pool lease
// semantics, the throughput-probe state machine, probe-journal
// determinism under arbitrary advance() cadences, and the
// garnet.admission.* exposition.
#include "net/admission.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace garnet::net {
namespace {

using util::Duration;
using util::SimTime;

SimTime at_us(std::int64_t micros) { return SimTime::zero() + Duration::micros(micros); }

// --- TicketPool -------------------------------------------------------------

TEST(AdmissionTicketPool, RefusesWhenEveryTicketIsOutAndFlagsSaturation) {
  TicketPool pool(2);
  EXPECT_TRUE(pool.try_acquire(at_us(0), Duration::millis(1)));
  EXPECT_FALSE(pool.take_saturated());  // one ticket still free
  EXPECT_TRUE(pool.try_acquire(at_us(0), Duration::millis(1)));
  EXPECT_TRUE(pool.take_saturated());  // the fill itself counts
  EXPECT_FALSE(pool.try_acquire(at_us(0), Duration::millis(1)));
  EXPECT_EQ(pool.holders(), 2u);
  EXPECT_TRUE(pool.take_saturated());
  EXPECT_FALSE(pool.take_saturated());  // reading clears the flag
}

TEST(AdmissionTicketPool, LeaseExpiryReturnsTickets) {
  TicketPool pool(1);
  EXPECT_TRUE(pool.try_acquire(at_us(0), Duration::micros(500)));
  EXPECT_FALSE(pool.try_acquire(at_us(499), Duration::micros(500)));
  EXPECT_TRUE(pool.try_acquire(at_us(500), Duration::micros(500)));  // lease over
  EXPECT_EQ(pool.holders(), 1u);
  EXPECT_EQ(pool.release_expired(at_us(2000)), 1u);
  EXPECT_EQ(pool.holders(), 0u);
}

TEST(AdmissionTicketPool, ShrinkRefusesNewAdmissionsUntilLeasesDrain) {
  TicketPool pool(4);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.try_acquire(at_us(0), Duration::millis(1)));
  }
  pool.resize(2);
  EXPECT_FALSE(pool.try_acquire(at_us(10), Duration::millis(1)));  // 3 holders > size 2
  EXPECT_EQ(pool.holders(), 3u);  // the shrink cancelled nothing
  EXPECT_TRUE(pool.try_acquire(at_us(1000), Duration::millis(1)));  // leases drained
  EXPECT_EQ(pool.holders(), 1u);
}

// --- ThroughputProbe --------------------------------------------------------

ProbeConfig probe_config(std::uint32_t initial) {
  ProbeConfig config;
  config.initial_concurrency = initial;
  config.min_concurrency = 2;
  config.max_concurrency = 8;
  config.step = 0.25;
  config.ewma_weight = 0.5;
  config.backoff_ratio = 0.9;
  return config;
}

TEST(AdmissionProbe, ClimbsWhileSaturatedConcurrencyBuysGoodput) {
  ThroughputProbe probe(probe_config(4));

  // Saturated with goodput rising: the up-excursion pays and commits.
  auto out = probe.on_interval(100, true);
  EXPECT_EQ(out.decision, ProbeDecision::kProbeUp);
  EXPECT_EQ(out.size, 5u);
  EXPECT_DOUBLE_EQ(out.ewma, 100.0);  // first sample seeds the EWMA

  out = probe.on_interval(300, true);
  EXPECT_EQ(out.decision, ProbeDecision::kAccept);
  EXPECT_EQ(out.size, 5u);
  EXPECT_DOUBLE_EQ(out.ewma, 200.0);

  // Still saturated: keep climbing...
  out = probe.on_interval(300, true);
  EXPECT_EQ(out.decision, ProbeDecision::kProbeUp);
  EXPECT_EQ(out.size, 6u);

  // ...but the sixth ticket only fed the shedders: revert to 5.
  out = probe.on_interval(100, true);
  EXPECT_EQ(out.decision, ProbeDecision::kBackoff);
  EXPECT_EQ(out.size, 5u);
}

TEST(AdmissionProbe, GivesBackConcurrencyTheLoadDoesNotNeed) {
  ThroughputProbe probe(probe_config(4));

  // Not saturated: try a smaller pool; near-equal goodput keeps it.
  auto out = probe.on_interval(100, false);
  EXPECT_EQ(out.decision, ProbeDecision::kProbeDown);
  EXPECT_EQ(out.size, 3u);

  out = probe.on_interval(95, false);  // ewma 97.5 >= 0.9 x best 100
  EXPECT_EQ(out.decision, ProbeDecision::kAccept);
  EXPECT_EQ(out.size, 3u);

  // Goodput collapses during the next down-excursion: back off.
  out = probe.on_interval(0, false);
  EXPECT_EQ(out.decision, ProbeDecision::kProbeDown);
  EXPECT_EQ(out.size, 2u);

  out = probe.on_interval(0, false);
  EXPECT_EQ(out.decision, ProbeDecision::kBackoff);
  EXPECT_EQ(out.size, 3u);
}

TEST(AdmissionProbe, HoldsAtTheConcurrencyBounds) {
  ThroughputProbe floor(probe_config(2));
  EXPECT_EQ(floor.on_interval(10, false).decision, ProbeDecision::kHold);
  EXPECT_EQ(floor.concurrency(), 2u);

  ThroughputProbe ceiling(probe_config(8));
  EXPECT_EQ(ceiling.on_interval(10, true).decision, ProbeDecision::kHold);
  EXPECT_EQ(ceiling.concurrency(), 8u);
}

// --- AdmissionGate ----------------------------------------------------------

AdmissionConfig static_config(std::uint32_t data_tickets) {
  AdmissionConfig config;
  config.enabled = true;
  config.probing = false;
  config.probe.initial_concurrency = data_tickets;
  config.probe.min_concurrency = 1;
  config.probe.lease = Duration::seconds(1);      // no expiry inside a test instant
  config.probe.interval = Duration::seconds(100);  // no probe ticks
  return config;
}

TEST(AdmissionGate, DisabledGateIsTransparent) {
  AdmissionGate gate(AdmissionConfig{});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(gate.admit_data(at_us(i)));
  EXPECT_EQ(gate.stats().data_admitted, 0u);  // nothing counted, nothing held
  EXPECT_EQ(gate.data_pool().holders(), 0u);
  EXPECT_TRUE(gate.journal().empty());
}

/// Same admit schedule, different advance() cadence: the punctual caller
/// polls between admissions, the lazy one never does. Deadlines are
/// fixed multiples of the interval, so the journals must match
/// byte-for-byte — the unsharded-runtime vs shard-plane equivalence in
/// miniature.
std::string drive_gate(bool extra_advances, AdmissionStats* stats_out = nullptr) {
  AdmissionConfig config;
  config.enabled = true;
  config.probing = true;
  config.journal_limit = 256;
  config.probe.initial_concurrency = 4;
  config.probe.min_concurrency = 2;
  config.probe.max_concurrency = 8;
  config.probe.interval = Duration::millis(1);
  config.probe.lease = Duration::micros(300);
  AdmissionGate gate(config);
  // Goodput derived from the gate's own admission counters: a
  // deterministic function of the admit order, like the dispatch
  // counters it mirrors in production.
  gate.set_goodput_source([&gate](std::uint64_t& delivered, std::uint64_t& wasted) {
    delivered = gate.stats().data_admitted;
    wasted = gate.stats().data_rejected / 2;
  });
  for (int k = 0; k < 4000; ++k) {
    const SimTime now = at_us(50 * k);
    gate.admit_data(now);
    if (extra_advances && k % 7 == 0) gate.advance(now + Duration::micros(13));
  }
  if (stats_out != nullptr) *stats_out = gate.stats();
  return gate.journal_text();
}

TEST(AdmissionGate, JournalIsByteIdenticalUnderAnyAdvanceCadence) {
  AdmissionStats punctual;
  AdmissionStats lazy;
  const std::string a = drive_gate(false, &punctual);
  const std::string b = drive_gate(true, &lazy);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(punctual.data_admitted, lazy.data_admitted);
  EXPECT_EQ(punctual.data_rejected, lazy.data_rejected);
  EXPECT_EQ(punctual.probes, lazy.probes);
  EXPECT_EQ(punctual.resizes, lazy.resizes);
  // The workload genuinely exercised the controller, not just the door.
  EXPECT_GT(punctual.data_rejected, 0u);
  EXPECT_GT(punctual.resizes, 0u);
}

TEST(AdmissionGate, ResizesDriveTheDerivedCreditWindow) {
  AdmissionConfig config;
  config.enabled = true;
  config.probing = true;
  config.journal_limit = 16;
  config.probe.initial_concurrency = 4;
  config.probe.min_concurrency = 2;
  config.probe.max_concurrency = 8;
  config.probe.interval = Duration::millis(1);
  AdmissionGate gate(config);
  std::vector<std::uint32_t> sizes;
  gate.set_resize_listener([&sizes](std::uint32_t size) { sizes.push_back(size); });

  // No traffic at all: the pool never saturates, so the prober walks the
  // size down (4 -> 3 -> 2) and the listener sees every committed step.
  for (int tick = 1; tick <= 5; ++tick) gate.advance(at_us(1000 * tick));
  EXPECT_EQ(sizes, (std::vector<std::uint32_t>{3, 2}));
  EXPECT_EQ(gate.data_pool_size(), 2u);
  EXPECT_EQ(gate.derived_credit_window(), 2u);
  EXPECT_EQ(gate.stats().resizes, 2u);
}

TEST(AdmissionGate, CollectorExposesAdmissionSeriesAndDeregisters) {
  obs::MetricsRegistry registry;
  const obs::Labels data{{"pool", "data"}};
  const obs::Labels control{{"pool", "control"}};
  {
    AdmissionGate gate(static_config(3));
    gate.set_metrics(registry);
    for (int i = 0; i < 4; ++i) gate.admit_data(at_us(0));  // 3 in, 1 refused

    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.gauge("garnet.admission.tickets", data), 3.0);
    EXPECT_EQ(snapshot.gauge("garnet.admission.holders", data), 3.0);
    EXPECT_EQ(snapshot.counter("garnet.admission.admitted", data), 3u);
    EXPECT_EQ(snapshot.counter("garnet.admission.rejected", data), 1u);
    // Control traffic never passes the gate, so no pool is labelled for it.
    EXPECT_EQ(snapshot.find("garnet.admission.tickets", control), nullptr);
    ASSERT_NE(snapshot.find("garnet.admission.goodput"), nullptr);
    ASSERT_NE(snapshot.find("garnet.admission.probes"), nullptr);
  }
  // Destroying the gate removed its collector from the shared registry.
  EXPECT_EQ(registry.snapshot().find("garnet.admission.tickets", data), nullptr);
}

TEST(AdmissionGate, RenderProbeRecordIsByteStable) {
  ProbeRecord record;
  record.at = at_us(50);
  record.decision = ProbeDecision::kAccept;
  record.from_size = 4;
  record.to_size = 5;
  record.goodput = 7;
  record.ewma_milli = -250;
  EXPECT_EQ(render_probe_record(record), "50000 probe accept 4->5 goodput=7 ewma_milli=-250\n");
}

}  // namespace
}  // namespace garnet::net
