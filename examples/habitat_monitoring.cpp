// Habitat monitoring — the application driver the paper's introduction
// leans on (Cerpa et al., Mainwaring et al.): dense, unattended sensing
// of an environment, with data consumed by research teams that did not
// deploy the network and do not know about each other.
//
// This example shows the *multi-level consumption* story (§4.2):
//
//   level 0: wildlife collar tags (mobile) + static weather stations
//   level 1: zone aggregators subscribe to raw streams, publish derived
//            per-zone summaries
//   level 2: a biologist dashboard subscribes only to the derived
//            summaries — it never touches the raw firehose
//
// It also demonstrates discovery by stream class and Orphanage backlog
// claim: the dashboard arrives late and still gets the summaries it
// missed.
#include <cstdio>

#include "garnet/runtime.hpp"

using namespace garnet;
using util::Duration;

namespace {

/// Level-1 zone aggregator: average temperature over a rectangular zone.
class ZoneAggregator {
 public:
  ZoneAggregator(Runtime& runtime, std::string zone_name, core::SensorId first,
                 core::SensorId last)
      : consumer_(runtime.bus(), "consumer.zone." + zone_name), name_(std::move(zone_name)) {
    runtime.provision(consumer_, "zone." + name_);
    summary_ = runtime.create_derived_stream("summary." + name_, "zone-summary");
    consumer_.set_data_handler([this](const core::DeliveryView& delivery) {
      util::ByteReader r(delivery.message.payload);
      const double value = r.f64();
      if (!r.ok()) return;
      sum_ += value;
      if (++count_ % 32 == 0) publish();
    });
    for (core::SensorId id = first; id <= last; ++id) {
      consumer_.subscribe(core::StreamPattern::all_of(id));
    }
  }

  [[nodiscard]] core::StreamId summary_stream() const { return summary_; }
  [[nodiscard]] std::uint64_t raw_messages() const { return consumer_.received(); }

 private:
  void publish() {
    util::ByteWriter w(8);
    w.f64(sum_ / 32.0);
    sum_ = 0;
    consumer_.publish_derived(summary_, std::move(w).take(),
                              static_cast<std::uint8_t>(core::HeaderFlag::kFused));
  }

  core::Consumer consumer_;
  std::string name_;
  core::StreamId summary_{};
  double sum_ = 0;
  std::uint64_t count_ = 0;
};

}  // namespace

int main() {
  Runtime::Config config;
  config.field.area = {{0, 0}, {1200, 1200}};  // a 1.2km square reserve
  config.field.radio.base_loss = 0.05;
  config.field.radio.edge_loss = 0.3;
  config.orphanage.retention_per_stream = 32;
  Runtime runtime(config);
  runtime.deploy_receivers(16, 260);
  runtime.deploy_transmitters(9, 400);

  // 24 wildlife collar tags roaming the reserve (simple, transmit-only),
  // ids 1..24 in two habitat zones by initial placement.
  wireless::SensorField::PopulationSpec collars;
  collars.first_id = 1;
  collars.count = 24;
  collars.capabilities = {.receive_capable = false, .location_aware = false};
  collars.interval_ms = 1000;
  collars.min_speed_mps = 0.3;
  collars.max_speed_mps = 1.5;
  runtime.deploy_population(collars);

  // 4 static weather stations (sophisticated), ids 100..103.
  for (core::SensorId id = 100; id <= 103; ++id) {
    wireless::SensorNode::Config station;
    station.id = id;
    station.capabilities.receive_capable = true;
    wireless::StreamSpec temperature;
    temperature.id = 0;
    temperature.interval_ms = 5000;
    temperature.generate = wireless::synthetic_reading_generator(14.0, 6.0, 3600.0);
    station.streams.push_back(temperature);
    wireless::StreamSpec humidity;
    humidity.id = 1;
    humidity.interval_ms = 10000;
    humidity.generate = wireless::synthetic_reading_generator(70.0, 15.0, 3600.0);
    station.streams.push_back(humidity);
    runtime.deploy_sensor(std::move(station),
                          std::make_unique<sim::StaticMobility>(sim::Vec2{
                              300.0 * static_cast<double>(id - 99), 600.0}));
  }

  // Level-1 aggregators for the two collar populations.
  ZoneAggregator north(runtime, "north", 1, 12);
  ZoneAggregator south(runtime, "south", 13, 24);

  runtime.start_sensors();
  runtime.run_for(Duration::seconds(120));

  // --- a biologist arrives late -------------------------------------------
  // Discovery by class: find the zone summaries without knowing ids.
  core::StreamCatalog::Query query;
  query.stream_class = "zone-summary";
  const auto summaries = runtime.catalog().discover(query);
  std::printf("dashboard discovered %zu zone-summary streams:\n", summaries.size());
  for (const core::StreamInfo& info : summaries) {
    std::printf("  %-16s stream %-10s %llu messages so far\n", info.name.c_str(),
                info.id.to_string().c_str(), static_cast<unsigned long long>(info.messages));
  }

  core::Consumer dashboard(runtime.bus(), "consumer.dashboard");
  runtime.provision(dashboard, "dashboard");
  std::uint64_t live_updates = 0;
  dashboard.set_data_handler([&](const core::DeliveryView&) { ++live_updates; });

  // Claim what was orphaned before the dashboard existed, then go live.
  std::size_t backlog_total = 0;
  for (const core::StreamInfo& info : summaries) {
    const auto backlog = runtime.orphanage().claim(info.id);
    backlog_total += backlog.size();
    dashboard.subscribe(core::StreamPattern::exact(info.id));
  }
  std::printf("claimed %zu backlog summaries from the Orphanage\n", backlog_total);

  runtime.run_for(Duration::seconds(120));
  std::printf("dashboard received %llu live summaries over the next 2 minutes\n",
              static_cast<unsigned long long>(live_updates));

  // --- what the middleware absorbed ----------------------------------------
  const auto radio = runtime.telemetry().registry.snapshot();
  const auto& filter = runtime.filtering().stats();
  std::printf("\nradio: %llu frames sent, %llu copies heard (%llu duplicates), %llu unheard\n",
              static_cast<unsigned long long>(radio.counter("garnet.radio.uplink_frames")),
              static_cast<unsigned long long>(radio.counter("garnet.radio.uplink_deliveries")),
              static_cast<unsigned long long>(radio.counter("garnet.radio.uplink_duplicates")),
              static_cast<unsigned long long>(radio.counter("garnet.radio.uplink_unheard")));
  std::printf("filter: %llu duplicates eliminated, %llu unique messages reconstructed\n",
              static_cast<unsigned long long>(filter.duplicates_dropped),
              static_cast<unsigned long long>(filter.messages_out));
  std::printf("aggregators consumed %llu raw readings the dashboard never saw\n",
              static_cast<unsigned long long>(north.raw_messages() + south.raw_messages()));

  // The collars never sent coordinates; the reserve still knows roughly
  // where they are.
  std::size_t located = 0;
  for (core::SensorId id = 1; id <= 24; ++id) {
    if (runtime.location().estimate(id)) ++located;
  }
  std::printf("location service currently tracks %zu of 24 collars from reception evidence\n",
              located);
  return 0;
}
