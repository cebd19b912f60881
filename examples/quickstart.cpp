// Quickstart: the smallest useful Garnet deployment.
//
//   1. build a runtime (virtual clock, radio, all middleware services)
//   2. deploy receivers and a couple of sensors
//   3. provision a consumer, subscribe, receive data
//   4. send one control message back into the field
//
// Run:  ./quickstart
#include <cstdio>

#include "garnet/runtime.hpp"

using namespace garnet;
using util::Duration;

int main() {
  // --- 1. runtime ---------------------------------------------------------
  Runtime::Config config;
  config.field.area = {{0, 0}, {500, 500}};  // metres
  config.field.radio.base_loss = 0.02;       // the radio is not perfect
  Runtime runtime(config);

  // --- 2. field -----------------------------------------------------------
  runtime.deploy_receivers(/*count=*/4, /*range_m=*/300);
  runtime.deploy_transmitters(/*count=*/4, /*range_m=*/400);

  // Two mobile temperature sensors, one receive-capable, one transmit-only:
  // Garnet lets simple and sophisticated devices coexist.
  wireless::SensorField::PopulationSpec smart;
  smart.first_id = 1;
  smart.count = 1;
  smart.capabilities = {.receive_capable = true, .location_aware = false};
  smart.interval_ms = 500;
  runtime.deploy_population(smart);

  wireless::SensorField::PopulationSpec simple;
  simple.first_id = 2;
  simple.count = 1;
  simple.capabilities = {.receive_capable = false, .location_aware = false};
  simple.interval_ms = 500;
  runtime.deploy_population(simple);

  // --- 3. consumer ---------------------------------------------------------
  core::Consumer app(runtime.bus(), "consumer.quickstart");
  runtime.provision(app, "quickstart");

  std::uint64_t readings = 0;
  app.set_data_handler([&](const core::DeliveryView& delivery) {
    ++readings;
    if (readings <= 3) {
      util::ByteReader r(delivery.message.payload);
      std::printf("  reading from stream %-8s seq=%-5u value=%.2f\n",
                  delivery.message.stream_id.to_string().c_str(), delivery.message.sequence,
                  r.f64());
    }
  });
  app.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));

  std::puts("starting sensors; first readings:");
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(30));
  std::printf("received %llu readings in 30s of virtual time\n",
              static_cast<unsigned long long>(readings));

  // Streams are discoverable even though nobody advertised them.
  const auto discovered = runtime.catalog().discover({});
  std::printf("catalog detected %zu streams on the air\n", discovered.size());

  // --- 4. control path -----------------------------------------------------
  std::puts("asking sensor 1 to sample twice as fast...");
  app.request_update({1, 0}, core::UpdateAction::kSetIntervalMs, 250,
                     [](std::uint32_t request_id, core::Admission admission,
                        std::uint32_t effective) {
                       std::printf("  admission: %s, effective interval %ums (request #%u)\n",
                                   admission == core::Admission::kApproved ? "approved"
                                   : admission == core::Admission::kModified ? "modified"
                                                                             : "denied",
                                   effective, request_id);
                     });
  runtime.run_for(Duration::seconds(10));

  const auto& actuation = runtime.actuation().stats();
  std::printf("actuation: %llu sent, %llu acknowledged by the sensor\n",
              static_cast<unsigned long long>(actuation.sent),
              static_cast<unsigned long long>(actuation.acked));

  const auto estimate = runtime.location().estimate(1);
  if (estimate) {
    std::printf("sensor 1 located near (%.0f, %.0f) +/- %.0fm without ever sending a position\n",
                estimate->position.x, estimate->position.y, estimate->radius_m);
  }
  return 0;
}
