// Field survey: a configurable scenario runner for capacity planning.
//
// Deploys a parameterised field, runs it for a stretch of virtual time,
// and prints the full middleware status report — the tool an operator
// would use to answer "how many receivers do I need for N sensors?"
// before committing hardware.
//
// Usage: field_survey [sensors] [receivers] [minutes] [seed]
//   defaults:         24        9           5         42
#include <cstdio>
#include <cstdlib>

#include "garnet/report.hpp"
#include "garnet/runtime.hpp"
#include "util/stats.hpp"

using namespace garnet;
using util::Duration;

int main(int argc, char** argv) {
  const std::size_t sensors = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 24;
  const std::size_t receivers = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 9;
  const long minutes = argc > 3 ? std::strtol(argv[3], nullptr, 10) : 5;
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 42;
  if (sensors == 0 || receivers == 0 || minutes <= 0) {
    std::fprintf(stderr, "usage: %s [sensors>0] [receivers>0] [minutes>0] [seed]\n", argv[0]);
    return 1;
  }

  Runtime::Config config;
  config.field.area = {{0, 0}, {1000, 1000}};
  config.field.seed = seed;
  config.field.radio.base_loss = 0.05;
  config.field.radio.edge_loss = 0.3;
  config.publish_location_stream = true;
  Runtime runtime(config);
  runtime.deploy_receivers(receivers, 1000.0 / std::max(2.0, std::sqrt(double(receivers))) + 120);
  runtime.deploy_transmitters(std::max<std::size_t>(receivers / 2, 1), 400);

  wireless::SensorField::PopulationSpec population;
  population.first_id = 1;
  population.count = sensors;
  population.interval_ms = 1000;
  runtime.deploy_population(population);

  // A survey consumer watching everything, plus a capped dashboard that
  // shows the QoS machinery in the report.
  core::Consumer firehose(runtime.bus(), "consumer.survey");
  runtime.provision(firehose, "survey");
  util::Quantiles latency;  // radio ingress -> delivery, virtual time
  firehose.set_data_handler([&](const core::DeliveryView& delivery) {
    latency.add(runtime.scheduler().now() - delivery.first_heard);
  });
  firehose.subscribe(core::StreamPattern::everything());

  core::Consumer dashboard(runtime.bus(), "consumer.dashboard");
  runtime.provision(dashboard, "dashboard");
  dashboard.subscribe(core::StreamPattern::everything(),
                      core::SubscribeOptions{.min_interval_ms = 5000, .max_age_ms = 0});

  std::printf("surveying %zu sensors / %zu receivers for %ld virtual minutes (seed %llu)...\n\n",
              sensors, receivers, minutes, static_cast<unsigned long long>(seed));
  runtime.run_for(Duration::millis(50));
  runtime.start_sensors();
  runtime.run_for(Duration::seconds(60 * minutes));

  const RuntimeReport report = snapshot(runtime);
  std::fputs(report.render().c_str(), stdout);

  // The planning verdict: what fraction of transmitted data reached a
  // consumer, and how well the field is localised.
  std::uint64_t transmitted = 0;
  std::size_t located = 0;
  for (std::size_t i = 0; i < runtime.field().sensor_count(); ++i) {
    transmitted += runtime.field().sensor_at(i).messages_sent();
    if (runtime.location().estimate(runtime.field().sensor_at(i).id())) ++located;
  }
  std::printf("\nverdict\n");
  std::printf("  delivery fraction                %.1f%%\n",
              100.0 * static_cast<double>(firehose.received()) /
                  static_cast<double>(std::max<std::uint64_t>(transmitted, 1)));
  std::printf("  median delivery latency          %.2fms\n", latency.median() / 1e6);
  std::printf("  sensors currently localised      %zu / %zu\n", located, sensors);
  return 0;
}
