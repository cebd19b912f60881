// Live stream monitor: a terminal dashboard over everything on the air,
// paced by the real-time driver so updates arrive as they would in a
// deployment (here at 30x so a demo takes seconds). Exits with the
// operator text report plus the same snapshot as JSON exposition — what
// a scraper or the bench harness would ingest.
//
// With --connect the monitor runs no simulation at all: it attaches to
// a running garnet-gw daemon's stream port over TCP, subscribes to
// everything, and tails the delivery frames a remote middleware fans
// out — the same dashboard, fed across a real socket.
//
// Usage: stream_monitor [speedup]                   (default 30)
//        stream_monitor --connect host:port [--count N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/wire_types.hpp"
#include "garnet/report.hpp"
#include "garnet/runtime.hpp"
#include "gw_net.hpp"
#include "sim/realtime.hpp"

using namespace garnet;
using util::Duration;

namespace {

struct StreamRow {
  std::uint64_t messages = 0;
  double last_value = 0;
  util::SimTime last_seen;
};

/// Tails delivery frames from a garnet-gw stream port until EOF (or
/// `count` frames), then prints the per-stream roll-up.
int run_connected(const std::string& spec, std::size_t count) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "stream_monitor: --connect wants host:port\n");
    return 2;
  }
  const std::string host = spec.substr(0, colon);
  const auto port = static_cast<std::uint16_t>(std::strtoul(spec.c_str() + colon + 1, nullptr, 10));
  const int fd = gw_client::connect_tcp(host, port);
  if (fd < 0) {
    std::fprintf(stderr, "stream_monitor: cannot connect to %s\n", spec.c_str());
    return 1;
  }
  if (!gw_client::send_all(fd, std::string("SUB */*\n"))) return 1;
  const auto ack = gw_client::read_line(fd);
  if (!ack || ack->rfind("OK", 0) != 0) {
    std::fprintf(stderr, "stream_monitor: subscribe refused: %s\n", ack ? ack->c_str() : "(eof)");
    ::close(fd);
    return 1;
  }
  std::printf("connected to %s (%s); tailing...\n", spec.c_str(), ack->c_str());

  std::map<std::uint32_t, StreamRow> rows;
  std::size_t received = 0;
  while (count == 0 || received < count) {
    auto frame = gw_client::read_frame(fd);
    if (!frame) break;
    // Socket bytes: re-verify the CRC the dispatcher computed.
    const auto delivery =
        core::decode_delivery_view(std::move(*frame), core::ChecksumPolicy::kVerify);
    if (!delivery.ok()) {
      std::fprintf(stderr, "stream_monitor: corrupt delivery frame\n");
      break;
    }
    const auto& msg = delivery.value().message;
    StreamRow& row = rows[msg.stream_id.packed()];
    ++row.messages;
    row.last_seen = delivery.value().first_heard;
    util::ByteReader r(msg.payload);
    const double value = r.f64();
    if (r.ok()) row.last_value = value;
    ++received;
    std::printf("  %-10s seq=%-6u %4zuB  last=%.2f\n", msg.stream_id.to_string().c_str(),
                msg.sequence, msg.payload.size(), row.last_value);
  }
  ::close(fd);

  std::printf("\n%-10s %-8s %s\n", "stream", "msgs", "last value");
  for (const auto& [packed, row] : rows) {
    std::printf("%-10s %-8llu %.2f\n", core::StreamId::from_packed(packed).to_string().c_str(),
                static_cast<unsigned long long>(row.messages), row.last_value);
  }
  std::printf("%zu delivery frame(s) over the wire\n", received);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect_spec;
  std::size_t connect_count = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0) connect_spec = argv[i + 1];
    if (std::strcmp(argv[i], "--count") == 0) connect_count = std::strtoul(argv[i + 1], nullptr, 10);
  }
  if (!connect_spec.empty()) return run_connected(connect_spec, connect_count);

  const double speed = argc > 1 ? std::strtod(argv[1], nullptr) : 30.0;

  Runtime::Config config;
  config.field.area = {{0, 0}, {600, 600}};
  config.field.radio.base_loss = 0.05;
  Runtime runtime(config);
  runtime.deploy_receivers(9, 250);

  wireless::SensorField::PopulationSpec population;
  population.count = 6;
  population.interval_ms = 1000;
  runtime.deploy_population(population);

  core::Consumer monitor(runtime.bus(), "consumer.monitor");
  runtime.provision(monitor, "monitor");
  std::map<std::uint32_t, StreamRow> rows;
  monitor.set_data_handler([&](const core::DeliveryView& delivery) {
    StreamRow& row = rows[delivery.message.stream_id.packed()];
    ++row.messages;
    row.last_seen = delivery.first_heard;
    util::ByteReader r(delivery.message.payload);
    const double value = r.f64();
    if (r.ok()) row.last_value = value;
  });
  monitor.subscribe(core::StreamPattern::everything());
  runtime.run_for(Duration::millis(20));
  runtime.start_sensors();

  sim::RealtimeDriver driver(runtime.scheduler(), speed);
  std::printf("monitoring at %.0fx real time (6 sensors @ 1Hz)...\n\n", speed);
  for (int tick = 1; tick <= 5; ++tick) {
    driver.run_for(Duration::seconds(12));
    std::printf("t=%3.0fs  %-10s %-8s %-10s %-10s %s\n", runtime.scheduler().now().to_seconds(),
                "stream", "msgs", "last", "age(s)", "position estimate");
    for (const auto& [packed, row] : rows) {
      const core::StreamId id = core::StreamId::from_packed(packed);
      const auto estimate = runtime.location().estimate(id.sensor);
      char where[48] = "(unknown)";
      if (estimate) {
        std::snprintf(where, sizeof where, "(%.0f, %.0f) +/-%.0fm", estimate->position.x,
                      estimate->position.y, estimate->radius_m);
      }
      std::printf("        %-10s %-8llu %-10.2f %-10.1f %s\n", id.to_string().c_str(),
                  static_cast<unsigned long long>(row.messages), row.last_value,
                  (runtime.scheduler().now() - row.last_seen).to_seconds(), where);
    }
    std::printf("\n");
  }

  const auto& filter = runtime.filtering().stats();
  std::printf("totals: %llu unique messages (%llu duplicate radio copies removed)\n",
              static_cast<unsigned long long>(filter.messages_out),
              static_cast<unsigned long long>(filter.duplicates_dropped));
  for (const auto& report : runtime.filtering().stream_reports()) {
    if (report.estimated_lost > 0) {
      std::printf("  stream %s lost ~%llu frames to the radio\n",
                  report.id.to_string().c_str(),
                  static_cast<unsigned long long>(report.estimated_lost));
    }
  }

  const RuntimeReport status = snapshot(runtime);
  std::printf("\n%s", status.render().c_str());
  std::printf("\n-- JSON exposition (metrics + recent traces) --\n%s\n", status.to_json().c_str());
  return 0;
}
