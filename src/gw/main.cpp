// garnet-gw: the gateway daemon. Runs a full Garnet runtime with an
// embedded simulated sensor field and bridges its data streams to real
// TCP sockets on loopback: external producers push Figure-2 frames into
// the ingest port, subscribers tail deliveries from the stream port, and
// pull-style readers query the last-value URI cache. See docs/GATEWAY.md
// and examples/gw_client.cpp for the client side.
//
// Usage: garnet-gw [--ingest P] [--stream P] [--cache P] [--sensors N]
//                  [--interval MS] [--speed X] [--duration S] [--quiet]
//
// Ports default to 7070/7071/7072; pass 0 for an ephemeral port (the
// bound port is printed either way). --sensors 0 disables the embedded
// field, leaving only externally ingested traffic. --duration 0 runs
// until interrupted.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>

#include "garnet/runtime.hpp"
#include "gw/gateway.hpp"
#include "gw/transport.hpp"
#include "sim/realtime.hpp"

using namespace garnet;
using util::Duration;

namespace {

struct Options {
  std::uint16_t ingest_port = 7070;
  std::uint16_t stream_port = 7071;
  std::uint16_t cache_port = 7072;
  std::size_t sensors = 4;
  std::uint32_t interval_ms = 1000;
  double speed = 1.0;
  double duration_s = 0;  // 0 = run forever
  bool quiet = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--ingest P] [--stream P] [--cache P] [--sensors N]\n"
               "          [--interval MS] [--speed X] [--duration S] [--quiet]\n",
               argv0);
  return 2;
}

bool parse_options(int argc, char** argv, Options& out) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quiet") {
      out.quiet = true;
    } else if (arg == "--ingest" && has_value) {
      out.ingest_port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--stream" && has_value) {
      out.stream_port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--cache" && has_value) {
      out.cache_port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--sensors" && has_value) {
      out.sensors = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--interval" && has_value) {
      out.interval_ms = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--speed" && has_value) {
      out.speed = std::strtod(argv[++i], nullptr);
    } else if (arg == "--duration" && has_value) {
      out.duration_s = std::strtod(argv[++i], nullptr);
    } else {
      return false;
    }
  }
  return out.speed > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) return usage(argv[0]);

  Runtime::Config config;
  config.field.area = {{0, 0}, {600, 600}};
  Runtime runtime(config);
  runtime.deploy_receivers(9, 250);
  if (opt.sensors > 0) {
    wireless::SensorField::PopulationSpec population;
    population.count = opt.sensors;
    population.interval_ms = opt.interval_ms;
    runtime.deploy_population(population);
  }

  gw::PosixTransport::Config ports;
  ports.ingest_port = opt.ingest_port;
  ports.stream_port = opt.stream_port;
  ports.cache_port = opt.cache_port;
  gw::PosixTransport transport(ports);
  gw::Gateway gateway(runtime, transport);

  runtime.run_for(Duration::millis(20));  // let the subscribe RPC settle
  runtime.start_sensors();

  std::printf("garnet-gw up on 127.0.0.1 — ingest :%u  stream :%u  cache :%u\n",
              transport.port(gw::Listener::kIngest), transport.port(gw::Listener::kStream),
              transport.port(gw::Listener::kCache));
  if (!opt.quiet) {
    std::printf("  %zu embedded sensors @ %ums, %.0fx real time; try:\n", opt.sensors,
                opt.interval_ms, opt.speed);
    std::printf("    gw_client sub '*' --port %u\n", transport.port(gw::Listener::kStream));
    std::printf("    gw_client get 1/0 --port %u\n\n", transport.port(gw::Listener::kCache));
  }

  sim::RealtimeDriver driver(runtime.scheduler(), opt.speed);
  const auto wall_start = std::chrono::steady_clock::now();
  auto last_status = wall_start;
  // ~10ms of wall time per iteration. The driver pumps the gateway on
  // entry and after every batch of events it runs, so a delivery goes
  // out before the driver sleeps, or between batches when it has fallen
  // behind, rather than at the end of the slice; nothing queued is left
  // unsent when run_for returns, so none when the loop ends.
  const Duration slice = Duration::nanos(static_cast<std::int64_t>(10e6 * opt.speed));
  for (;;) {
    driver.run_for(slice, [&] { gateway.pump(); });
    const auto now = std::chrono::steady_clock::now();
    const double elapsed = std::chrono::duration<double>(now - wall_start).count();
    if (opt.duration_s > 0 && elapsed >= opt.duration_s) break;
    if (!opt.quiet && now - last_status >= std::chrono::seconds(5)) {
      last_status = now;
      const gw::GatewayStats& s = gateway.stats();
      std::printf("[%6.1fs] conns=%zu subs=%zu ingest=%llu egress=%llu shed=%llu cache=%zu\n",
                  elapsed, gateway.connections(), gateway.subscribers(),
                  static_cast<unsigned long long>(s.ingest_frames),
                  static_cast<unsigned long long>(s.egress_frames),
                  static_cast<unsigned long long>(s.shed.data_total()), gateway.cache().size());
    }
  }

  const gw::GatewayStats& s = gateway.stats();
  std::printf("garnet-gw done: accepted=%llu ingest=%llu (%llu bad) egress=%llu shed=%llu\n",
              static_cast<unsigned long long>(s.accepted),
              static_cast<unsigned long long>(s.ingest_frames),
              static_cast<unsigned long long>(s.ingest_malformed + s.ingest_oversized),
              static_cast<unsigned long long>(s.egress_frames),
              static_cast<unsigned long long>(s.shed.data_total()));
  return 0;
}
