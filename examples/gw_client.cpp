// gw_client: command-line peer for the garnet-gw daemon — all four
// roles a real deployment would put on the wire:
//
//   gw_client put 42/1 23.5 --count 10     push frames as an external producer
//   gw_client sub '*'                      tail matching deliveries (stream port)
//   gw_client get 42/1                     read the last value (cache port)
//   gw_client list                         enumerate cached streams
//   gw_client metrics                      Prometheus exposition via the cache port
//
// Common flags: --host H (default 127.0.0.1), --port P (defaults to the
// daemon's default port for the chosen mode), --count N, --interval-ms M.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/message.hpp"
#include "core/wire_types.hpp"
#include "gw_net.hpp"
#include "gw/uri_cache.hpp"
#include "util/bytes.hpp"

using namespace garnet;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = mode default
  std::size_t count = 0;   // sub: 0 = forever; put: 0 = 1 frame
  std::uint32_t interval_ms = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: gw_client <mode> [args] [--host H] [--port P] [--count N] "
               "[--interval-ms M]\n"
               "  put <sid/tag> <value>   send frames to the ingest port (default :7070)\n"
               "  sub <pattern>           tail deliveries from the stream port (default :7071)\n"
               "  get <sid/tag>           query the last-value cache (default :7072)\n"
               "  list | metrics          cache-port introspection\n");
  return 2;
}

bool parse_flags(int argc, char** argv, int first, Options& out) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--host" && has_value) {
      out.host = argv[++i];
    } else if (arg == "--port" && has_value) {
      out.port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--count" && has_value) {
      out.count = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--interval-ms" && has_value) {
      out.interval_ms = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return false;
    }
  }
  return true;
}

int connect_or_die(const Options& opt, std::uint16_t default_port) {
  const std::uint16_t port = opt.port ? opt.port : default_port;
  const int fd = gw_client::connect_tcp(opt.host, port);
  if (fd < 0) {
    std::fprintf(stderr, "gw_client: cannot connect to %s:%u\n", opt.host.c_str(), port);
    std::exit(1);
  }
  return fd;
}

int run_put(const Options& opt, const std::string& uri, double value) {
  const auto id = gw::parse_stream_uri(uri);
  if (!id) {
    std::fprintf(stderr, "gw_client: bad stream uri '%s' (want SID/TAG)\n", uri.c_str());
    return 2;
  }
  const int fd = connect_or_die(opt, 7070);
  const std::size_t frames = opt.count ? opt.count : 1;
  for (std::size_t i = 0; i < frames; ++i) {
    core::DataMessage msg;
    msg.stream_id = *id;
    msg.sequence = static_cast<core::SequenceNo>(i);
    util::ByteWriter payload(8);
    payload.f64(value + static_cast<double>(i));
    msg.payload = std::move(payload).take();
    if (!gw_client::send_all(fd, gw_client::frame_bytes(core::encode(msg)))) {
      std::fprintf(stderr, "gw_client: peer closed mid-send\n");
      ::close(fd);
      return 1;
    }
    if (opt.interval_ms > 0 && i + 1 < frames) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
    }
  }
  ::close(fd);
  std::printf("sent %zu frame(s) on %s\n", frames, uri.c_str());
  return 0;
}

int run_sub(const Options& opt, const std::string& pattern) {
  const int fd = connect_or_die(opt, 7071);
  if (!gw_client::send_all(fd, "SUB " + pattern + "\n")) return 1;
  const auto ack = gw_client::read_line(fd);
  if (!ack || ack->rfind("OK", 0) != 0) {
    std::fprintf(stderr, "gw_client: subscribe refused: %s\n", ack ? ack->c_str() : "(eof)");
    ::close(fd);
    return 1;
  }
  std::printf("%s; streaming...\n", ack->c_str());
  std::size_t received = 0;
  while (opt.count == 0 || received < opt.count) {
    auto frame = gw_client::read_frame(fd);
    if (!frame) break;
    // Socket bytes: re-verify the CRC the dispatcher computed.
    const auto delivery =
        core::decode_delivery_view(std::move(*frame), core::ChecksumPolicy::kVerify);
    if (!delivery.ok()) {
      std::fprintf(stderr, "gw_client: corrupt delivery frame\n");
      ::close(fd);
      return 1;
    }
    const auto& msg = delivery.value().message;
    double value = 0;
    util::ByteReader r(msg.payload);
    value = r.f64();
    std::printf("%-10s seq=%-6u %4zuB%s\n", msg.stream_id.to_string().c_str(), msg.sequence,
                msg.payload.size(), r.ok() ? (" value=" + std::to_string(value)).c_str() : "");
    ++received;
  }
  ::close(fd);
  std::printf("received %zu delivery frame(s)\n", received);
  return 0;
}

int run_get(const Options& opt, const std::string& uri) {
  const int fd = connect_or_die(opt, 7072);
  if (!gw_client::send_all(fd, "GET " + uri + "\n")) return 1;
  const auto reply = gw_client::read_line(fd);
  if (!reply) return 1;
  std::printf("%s\n", reply->c_str());
  if (reply->rfind("VALUE ", 0) == 0) {
    // VALUE <uri> <seq> <age_ms> <len>\n<len payload bytes>\n
    const std::size_t len = std::strtoul(reply->substr(reply->rfind(' ') + 1).c_str(), nullptr, 10);
    util::Bytes payload(len);
    if (!gw_client::read_exact(fd, payload.data(), len)) return 1;
    util::ByteReader r(payload);
    const double value = r.f64();
    if (r.ok()) {
      std::printf("  payload: %g\n", value);
    } else {
      std::printf("  payload: %zu opaque bytes\n", len);
    }
  }
  ::close(fd);
  return 0;
}

int run_cache_command(const Options& opt, const std::string& command) {
  const int fd = connect_or_die(opt, 7072);
  if (!gw_client::send_all(fd, command + "\n")) return 1;
  const auto header = gw_client::read_line(fd);
  if (!header) return 1;
  std::printf("%s\n", header->c_str());
  std::size_t body_lines = 0;
  if (header->rfind("STREAMS ", 0) == 0) {
    body_lines = std::strtoul(header->c_str() + 8, nullptr, 10);
    for (std::size_t i = 0; i < body_lines; ++i) {
      const auto line = gw_client::read_line(fd);
      if (!line) return 1;
      std::printf("%s\n", line->c_str());
    }
  } else if (header->rfind("METRICS ", 0) == 0) {
    const std::size_t len = std::strtoul(header->c_str() + 8, nullptr, 10);
    std::string text(len, '\0');
    if (!gw_client::read_exact(fd, reinterpret_cast<std::byte*>(text.data()), len)) return 1;
    std::fputs(text.c_str(), stdout);
  }
  ::close(fd);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options opt;

  if (mode == "put" && argc >= 4) {
    if (!parse_flags(argc, argv, 4, opt)) return usage();
    return run_put(opt, argv[2], std::strtod(argv[3], nullptr));
  }
  if (mode == "sub" && argc >= 3) {
    if (!parse_flags(argc, argv, 3, opt)) return usage();
    return run_sub(opt, argv[2]);
  }
  if (mode == "get" && argc >= 3) {
    if (!parse_flags(argc, argv, 3, opt)) return usage();
    return run_get(opt, argv[2]);
  }
  if (mode == "list" || mode == "metrics") {
    if (!parse_flags(argc, argv, 2, opt)) return usage();
    return run_cache_command(opt, mode == "list" ? "LIST" : "METRICS");
  }
  return usage();
}
