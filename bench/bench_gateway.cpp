// Gateway fan-out sweep — subscriber count x payload size.
//
// Drives a full gateway (ingest framing -> runtime injection -> dispatch
// -> per-connection outboxes -> writev) over the deterministic loopback
// transport and reports the egress rate, the zero-copy accounting per
// message, and the shed counters. One cell also carries a slow reader
// (write window pinned to zero) so the bounded-outbox shedding path runs
// under pressure. The harshest cell's telemetry snapshot is persisted to
// BENCH_gateway.json; scripts/ci.sh gates on it — zero corrupt
// deliveries on the wire, zero control-frame shed, and the last-value
// cache serving the newest sample.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/wire_types.hpp"
#include "garnet/runtime.hpp"
#include "gw/framing.hpp"
#include "gw/gateway.hpp"
#include "gw/transport.hpp"
#include "obs/export.hpp"
#include "util/shared_bytes.hpp"

namespace garnet::bench {
namespace {

using gw::ConnId;
using gw::Listener;
using util::Duration;

struct GatewayOutcome {
  double messages_offered = 0;
  double frames_delivered = 0;
  double corrupt_deliveries = 0;
  double bytes_egressed = 0;
  double data_sheds = 0;
  double control_sheds = 0;
  double allocs_per_message = 0;
  double copies_per_message = 0;
  double cache_serves_latest = 0;
};

util::Bytes framed(const core::DataMessage& msg) {
  const util::Bytes body = core::encode(msg);
  util::Bytes out(gw::kLengthPrefixBytes);
  gw::put_length_prefix(static_cast<std::uint32_t>(body.size()), out.data());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

util::Bytes line_bytes(std::string_view text) {
  util::Bytes out(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) out[i] = static_cast<std::byte>(text[i]);
  return out;
}

/// One full gateway run: `subscribers` fan-out connections plus one
/// frozen reader, `messages` ingested frames of `payload_bytes` each.
GatewayOutcome run_gateway(int subscribers, std::size_t payload_bytes, int messages,
                           std::string* json_out = nullptr) {
  Runtime runtime;
  gw::LoopbackTransport transport;
  gw::GatewayConfig config;
  config.outbox_frames = 16;  // < messages, so the frozen reader must shed
  gw::Gateway gateway(runtime, transport, config);
  gateway.step(Duration::millis(20));

  const ConnId producer = transport.connect(Listener::kIngest);
  std::vector<ConnId> subs;
  for (int i = 0; i < subscribers; ++i) {
    const ConnId conn = transport.connect(Listener::kStream);
    transport.peer_send(conn, line_bytes("SUB 1/*\n"));
    subs.push_back(conn);
  }
  // The frozen reader subscribes like everyone else but its write
  // window never opens: every data frame beyond the outbox bound must
  // be shed for it, and only for it.
  const ConnId frozen = transport.connect(Listener::kStream);
  transport.peer_send(frozen, line_bytes("SUB 1/*\n"));
  gateway.step(Duration::millis(10));
  transport.set_write_window(frozen, 0);
  // Drain the "OK SUB" acks: they are line text, not length-prefixed
  // frames, and everything after them on the wire must frame exactly.
  for (const ConnId conn : subs) (void)transport.peer_take(conn);

  util::Rng rng(0x9A7E);
  util::Bytes wire;
  for (int seq = 0; seq < messages; ++seq) {
    core::DataMessage msg;
    msg.stream_id = {1, 0};
    msg.sequence = static_cast<core::SequenceNo>(seq);
    msg.payload = random_payload(rng, payload_bytes);
    const util::Bytes one = framed(msg);
    wire.insert(wire.end(), one.begin(), one.end());
  }

  const util::PayloadStats before = util::payload_stats();
  transport.peer_send(producer, wire);
  GatewayOutcome outcome;
  outcome.messages_offered = messages;
  for (int spin = 0; spin < messages + 50; ++spin) {
    gateway.step(Duration::millis(2));
    if (gateway.stats().egress_frames >=
        static_cast<std::uint64_t>(messages) * static_cast<std::uint64_t>(subscribers)) {
      break;
    }
  }
  const util::PayloadStats after = util::payload_stats();

  // The sim bus jitters per-envelope latency, so deliveries reach the
  // gateway out of order; "latest" in the cache means latest *arrival*.
  // Every subscriber sees the same arrival order, so the tail of any
  // subscriber's stream is the sequence the cache must be holding.
  core::SequenceNo newest_arrival = 0;
  for (const ConnId conn : subs) {
    gw::FrameAssembler assembler;
    const util::Bytes received = transport.peer_take(conn);
    if (!assembler.push(received)) {
      outcome.corrupt_deliveries += 1;
      continue;
    }
    // Decode every delivery frame with the full checksum walk —
    // corruption anywhere on the egress path shows up here.
    while (const auto frame = assembler.frame()) {
      const auto decoded = core::decode_delivery_view(util::SharedBytes::copy_of(*frame),
                                                      core::ChecksumPolicy::kVerify);
      if (decoded.ok()) {
        newest_arrival = decoded.value().message.sequence;
      } else {
        outcome.corrupt_deliveries += 1;
      }
      outcome.frames_delivered += 1;
      assembler.pop();
    }
    if (assembler.poisoned() || assembler.buffered() > 0) outcome.corrupt_deliveries += 1;
  }
  outcome.bytes_egressed = static_cast<double>(gateway.stats().egress_bytes);
  outcome.data_sheds = static_cast<double>(gateway.stats().shed.data_total());
  outcome.control_sheds = static_cast<double>(gateway.stats().shed.control_total());
  if (messages > 0) {
    outcome.allocs_per_message =
        static_cast<double>(after.allocations - before.allocations) / messages;
    outcome.copies_per_message = static_cast<double>(after.copies - before.copies) / messages;
  }

  // The cache must answer with the newest sequence over the wire.
  const ConnId reader = transport.connect(Listener::kCache);
  gateway.step(Duration::millis(5));
  transport.peer_send(reader, line_bytes("GET 1/0\n"));
  gateway.step(Duration::millis(5));
  const util::Bytes reply = transport.peer_take(reader);
  const std::string expect = "VALUE 1/0 " + std::to_string(newest_arrival) + " ";
  const std::string got(reinterpret_cast<const char*>(reply.data()), reply.size());
  outcome.cache_serves_latest = got.rfind(expect, 0) == 0 ? 1 : 0;

  if (json_out != nullptr) {
    obs::MetricsRegistry& registry = runtime.telemetry().registry;
    registry.add_collector([&outcome](obs::SnapshotBuilder& out) {
      out.gauge("bench.gateway.messages_offered", outcome.messages_offered);
      out.gauge("bench.gateway.frames_delivered", outcome.frames_delivered);
      out.gauge("bench.gateway.corrupt_deliveries", outcome.corrupt_deliveries);
      out.gauge("bench.gateway.data_sheds", outcome.data_sheds);
      out.gauge("bench.gateway.allocs_per_message", outcome.allocs_per_message);
      out.gauge("bench.gateway.copies_per_message", outcome.copies_per_message);
      out.gauge("bench.gateway.cache_serves_latest", outcome.cache_serves_latest);
    });
    *json_out = obs::render_json(registry.snapshot());
  }
  return outcome;
}

/// Args: fan-out subscriber count; payload bytes per message.
void BM_GatewayFanOut(benchmark::State& state) {
  const int subscribers = static_cast<int>(state.range(0));
  const auto payload_bytes = static_cast<std::size_t>(state.range(1));
  constexpr int kMessages = 64;

  GatewayOutcome outcome;
  for (auto _ : state) {
    outcome = run_gateway(subscribers, payload_bytes, kMessages);
    benchmark::DoNotOptimize(&outcome);
  }
  state.SetItemsProcessed(state.iterations() * kMessages * subscribers);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(outcome.bytes_egressed));
  state.counters["frames_delivered"] = outcome.frames_delivered;
  state.counters["corrupt"] = outcome.corrupt_deliveries;
  state.counters["data_sheds"] = outcome.data_sheds;
  state.counters["control_sheds"] = outcome.control_sheds;
  state.counters["allocs_per_msg"] = outcome.allocs_per_message;
  state.counters["copies_per_msg"] = outcome.copies_per_message;
  state.counters["cache_latest"] = outcome.cache_serves_latest;

  // Machine-readable exposition for the harshest cell: widest fan-out,
  // largest payload. scripts/ci.sh gates on it.
  if (subscribers == 32 && payload_bytes == 32768) {
    std::string json;
    run_gateway(subscribers, payload_bytes, kMessages, &json);
    write_bench_report("gateway", json);
  }
}
BENCHMARK(BM_GatewayFanOut)
    ->ArgsProduct({{1, 8, 32}, {16, 1024, 32768}})
    ->ArgNames({"subs", "payload"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
