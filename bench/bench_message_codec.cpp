// Experiment E1 — Figure 2 wire format cost.
//
// The paper claims a compact fixed 72-bit header supporting 16.7M
// sensors / 256 streams / 64K sequences / 64K payloads. This bench
// reports encode and decode throughput across payload sizes (8B sensor
// readings up to the 64KB maximum) plus the per-message header overhead,
// quantifying what the fixed format costs the fixed-network side.
#include "bench/common.hpp"
#include "core/stream_update.hpp"

namespace garnet::bench {
namespace {

void BM_Encode(benchmark::State& state) {
  util::Rng rng(1);
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const core::DataMessage msg = make_message(rng, payload_size);

  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    const util::Bytes wire = core::encode(msg);
    benchmark::DoNotOptimize(wire.data());
    wire_bytes = wire.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * wire_bytes));
  state.counters["header_overhead_bytes"] =
      static_cast<double>(wire_bytes - payload_size);
}
BENCHMARK(BM_Encode)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192)->Arg(65535);

void BM_Decode(benchmark::State& state) {
  util::Rng rng(2);
  const auto payload_size = static_cast<std::size_t>(state.range(0));
  const util::Bytes wire = core::encode(make_message(rng, payload_size));

  for (auto _ : state) {
    const auto decoded = core::decode_view(wire);
    benchmark::DoNotOptimize(&decoded);
    if (!decoded.ok()) state.SkipWithError("decode failed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * wire.size()));
}
BENCHMARK(BM_Decode)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192)->Arg(65535);

void BM_EncodeWithAckExtension(benchmark::State& state) {
  util::Rng rng(3);
  core::DataMessage msg = make_message(rng, 64);
  msg.header.set(core::HeaderFlag::kAckPresent);
  msg.ack_request_id = 7;
  for (auto _ : state) {
    const util::Bytes wire = core::encode(msg);
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EncodeWithAckExtension);

void BM_DecodeRejectCorrupt(benchmark::State& state) {
  // Checksum rejection cost: the filter pays this for every corrupt copy.
  util::Rng rng(4);
  util::Bytes wire = core::encode(make_message(rng, 64));
  wire[wire.size() / 2] ^= std::byte{0x01};
  for (auto _ : state) {
    const auto decoded = core::decode_view(wire);
    benchmark::DoNotOptimize(&decoded);
    if (decoded.ok()) state.SkipWithError("corrupt frame accepted");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodeRejectCorrupt);

void BM_RoundTripStreamUpdate(benchmark::State& state) {
  core::StreamUpdateRequest request;
  request.request_id = 1;
  request.target = {1234, 5};
  request.action = core::UpdateAction::kSetIntervalMs;
  request.value = 250;
  for (auto _ : state) {
    const util::Bytes wire = core::encode(request);
    const auto decoded = core::decode_update(wire);
    benchmark::DoNotOptimize(&decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["control_frame_bytes"] =
      static_cast<double>(core::StreamUpdateRequest::wire_size());
}
BENCHMARK(BM_RoundTripStreamUpdate);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
