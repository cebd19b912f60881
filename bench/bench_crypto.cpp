// Experiment E10 — end-to-end encryption overhead.
//
// Paper §9 names "a high-level abstraction of data streams supporting
// end-to-end encryption" among Garnet's novel features, enabled by the
// opaque payload (§4.3). The middleware cost is identical either way (it
// never interprets payloads); the *endpoint* cost is what a producer and
// consumer pay to seal and open. Reported: raw cipher throughput, sealed
// vs plain codec pipeline cost per message, and the constant 16-byte
// size overhead. Expected shape: ChaCha20-Poly1305 runs at hundreds of
// MB/s even scalar; per-message overhead is dominated by fixed costs for
// sensor-sized payloads.
#include "bench/common.hpp"
#include "crypto/sealed.hpp"

namespace garnet::bench {
namespace {

void BM_Seal(benchmark::State& state) {
  util::Rng rng(1);
  const auto size = static_cast<std::size_t>(state.range(0));
  const util::Bytes payload = random_payload(rng, size);
  const crypto::Key key = crypto::key_from_seed(7);

  std::uint64_t counter = 0;
  for (auto _ : state) {
    const util::Bytes sealed = crypto::seal(key, crypto::nonce_from_counter(++counter), payload);
    benchmark::DoNotOptimize(sealed.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * size));
  state.counters["size_overhead_bytes"] = static_cast<double>(crypto::kSealOverhead);
}
BENCHMARK(BM_Seal)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192)->Arg(65535);

void BM_Open(benchmark::State& state) {
  util::Rng rng(2);
  const auto size = static_cast<std::size_t>(state.range(0));
  const crypto::Key key = crypto::key_from_seed(7);
  const crypto::Nonce nonce = crypto::nonce_from_counter(9);
  const util::Bytes sealed = crypto::seal(key, nonce, random_payload(rng, size));

  for (auto _ : state) {
    const auto opened = crypto::open(key, nonce, sealed);
    benchmark::DoNotOptimize(&opened);
    if (!opened.ok()) state.SkipWithError("open failed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * size));
}
BENCHMARK(BM_Open)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192)->Arg(65535);

/// Producer-to-consumer message cost, plain: encode + decode only.
void BM_PipelinePlain(benchmark::State& state) {
  util::Rng rng(3);
  const auto size = static_cast<std::size_t>(state.range(0));
  core::DataMessage msg = make_message(rng, size);

  for (auto _ : state) {
    const util::Bytes wire = core::encode(msg);
    const auto decoded = core::decode_view(wire);
    benchmark::DoNotOptimize(&decoded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelinePlain)->Arg(8)->Arg(64)->Arg(1024);

/// Producer-to-consumer message cost, sealed: seal + encode + decode +
/// open. The delta against BM_PipelinePlain is E10's headline number.
void BM_PipelineSealed(benchmark::State& state) {
  util::Rng rng(4);
  const auto size = static_cast<std::size_t>(state.range(0));
  const crypto::Key key = crypto::key_from_seed(11);
  const util::Bytes reading = random_payload(rng, size);
  core::DataMessage msg = make_message(rng, 0);
  msg.header.set(core::HeaderFlag::kEncrypted);

  std::uint64_t nonce_counter = 0;
  for (auto _ : state) {
    const crypto::Nonce nonce = crypto::nonce_from_counter(++nonce_counter);
    msg.payload = crypto::seal(key, nonce, reading);  // producer
    const util::Bytes wire = core::encode(msg);       // sensor radio + fixed net
    const auto decoded = core::decode_view(wire);     // filtering
    if (!decoded.ok()) state.SkipWithError("decode failed");
    const auto opened = crypto::open(key, nonce, decoded.value().payload);  // consumer
    benchmark::DoNotOptimize(&opened);
    if (!opened.ok()) state.SkipWithError("open failed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["wire_overhead_bytes"] = static_cast<double>(crypto::kSealOverhead);
}
BENCHMARK(BM_PipelineSealed)->Arg(8)->Arg(64)->Arg(1024);

/// Tamper-rejection cost: what the consumer pays to throw away a frame
/// the (untrusted) middleware corrupted.
void BM_OpenReject(benchmark::State& state) {
  util::Rng rng(5);
  const crypto::Key key = crypto::key_from_seed(13);
  const crypto::Nonce nonce = crypto::nonce_from_counter(1);
  util::Bytes sealed = crypto::seal(key, nonce, random_payload(rng, 64));
  sealed[10] ^= std::byte{0x01};

  for (auto _ : state) {
    const auto opened = crypto::open(key, nonce, sealed);
    benchmark::DoNotOptimize(&opened);
    if (opened.ok()) state.SkipWithError("tampered frame accepted");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OpenReject);

}  // namespace
}  // namespace garnet::bench

BENCHMARK_MAIN();
