// Orphanage (paper §4.2).
//
// "The Orphanage is a default consumer process which receives
// un-configured data. There, data messages are analysed and potentially
// stored." The Dispatching Service routes every unclaimed message here.
// The Orphanage keeps a bounded backlog per stream plus simple analysis
// (arrival rate, payload size), and hands the backlog over when a real
// consumer belatedly subscribes — so data produced before anyone was
// listening is not lost.
#pragma once

#include <unordered_map>

#include "core/message.hpp"
#include "core/wire_types.hpp"
#include "net/rpc.hpp"
#include "util/ring_buffer.hpp"
#include "util/stats.hpp"

namespace garnet::core {

struct OrphanAnalysis {
  StreamId id;
  std::uint64_t messages = 0;
  std::uint64_t evicted = 0;           ///< Dropped when retention overflowed.
  util::SimTime first_seen;
  util::SimTime last_seen;
  double mean_payload_bytes = 0.0;
  double arrival_rate_hz = 0.0;        ///< messages / observed span.
};

class Orphanage {
 public:
  enum Method : net::MethodId {
    kFetchBacklog = 1,  ///< [u32 packed stream][u16 max] -> [u16 n][n deliveries]
  };

  static constexpr const char* kEndpointName = "garnet.orphanage";

  struct Config {
    std::size_t retention_per_stream = 64;
  };

  Orphanage(net::MessageBus& bus, Config config);

  /// Streams currently holding orphaned data.
  [[nodiscard]] std::vector<OrphanAnalysis> report() const;
  [[nodiscard]] const OrphanAnalysis* analysis(StreamId id) const;

  /// Removes and returns up to `max` retained deliveries of a stream,
  /// oldest first (claim handoff). Direct-call form of kFetchBacklog.
  /// The views hand over the retained wire buffers; no payload is copied.
  [[nodiscard]] std::vector<DeliveryView> claim(StreamId id, std::size_t max = SIZE_MAX);

  [[nodiscard]] net::Address address() const noexcept { return node_.address(); }
  [[nodiscard]] std::uint64_t total_received() const noexcept { return total_received_; }

 private:
  struct StreamStore {
    OrphanAnalysis analysis;
    /// Views keep the dispatch-time wire buffers alive; no payload copy
    /// happens on the retention path.
    util::RingBuffer<DeliveryView> backlog;
    util::Accumulator payload_bytes;
    explicit StreamStore(std::size_t retention) : backlog(retention) {}
  };

  void on_envelope(net::Envelope envelope);

  Config config_;
  net::RpcNode node_;
  std::unordered_map<StreamId, StreamStore> stores_;
  std::uint64_t total_received_ = 0;
};

}  // namespace garnet::core
