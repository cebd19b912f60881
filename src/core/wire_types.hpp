// Inter-service message types and payload codecs on the fixed network.
//
// The middleware services are "logically separate and distinct entities"
// (paper §3); they exchange serialised payloads over net::MessageBus.
// This header centralises the type tags and the small codecs so a reader
// can see the whole fixed-network protocol in one place.
#pragma once

#include <cstdint>
#include <optional>

#include "core/message.hpp"
#include "net/bus.hpp"
#include "util/time.hpp"

namespace garnet::core {

/// Application message types (above net::MessageType::kAppBase).
inline constexpr net::MessageType kDataDelivery = net::app_type(0);
inline constexpr net::MessageType kStateChange = net::app_type(1);
inline constexpr net::MessageType kLocationHint = net::app_type(2);
inline constexpr net::MessageType kDerivedPublish = net::app_type(3);
inline constexpr net::MessageType kLocationStream = net::app_type(4);
/// Consumer -> dispatcher credit replenishment (flow control). Payload:
/// [u32 credits]. Registered as control-plane class by the runtime so a
/// data flood cannot shed the very acks that would relieve it.
inline constexpr net::MessageType kDeliveryCredit = net::app_type(5);
/// Primary -> recovery replica checkpoint replication. Payload:
/// [str service][u64 lsn watermark][u32 len][core/checkpoint frame].
/// Control-plane class: a data flood must not shed the standby's state.
inline constexpr net::MessageType kCheckpointReplica = net::app_type(6);
/// Primary -> recovery replica op-log replication. Payload:
/// [str service][u64 lsn][u16 op kind][u16 len][op bytes].
inline constexpr net::MessageType kOpLogRecord = net::app_type(7);

/// A data message as delivered to a subscribed consumer, carrying the
/// time the fixed network first heard it (for end-to-end latency). The
/// message payload aliases the wire buffer it arrived in, and the `wire`
/// handle keeps that buffer alive, so a DeliveryView is self-contained:
/// it may be stored (orphanage ring, recordings, pending queues) without
/// copying payload bytes, and N consumers of one dispatch all alias the
/// same allocation. message.to_owned() is the one (counted) escape.
struct DeliveryView {
  DataMessageView message;
  util::SimTime first_heard;
  /// The delivery's wire buffer; message.payload points into it.
  util::SharedBytes wire;
};

/// Encodes a delivery frame (i64 first-heard prefix + Figure-2 message)
/// in one exact allocation, returning the shared buffer that fan-out
/// posts, fault duplicates, and consumer views all alias.
[[nodiscard]] util::SharedBytes encode_delivery(const DataMessageView& message,
                                               util::SimTime first_heard);

/// Zero-copy parse of a delivery frame: the returned view's payload
/// aliases `wire`, which the view retains. Delivery frames are encoded
/// in-process by the dispatcher and never cross a corrupting medium, so
/// bus consumers default to trusting the encode-time checksum ("verify
/// once") instead of re-hashing the shared buffer per subscriber. Frames
/// read from a socket (gateway egress) must pass ChecksumPolicy::kVerify.
[[nodiscard]] util::Result<DeliveryView, util::DecodeError> decode_delivery_view(
    util::SharedBytes wire, ChecksumPolicy policy = ChecksumPolicy::kTrusted);

/// Consumer state-change report for the Super Coordinator (paper §4.2:
/// "Suitably sophisticated consumer processes may forward state-change
/// details to the Super Coordinator").
struct StateChange {
  std::uint64_t consumer_token = 0;
  std::uint32_t state = 0;
};

[[nodiscard]] util::Bytes encode(const StateChange& change);
[[nodiscard]] util::Result<StateChange, util::DecodeError> decode_state_change(
    util::BytesView wire);

/// Application-supplied location hint (paper §5: "we allow consumer
/// processes to provide location hints instead").
struct LocationHint {
  SensorId sensor = 0;
  double x = 0.0;
  double y = 0.0;
  double radius_m = 50.0;
};

[[nodiscard]] util::Bytes encode(const LocationHint& hint);
[[nodiscard]] util::Result<LocationHint, util::DecodeError> decode_location_hint(
    util::BytesView wire);

}  // namespace garnet::core
