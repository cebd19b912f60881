#include "core/orphanage.hpp"

namespace garnet::core {

Orphanage::Orphanage(net::MessageBus& bus, Config config)
    : config_(config),
      node_(bus, kEndpointName, [this](net::Envelope e) { on_envelope(std::move(e)); }) {
  node_.expose(kFetchBacklog, [this](net::Address, util::BytesView args) -> net::RpcResult {
    util::ByteReader r(args);
    const StreamId id = StreamId::from_packed(r.u32());
    const std::uint16_t max = r.u16();
    if (!r.ok()) return util::Err{net::RpcError::kRemoteFailure};

    // The retained views still hold the original delivery frames, so the
    // backlog reply is framed straight from those buffers — no re-encode.
    const std::vector<DeliveryView> backlog = claim(id, max);
    util::ByteWriter w;
    w.u16(static_cast<std::uint16_t>(backlog.size()));
    for (const DeliveryView& delivery : backlog) {
      w.u16(static_cast<std::uint16_t>(delivery.wire.size()));
      w.raw(delivery.wire);
    }
    return std::move(w).take();
  });
}

void Orphanage::on_envelope(net::Envelope envelope) {
  if (envelope.type != kDataDelivery) return;
  auto decoded = decode_delivery_view(envelope.payload);
  if (!decoded.ok()) return;
  const DeliveryView& delivery = decoded.value();

  ++total_received_;
  auto [it, inserted] =
      stores_.try_emplace(delivery.message.stream_id, config_.retention_per_stream);
  StreamStore& store = it->second;
  OrphanAnalysis& analysis = store.analysis;

  if (inserted) {
    analysis.id = delivery.message.stream_id;
    analysis.first_seen = delivery.first_heard;
  }
  analysis.last_seen = delivery.first_heard;
  ++analysis.messages;
  store.payload_bytes.add(static_cast<double>(delivery.message.payload.size()));
  analysis.mean_payload_bytes = store.payload_bytes.mean();
  const double span_s = (analysis.last_seen - analysis.first_seen).to_seconds();
  analysis.arrival_rate_hz =
      span_s > 0 ? static_cast<double>(analysis.messages - 1) / span_s : 0.0;

  if (store.backlog.push(std::move(decoded).value())) ++analysis.evicted;
}

std::vector<OrphanAnalysis> Orphanage::report() const {
  std::vector<OrphanAnalysis> out;
  out.reserve(stores_.size());
  for (const auto& [id, store] : stores_) out.push_back(store.analysis);
  return out;
}

const OrphanAnalysis* Orphanage::analysis(StreamId id) const {
  const auto it = stores_.find(id);
  return it == stores_.end() ? nullptr : &it->second.analysis;
}

std::vector<DeliveryView> Orphanage::claim(StreamId id, std::size_t max) {
  std::vector<DeliveryView> out;
  const auto it = stores_.find(id);
  if (it == stores_.end()) return out;
  util::RingBuffer<DeliveryView>& backlog = it->second.backlog;
  while (!backlog.empty() && out.size() < max) {
    out.push_back(std::move(backlog.front()));
    backlog.pop();
  }
  return out;
}

}  // namespace garnet::core
