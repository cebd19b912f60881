#include "core/consumer.hpp"

#include <cassert>

#include "core/catalog_service.hpp"
#include "core/coordinator.hpp"
#include "core/location.hpp"

namespace garnet::core {

Consumer::Consumer(net::MessageBus& bus, std::string endpoint_name)
    : bus_(bus),
      name_(endpoint_name),
      node_(bus, std::move(endpoint_name), [this](net::Envelope e) { on_envelope(std::move(e)); }) {}

Consumer::~Consumer() {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
}

void Consumer::set_metrics(obs::MetricsRegistry& registry) {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
  metrics_ = &registry;
  collector_id_ = registry.add_collector([this](obs::SnapshotBuilder& out) { collect(out); });
}

void Consumer::collect(obs::SnapshotBuilder& out) const {
  const obs::Labels who{{"consumer", name_}};
  out.counter("garnet.consumer.rpc_failures", net_stats_.subscribe_failures,
              {{"consumer", name_}, {"op", "subscribe"}});
  out.counter("garnet.consumer.rpc_failures", net_stats_.unsubscribe_failures,
              {{"consumer", name_}, {"op", "unsubscribe"}});
  out.counter("garnet.consumer.rpc_failures", net_stats_.update_failures,
              {{"consumer", name_}, {"op", "update"}});
  out.counter("garnet.consumer.rpc_failures", net_stats_.catalog_failures,
              {{"consumer", name_}, {"op", "catalog"}});
  out.counter("garnet.consumer.received", received_, who);
  out.counter("garnet.consumer.credit_acks", credit_acks_, who);
}

net::Address Consumer::resolve(const char* name) {
  const auto address = bus_.lookup(name);
  assert(address && "middleware service endpoint not found on bus");
  return *address;
}

net::CallOptions Consumer::options_for(bool idempotent) const {
  net::CallOptions options = default_call_options();
  options.idempotent = idempotent;
  return options;
}

void Consumer::on_envelope(net::Envelope envelope) {
  if (envelope.type != kDataDelivery) return;
  // The envelope is ours: the view takes over its payload reference.
  const auto decoded = decode_delivery_view(std::move(envelope.payload));
  if (!decoded.ok()) return;
  ++received_;
  if (tracer_ != nullptr) {
    // The first consumer to receive a copy closes "deliver" and completes
    // the journey; for later copies the trace is already in the flight
    // recorder, so this is one index probe that finds nothing.
    const DataMessageView& message = decoded.value().message;
    const obs::TraceKey trace_key{message.stream_id.packed(), message.sequence};
    tracer_->complete(trace_key, bus_.now().ns, "deliver");
  }
  if (data_handler_) data_handler_(decoded.value());
  // The ack rides *behind* the handler: under flow control the credit
  // returns to the dispatcher only once this delivery is processed, so a
  // slow consumer's window drains at its true consumption rate.
  if (credit_window_ > 0) send_credit();
}

void Consumer::send_credit() {
  ++credit_acks_;
  util::ByteWriter w(4);
  w.u32(1);
  node_.post(resolve(DispatchingService::kEndpointName), kDeliveryCredit,
             util::take_shared(std::move(w)));
}

void Consumer::subscribe(StreamPattern pattern, SubscribeCallback on_done) {
  subscribe(pattern, SubscribeOptions{}, std::move(on_done));
}

void Consumer::subscribe(StreamPattern pattern, SubscribeOptions qos, SubscribeCallback on_done) {
  util::ByteWriter w(24);
  w.u64(identity_.token);
  w.u64(pattern.packed());
  w.u32(qos.min_interval_ms);
  w.u32(qos.max_age_ms);
  // Not idempotent: re-executing would create a second subscription, so
  // retries lean on the dispatcher's at-most-once cache.
  node_.call(resolve(DispatchingService::kEndpointName), DispatchingService::kSubscribe,
             std::move(w).take(), options_for(/*idempotent=*/false),
             [this, on_done = std::move(on_done)](net::RpcResult result) {
               if (!result.ok()) {
                 ++net_stats_.subscribe_failures;
                 if (on_done) on_done(util::Err{result.error()});
                 return;
               }
               util::ByteReader r(result.value());
               const auto id = SubscriptionId{r.u64()};
               // Flow-control window granted by the dispatcher (absent in
               // pre-flow-control replies; 0 means disabled either way).
               if (r.remaining() >= 4) credit_window_ = r.u32();
               if (on_done) on_done(id);
             });
}

void Consumer::unsubscribe(SubscriptionId id) {
  util::ByteWriter w(16);
  w.u64(identity_.token);
  w.u64(id);
  node_.call(resolve(DispatchingService::kEndpointName), DispatchingService::kUnsubscribe,
             std::move(w).take(), options_for(/*idempotent=*/true), [this](net::RpcResult result) {
               if (!result.ok()) ++net_stats_.unsubscribe_failures;
             });
}

void Consumer::publish_derived(StreamId id, util::BytesView payload, std::uint8_t extra_flags) {
  assert(id.sensor >= kDerivedSensorBase && "derived streams use the reserved id range");
  DataMessageView message;
  message.header.flags = extra_flags;
  message.header.set(HeaderFlag::kDerived);
  message.stream_id = id;
  message.sequence = derived_sequences_[id.packed()]++;
  message.payload = payload;
  util::ByteWriter w(message.wire_size());
  encode_into(w, message);
  node_.post(resolve(DispatchingService::kEndpointName), kDerivedPublish,
             util::take_shared(std::move(w)));
}

void Consumer::request_update(StreamId target, UpdateAction action, std::uint32_t value,
                              UpdateCallback on_done) {
  util::ByteWriter w(17);
  w.u64(identity_.token);
  w.u32(target.packed());
  w.u8(static_cast<std::uint8_t>(action));
  w.u32(value);
  // An actuation demand must execute at most once — a retried duplicate
  // would reach the sensor twice — so it is never marked idempotent.
  node_.call(resolve(ActuationService::kEndpointName), ActuationService::kRequestUpdate,
             std::move(w).take(), options_for(/*idempotent=*/false),
             [this, on_done = std::move(on_done)](net::RpcResult result) {
               if (!result.ok()) {
                 ++net_stats_.update_failures;
                 if (on_done) on_done(0, Admission::kDenied, 0);
                 return;
               }
               if (!on_done) return;
               util::ByteReader r(result.value());
               const std::uint32_t request_id = r.u32();
               const auto admission = static_cast<Admission>(r.u8());
               const std::uint32_t effective = r.u32();
               on_done(request_id, admission, effective);
             });
}

void Consumer::report_state(std::uint32_t state) {
  node_.post(resolve(SuperCoordinator::kEndpointName), kStateChange,
             encode(StateChange{identity_.token, state}));
}

void Consumer::send_location_hint(const LocationHint& hint) {
  util::ByteWriter w(8 + 27);
  w.u64(identity_.token);
  w.raw(encode(hint));
  node_.post(resolve(LocationService::kEndpointName), kLocationHint, std::move(w).take());
}

void Consumer::discover(const DiscoveryQuery& query, DiscoverCallback on_done) {
  util::ByteWriter w;
  w.u32(query.sensor ? *query.sensor : 0xFFFFFFFFu);
  w.str(query.stream_class);
  w.u8(query.include_unadvertised ? 1 : 0);
  node_.call(resolve(CatalogService::kEndpointName), CatalogService::kDiscover,
             std::move(w).take(), options_for(/*idempotent=*/true),
             [this, on_done = std::move(on_done)](net::RpcResult result) {
               if (!result.ok()) {
                 ++net_stats_.catalog_failures;
                 if (on_done) on_done({});
                 return;
               }
               if (on_done) on_done(decode_discover_reply(result.value()));
             });
}

void Consumer::advertise(StreamId id, const std::string& name, const std::string& stream_class) {
  util::ByteWriter w;
  w.u64(identity_.token);
  w.u32(id.packed());
  w.str(name);
  w.str(stream_class);
  // Re-advertising the same stream overwrites the same entry: idempotent.
  node_.call(resolve(CatalogService::kEndpointName), CatalogService::kAdvertise,
             std::move(w).take(), options_for(/*idempotent=*/true), [this](net::RpcResult result) {
               if (!result.ok()) ++net_stats_.catalog_failures;
             });
}

void Consumer::allocate_derived_stream(AllocateCallback on_done) {
  util::ByteWriter w(8);
  w.u64(identity_.token);
  // Not idempotent: each execution burns a fresh id from the catalog.
  node_.call(resolve(CatalogService::kEndpointName), CatalogService::kAllocateDerived,
             std::move(w).take(), options_for(/*idempotent=*/false),
             [this, on_done = std::move(on_done)](net::RpcResult result) {
               if (!result.ok()) {
                 ++net_stats_.catalog_failures;
                 if (on_done) on_done(util::Err{result.error()});
                 return;
               }
               if (!on_done) return;
               util::ByteReader r(result.value());
               on_done(StreamId::from_packed(r.u32()));
             });
}

}  // namespace garnet::core
