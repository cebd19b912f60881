#include "core/actuation.hpp"

#include "util/log.hpp"

namespace garnet::core {

ActuationService::ActuationService(net::MessageBus& bus, AuthService& auth,
                                   MessageReplicator& replicator, Config config)
    : bus_(bus),
      auth_(auth),
      replicator_(replicator),
      config_(config),
      node_(bus, kEndpointName) {
  node_.expose_async(kRequestUpdate, [this](net::Address, util::BytesView args,
                                            net::RpcResponder respond) {
    util::ByteReader r(args);
    const ConsumerToken token = r.u64();
    const StreamId target = StreamId::from_packed(r.u32());
    const auto action = static_cast<UpdateAction>(r.u8());
    const std::uint32_t value = r.u32();
    if (!r.ok()) {
      respond(util::Err{net::RpcError::kRemoteFailure});
      return;
    }

    // The response is deferred until the Resource Manager's deliberation
    // resolves (or immediately, if the Super Coordinator pre-armed it).
    request_update(token, target, action, value,
                   [respond = std::move(respond)](Outcome outcome) {
                     util::ByteWriter w(9);
                     w.u32(outcome.request_id);
                     w.u8(static_cast<std::uint8_t>(outcome.decision.admission));
                     w.u32(outcome.decision.effective_value);
                     respond(std::move(w).take());
                   });
  });
}

void ActuationService::request_update(ConsumerToken token, StreamId target, UpdateAction action,
                                      std::uint32_t value,
                                      std::function<void(Outcome)> on_outcome) {
  ++stats_.requests;

  const auto manager = bus_.lookup(ResourceManager::kEndpointName);
  if (!manager) {
    deny_unreachable(std::move(on_outcome));
    return;
  }

  util::ByteWriter w(17);
  w.u64(token);
  w.u32(target.packed());
  w.u8(static_cast<std::uint8_t>(action));
  w.u32(value);

  // Approval execution is guarded by the callee's at-most-once cache, so
  // a retried request never deliberates (or records a demand) twice.
  net::CallOptions options;
  options.timeout = config_.approval_timeout;
  options.retries = config_.approval_retries;
  options.backoff = config_.approval_backoff;
  node_.call(*manager, ResourceManager::kEvaluate, std::move(w).take(), options,
             [this, token, target, action, on_outcome = std::move(on_outcome)](
                 net::RpcResult result) mutable {
               if (!result.ok()) {
                 deny_unreachable(std::move(on_outcome));
                 return;
               }
               util::ByteReader r(result.value());
               Decision decision;
               decision.admission = static_cast<Admission>(r.u8());
               decision.effective_value = r.u32();
               Outcome outcome{0, decision};
               if (decision.admission == Admission::kDenied) {
                 ++stats_.denied;
               } else {
                 outcome.request_id = launch(token, target, action, decision.effective_value);
               }
               if (on_outcome) on_outcome(outcome);
             });
}

void ActuationService::deny_unreachable(std::function<void(Outcome)> on_outcome) {
  ++stats_.approval_unreachable;
  ++stats_.denied;
  util::log_warn("actuation", "resource manager unreachable; denying request at t=%.3fs",
                 bus_.scheduler().now().to_seconds());
  if (on_outcome) {
    on_outcome(Outcome{0, Decision{Admission::kDenied, 0, "resource manager unreachable"}});
  }
}

std::uint32_t ActuationService::launch(ConsumerToken, StreamId target, UpdateAction action,
                                       std::uint32_t effective_value) {
  const std::uint32_t request_id = next_request_id_++;

  StreamUpdateRequest request;
  request.request_id = request_id;
  request.target = target;
  request.action = action;
  request.value = effective_value;
  request.issued_at = bus_.scheduler().now();  // the paper's timestamping step

  PendingRequest pending;
  pending.sensor = target.sensor;
  pending.issued_at = request.issued_at;
  pending.retries_left = config_.max_retries;
  pending.frame = encode(request);  // the paper's checksumming step (CRC trailer)
  pending.trace_key = obs::TraceKey{target.packed(), static_cast<std::uint16_t>(request_id),
                                    obs::TraceKey::kActuation};
  if (tracer_ != nullptr) {
    tracer_->begin_span(pending.trace_key, "actuation", pending.issued_at.ns);
  }
  pending_.emplace(request_id, std::move(pending));

  transmit(request_id);
  return request_id;
}

void ActuationService::transmit(std::uint32_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PendingRequest& pending = it->second;

  ++stats_.sent;
  replicator_.send(pending.sensor, pending.frame);
  pending.timer = bus_.scheduler().schedule_after(config_.ack_timeout,
                                                  [this, request_id] { on_timeout(request_id); });
}

void ActuationService::on_timeout(std::uint32_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PendingRequest& pending = it->second;

  if (pending.retries_left > 0) {
    --pending.retries_left;
    ++stats_.retries;
    transmit(request_id);
    return;
  }

  ++stats_.expired;
  const util::Duration latency = bus_.scheduler().now() - pending.issued_at;
  if (tracer_ != nullptr) tracer_->discard(pending.trace_key);
  pending_.erase(it);
  if (completion_observer_) completion_observer_(request_id, false, latency);
}

void ActuationService::on_ack(std::uint32_t request_id, SensorId sensor,
                              util::SimTime observed_at) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // duplicate or unsolicited ack
  if (it->second.sensor != sensor) return;

  ++stats_.acked;
  const util::Duration latency = observed_at - it->second.issued_at;
  bus_.scheduler().cancel(it->second.timer);
  if (tracer_ != nullptr) tracer_->complete(it->second.trace_key, observed_at.ns, "actuation");
  pending_.erase(it);
  if (completion_observer_) completion_observer_(request_id, true, latency);
}

}  // namespace garnet::core
