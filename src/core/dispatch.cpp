#include "core/dispatch.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace garnet::core {

DispatchStats& DispatchStats::operator+=(const DispatchStats& other) noexcept {
  messages_in += other.messages_in;
  derived_in += other.derived_in;
  copies_delivered += other.copies_delivered;
  orphaned += other.orphaned;
  acks_observed += other.acks_observed;
  rejected_publishes += other.rejected_publishes;
  credits_exhausted += other.credits_exhausted;
  quarantines += other.quarantines;
  quarantine_sheds += other.quarantine_sheds;
  credit_acks += other.credit_acks;
  resume_redelivered += other.resume_redelivered;
  resume_discarded += other.resume_discarded;
  resume_missing += other.resume_missing;
  return *this;
}

DispatchingService::DispatchingService(net::MessageBus& bus, AuthService& auth,
                                       StreamCatalog& catalog)
    : bus_(bus),
      auth_(auth),
      catalog_(catalog),
      node_(bus, kEndpointName, [this](net::Envelope e) { on_envelope(std::move(e)); }) {
  node_.expose(kSubscribe, [this](net::Address, util::BytesView args) -> net::RpcResult {
    util::ByteReader r(args);
    const ConsumerToken token = r.u64();
    const auto pattern = StreamPattern::from_packed(r.u64());
    if (!r.ok()) return util::Err{net::RpcError::kRemoteFailure};

    SubscribeOptions qos;
    if (r.remaining() >= 8) {
      qos.min_interval_ms = r.u32();
      qos.max_age_ms = r.u32();
    }

    const auto identity = auth_.verify(token);
    if (!identity) return util::Err{net::RpcError::kRemoteFailure};

    const SubscriptionId id = subscribe(identity->address, pattern, qos);
    util::ByteWriter w(12);
    w.u64(id);
    w.u32(flow_.credit_window);  // 0 = flow control disabled
    return std::move(w).take();
  });

  node_.expose(kUnsubscribe, [this](net::Address, util::BytesView args) -> net::RpcResult {
    util::ByteReader r(args);
    const ConsumerToken token = r.u64();
    const SubscriptionId id = r.u64();
    if (!r.ok() || !auth_.verify(token)) return util::Err{net::RpcError::kRemoteFailure};
    if (!unsubscribe(id)) return util::Err{net::RpcError::kRemoteFailure};
    return util::Bytes{};
  });
}

void DispatchingService::on_filtered(const DataMessage& message, util::SimTime first_heard) {
  ++stats_.messages_in;
  deliver(as_view(message), first_heard);
}

void DispatchingService::on_filtered(const DataMessageView& message, util::SimTime first_heard) {
  ++stats_.messages_in;
  deliver(message, first_heard);
}

SubscriptionId DispatchingService::subscribe(net::Address consumer, StreamPattern pattern,
                                             SubscribeOptions qos) {
  const SubscriptionId id = table_.add(consumer, pattern, qos);
  if (op_sink_) {
    util::ByteWriter w(28);
    w.u64(id);
    w.u32(consumer.value);
    w.u64(pattern.packed());
    w.u32(qos.min_interval_ms);
    w.u32(qos.max_age_ms);
    op_sink_(kOpSubscribe, w.view());
  }
  return id;
}

bool DispatchingService::unsubscribe(SubscriptionId id) {
  if (!table_.remove(id)) return false;
  if (op_sink_) {
    util::ByteWriter w(8);
    w.u64(id);
    op_sink_(kOpUnsubscribe, w.view());
  }
  return true;
}

std::size_t DispatchingService::drop_consumer(net::Address consumer) {
  // Erasing the flow frees its backlog: nothing shed for a departed
  // consumer is delivered.
  flows_.erase(ConsumerKey{consumer.value});
  const std::size_t removed = table_.remove_consumer(consumer);
  if (op_sink_) {
    util::ByteWriter w(4);
    w.u32(consumer.value);
    op_sink_(kOpDropConsumer, w.view());
  }
  return removed;
}

void DispatchingService::apply_op(std::uint16_t kind, util::BytesView payload) {
  util::ByteReader r(payload);
  switch (kind) {
    case kOpSubscribe: {
      const SubscriptionId id = r.u64();
      const net::Address consumer{r.u32()};
      const auto pattern = StreamPattern::from_packed(r.u64());
      SubscribeOptions qos;
      qos.min_interval_ms = r.u32();
      qos.max_age_ms = r.u32();
      if (r.ok()) table_.restore_entry(id, consumer, pattern, qos);
      break;
    }
    case kOpUnsubscribe: {
      const SubscriptionId id = r.u64();
      if (r.ok()) table_.remove(id);
      break;
    }
    case kOpDropConsumer: {
      const net::Address consumer{r.u32()};
      if (r.ok()) {
        flows_.erase(ConsumerKey{consumer.value});
        table_.remove_consumer(consumer);
      }
      break;
    }
    default:
      break;
  }
}

void DispatchingService::encode_flow(util::ByteWriter& w, const Flow& flow) {
  w.u32(flow.credits);
  w.u8(flow.quarantined ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(flow.backlog.size()));
  for (std::size_t i = 0; i < flow.backlog.size(); ++i) {
    const util::SharedBytes& frame = flow.backlog.at(i);
    w.u32(static_cast<std::uint32_t>(frame.size()));
    w.raw(frame);
  }
}

util::Bytes DispatchingService::capture_state() const {
  util::ByteWriter w(256);
  table_.capture(w);
  flows_.write_full(w, encode_flow);
  return std::move(w).take();
}

util::Bytes DispatchingService::capture_full() {
  util::Bytes state = capture_state();
  flows_.clear_dirty();
  return state;
}

util::Status<util::DecodeError> DispatchingService::restore_state(util::BytesView state) {
  util::ByteReader r(state);
  SubscriptionTable table;
  if (const auto status = table.restore(r); !status.ok()) return status;
  // Backlog frames become views of one shared copy of the state, made at
  // the first frame; a state without frames copies nothing.
  util::SharedBytes copy;
  bool malformed = false;
  auto flows = FlowTable::read_full(r, [&](ConsumerKey, util::ByteReader& fr) {
    Flow flow;
    (void)fr.u32();  // credits: the commit re-primes them
    flow.quarantined = fr.u8() != 0;
    const std::uint32_t frames = fr.u32();
    // Only a quarantined flow holds frames, never more than the bound.
    if (frames > (flow.quarantined ? kBacklogFrames : 0)) malformed = true;
    for (std::uint32_t i = 0; i < frames && fr.ok() && !malformed; ++i) {
      const std::uint32_t length = fr.u32();
      const std::size_t offset = fr.consumed();
      (void)fr.view(length);
      if (!fr.ok()) break;
      if (copy.empty()) copy = util::SharedBytes::copy_of(state);
      flow.backlog.push(copy.view(offset, length));
    }
    return flow;
  });
  if (malformed || !r.ok() || r.remaining() != 0) return util::Err{util::DecodeError::kTruncated};

  table_ = std::move(table);
  // Flows are re-primed to a full credit window.
  if (!flow_.enabled()) flows.entries.clear();
  for (auto& [key, flow] : flows.entries) flow.credits = flow_.credit_window;
  flows_.apply(std::move(flows));
  return {};
}

void DispatchingService::reset_state() {
  table_ = SubscriptionTable{};
  flows_.clear();
}

void DispatchingService::resume_quarantined() {
  // Consumer order keeps the redelivery sequence deterministic.
  flows_.for_each_sorted(
      [this](ConsumerKey key, Flow& flow) { drain(net::Address{key.pack()}, flow); });
}

void DispatchingService::set_flow_control(FlowControlConfig config) {
  flow_ = config;
  flows_.for_each([this](ConsumerKey, Flow& flow) {
    flow.credits = std::min(flow.credits, flow_.credit_window);
  });
  if (!flow_.enabled()) flows_.clear();
}

bool DispatchingService::quarantined(net::Address consumer) const {
  const Flow* flow = flows_.find(ConsumerKey{consumer.value});
  return flow != nullptr && flow->quarantined;
}

std::uint32_t DispatchingService::credits(net::Address consumer) const {
  const Flow* flow = flows_.find(ConsumerKey{consumer.value});
  return flow != nullptr ? flow->credits : flow_.credit_window;
}

DispatchingService::Flow& DispatchingService::flow_for(net::Address consumer) {
  auto [flow, inserted] = flows_.try_emplace(ConsumerKey{consumer.value});
  if (inserted) flow->credits = flow_.credit_window;
  return *flow;
}

void DispatchingService::on_credit(const net::Envelope& envelope) {
  if (!flow_.enabled()) return;
  util::ByteReader r(envelope.payload);
  const std::uint32_t granted = r.u32();
  if (!r.ok() || granted == 0) return;
  // Only senders we have delivered to carry flow state; credits from
  // strangers (fuzzed or stale endpoints) are ignored, not banked.
  Flow* found = flows_.mutate(ConsumerKey{envelope.from.value});
  if (found == nullptr) return;
  ++stats_.credit_acks;
  Flow& flow = *found;
  flow.credits = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      flow_.credit_window, static_cast<std::uint64_t>(flow.credits) + granted));
  drain(envelope.from, flow);
}

void DispatchingService::drain(net::Address consumer, Flow& flow) {
  while (flow.credits > 0 && !flow.backlog.empty()) {
    util::SharedBytes frame = std::move(flow.backlog.front());
    flow.backlog.pop();
    // A frame for a stream the consumer has since left is dropped here.
    // So is a corrupt one: a backlog restored from a checkpoint is not
    // frames this process encoded, so each is checksum-verified.
    const auto decoded = decode_delivery_view(frame, ChecksumPolicy::kVerify);
    if (!decoded.ok() || !table_.subscribes(consumer, decoded.value().message.stream_id)) {
      ++stats_.resume_discarded;
      continue;
    }
    ++stats_.resume_redelivered;
    ++stats_.copies_delivered;
    if (--flow.credits == 0) ++stats_.credits_exhausted;
    bus_.post(node_.address(), consumer, kDataDelivery, std::move(frame));
  }
  if (flow.backlog.empty() && flow.credits > 0) flow.quarantined = false;
}

void DispatchingService::on_envelope(net::Envelope envelope) {
  if (envelope.type == kDeliveryCredit) {
    on_credit(envelope);
    return;
  }
  if (envelope.type != kDerivedPublish) return;
  // Zero-copy validate-and-forward: the view's payload aliases the
  // envelope buffer, which outlives the synchronous deliver() below.
  const auto decoded = decode_view(envelope.payload);
  if (!decoded.ok() || !decoded.value().header.has(HeaderFlag::kDerived)) {
    ++stats_.rejected_publishes;
    return;
  }
  ++stats_.derived_in;
  deliver(decoded.value(), bus_.now());
}

void DispatchingService::deliver(const DataMessageView& message, util::SimTime first_heard) {
  const obs::TraceKey trace_key{message.stream_id.packed(), message.sequence};
  if (tracer_ != nullptr) tracer_->begin_span(trace_key, "dispatch", bus_.now().ns);

  catalog_.note_message(message.stream_id, bus_.now());

  if (message.ack_request_id && ack_observer_) {
    ++stats_.acks_observed;
    ack_observer_(*message.ack_request_id, message.stream_id.sensor, bus_.now());
  }

  scratch_.clear();
  table_.collect(message.stream_id, {bus_.now(), first_heard}, scratch_);

  if (scratch_.empty()) {
    // Unclaimed (nobody subscribed) goes to the Orphanage. A message
    // with subscribers that were all QoS-suppressed is *claimed* — the
    // consumers chose not to receive this copy — and is simply dropped.
    // Either way the journey ends here, so the trace is not recorded.
    if (tracer_ != nullptr) {
      tracer_->end_span(trace_key, "dispatch", bus_.now().ns);
      tracer_->discard(trace_key);
    }
    if (orphan_sink_.valid() && !table_.anyone_wants(message.stream_id)) {
      ++stats_.orphaned;
      bus_.post(node_.address(), orphan_sink_, kDataDelivery,
                encode_delivery(message, first_heard));
    }
    return;
  }

  if (tracer_ != nullptr) {
    tracer_->end_span(trace_key, "dispatch", bus_.now().ns);
    tracer_->begin_span(trace_key, "deliver", bus_.now().ns);
  }

  // One encode, N posts: every consumer's envelope refcounts this one
  // buffer; no per-subscriber byte copy happens anywhere downstream.
  const util::SharedBytes wire = encode_delivery(message, first_heard);
  for (const net::Address consumer : scratch_) {
    if (flow_.enabled()) {
      Flow& flow = flow_for(consumer);
      if (flow.quarantined) {
        // Shed for this consumer alone: its backlog keeps a view of the
        // shared frame for in-order redelivery when credits return.
        ++stats_.quarantine_sheds;
        if (flow.backlog.push(wire)) ++stats_.resume_missing;
        continue;
      }
      --flow.credits;
      if (flow.credits == 0) {
        ++stats_.credits_exhausted;
        ++stats_.quarantines;
        flow.quarantined = true;
      }
    }
    ++stats_.copies_delivered;
    bus_.post(node_.address(), consumer, kDataDelivery, wire);
  }
}

}  // namespace garnet::core
