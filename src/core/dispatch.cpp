#include "core/dispatch.hpp"

#include <algorithm>

#include "core/orphanage.hpp"
#include "util/log.hpp"

namespace garnet::core {

namespace {

/// Backlog messages fetched per kFetchBacklog round-trip.
constexpr std::uint16_t kFetchBatch = 32;

/// Reliability contract for the stash-fetch RPC. kFetchBacklog drains
/// the stash, so a re-executed fetch would see an empty ring and the
/// drained frames would ride the lost response: never idempotent (the
/// CallOptions default), always through the at-most-once cache.
const net::CallOptions kFetchOptions = net::CallOptions::reliable(2);

}  // namespace

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
  resumes += other.resumes;
  resume_redelivered += other.resume_redelivered;
  resume_discarded += other.resume_discarded;
  resume_returned += other.resume_returned;
  resume_unreachable += other.resume_unreachable;
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
  // Erasing the flow retires its epoch: an in-flight resume that fetched
  // this consumer's stash will see the mismatch and return the frames to
  // the Orphanage instead of delivering to (or losing them with) the
  // departed consumer.
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
  std::vector<std::uint64_t> shed(flow.shed.begin(), flow.shed.end());
  std::sort(shed.begin(), shed.end());
  w.u32(static_cast<std::uint32_t>(shed.size()));
  for (const std::uint64_t key64 : shed) {
    w.u32(static_cast<std::uint32_t>(key64 >> 16));
    w.u16(static_cast<std::uint16_t>(key64 & 0xFFFF));
  }
}

DispatchingService::Flow DispatchingService::decode_flow(ConsumerKey, util::ByteReader& r) {
  Flow flow;
  (void)r.u32();  // credits: the commit re-primes them
  flow.quarantined = r.u8() != 0;
  const std::uint32_t shed_count = r.u32();
  for (std::uint32_t j = 0; j < shed_count && r.ok(); ++j) {
    const std::uint32_t packed = r.u32();
    const SequenceNo seq = r.u16();
    flow.shed.insert(shed_key(packed, seq));
  }
  return flow;
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
  auto flows = FlowTable::read_full(r, decode_flow);
  if (!r.ok() || r.remaining() != 0) return util::Err{util::DecodeError::kTruncated};

  table_ = std::move(table);
  // Flows are re-primed to a full credit window.
  if (!flow_.enabled()) flows.entries.clear();
  for (auto& [key, flow] : flows.entries) {
    flow.credits = flow_.credit_window;
    flow.epoch = next_flow_epoch_++;
  }
  flows_.apply(std::move(flows));
  return {};
}

void DispatchingService::reset_state() {
  table_ = SubscriptionTable{};
  flows_.clear();
}

void DispatchingService::resume_quarantined() {
  // Sorted snapshot first: maybe_resume() may mutate the table, and
  // consumer order keeps the kick sequence deterministic.
  std::vector<net::Address> quarantined;
  flows_.for_each_sorted([&quarantined](ConsumerKey key, const Flow& flow) {
    if (flow.quarantined) quarantined.push_back(net::Address{key.pack()});
  });
  for (const net::Address consumer : quarantined) maybe_resume(consumer);
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
  if (inserted) {
    flow->credits = flow_.credit_window;
    flow->epoch = next_flow_epoch_++;
  }
  return *flow;
}

DispatchingService::Flow* DispatchingService::flow_if_current(const ResumePlan& plan) {
  Flow* flow = flows_.mutate(ConsumerKey{plan.consumer.value});
  if (flow == nullptr || flow->epoch != plan.epoch) return nullptr;
  return flow;
}

std::uint32_t DispatchingService::resume_threshold() const {
  if (flow_.resume_threshold > 0) return flow_.resume_threshold;
  return std::max<std::uint32_t>(1, flow_.credit_window / 2);
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
  maybe_resume(envelope.from);
}

void DispatchingService::maybe_resume(net::Address consumer) {
  Flow* found = flows_.mutate(ConsumerKey{consumer.value});
  if (found == nullptr) return;
  Flow& flow = *found;
  if (!flow.quarantined || flow.resume_inflight || flow.credits == 0) return;
  if (flow.shed.empty()) {
    // Nothing was shed while quarantined (or the stash is unreachable):
    // plain release.
    flow.quarantined = false;
    return;
  }
  if (flow.credits < resume_threshold()) return;
  start_resume(consumer, flow);
}

void DispatchingService::start_resume(net::Address consumer, Flow& flow) {
  if (!orphan_sink_.valid()) {
    // No stash to replay from; release with whatever was lost, lost.
    flow.shed.clear();
    flow.quarantined = false;
    return;
  }
  ++stats_.resumes;
  flow.resume_inflight = true;
  auto plan = std::make_shared<ResumePlan>();
  plan->consumer = consumer;
  plan->epoch = flow.epoch;
  plan->shed = std::move(flow.shed);
  flow.shed.clear();
  for (const std::uint64_t key : plan->shed) {
    plan->streams.push_back(static_cast<std::uint32_t>(key >> 16));
  }
  std::sort(plan->streams.begin(), plan->streams.end());
  plan->streams.erase(std::unique(plan->streams.begin(), plan->streams.end()),
                      plan->streams.end());
  fetch_next(plan);
}

void DispatchingService::fetch_next(const std::shared_ptr<ResumePlan>& plan) {
  if (flow_if_current(*plan) == nullptr) return;  // consumer dropped; plan dead
  if (plan->index >= plan->streams.size()) {
    finish_resume(plan);
    return;
  }
  const std::uint32_t stream = plan->streams[plan->index];
  util::ByteWriter w(6);
  w.u32(stream);
  w.u16(kFetchBatch);
  node_.call(orphan_sink_, Orphanage::kFetchBacklog, std::move(w).take(), kFetchOptions,
             [this, plan, stream](net::RpcResult result) {
               if (!result.ok()) {
                 // The stash is unreachable: the shed copies still owed on
                 // this stream are abandoned, and counted.
                 stats_.resume_unreachable += abandon_stream(*plan, stream);
                 ++plan->index;
                 fetch_next(plan);
                 return;
               }
               const util::SharedBytes reply(std::move(result).value());
               util::ByteReader r(reply);
               const std::uint16_t count = r.u16();
               for (std::uint16_t i = 0; i < count && r.ok(); ++i) {
                 const std::uint16_t length = r.u16();
                 const std::size_t offset = r.consumed();
                 if (r.view(length).empty() && length > 0) break;  // truncated reply
                 on_backlog_frame(*plan, reply.view(offset, length));
               }
               if (Flow* flow = flow_if_current(*plan); flow != nullptr && flow->credits == 0) {
                 // The window re-exhausted: end the round rather than
                 // fetch back the frames just returned. What is still
                 // owed waits in the flow for the next ack's round.
                 flow->shed.merge(plan->shed);
                 finish_resume(plan);
                 return;
               }
               // A full batch may mean more frames remain for this stream;
               // an undersized one means the stash is drained for it, so
               // an owed copy not fetched by now was evicted past the
               // Orphanage's retention.
               if (count < kFetchBatch) {
                 stats_.resume_missing += abandon_stream(*plan, stream);
                 ++plan->index;
               }
               fetch_next(plan);
             });
}

void DispatchingService::on_backlog_frame(ResumePlan& plan, util::SharedBytes frame) {
  Flow* flow = flow_if_current(plan);
  if (flow == nullptr || flow->credits == 0) {
    // Consumer dropped mid-replay, or its window re-exhausted: the
    // frame goes back to the stash so it is neither lost nor delivered
    // out of contract. An owed copy stays owed: its key moves back to
    // the flow, and the next resume round fetches it again.
    ++stats_.resume_returned;
    node_.post(orphan_sink_, kDataDelivery, frame);
    if (flow != nullptr) {
      auto decoded = decode_delivery_view(frame);
      if (decoded.ok()) {
        const DataMessageView& message = decoded.value().message;
        const std::uint64_t key = shed_key(message.stream_id.packed(), message.sequence);
        if (plan.shed.erase(key) > 0) flow->shed.insert(key);
      }
    }
    return;
  }

  auto decoded = decode_delivery_view(frame);
  if (!decoded.ok()) {
    ++stats_.resume_discarded;
    return;
  }
  const DataMessageView& message = decoded.value().message;
  // Duplicate-freedom: redeliver exactly what was shed from THIS
  // consumer, before the round (the plan) or during it (the flow). The
  // shared stash also holds copies shed for other consumers and
  // pre-quarantine orphans; membership in a shed set is the only test
  // that rejects all of them. Erasing the entry also refuses a second
  // stashed copy of the same frame.
  const std::uint64_t key = shed_key(message.stream_id.packed(), message.sequence);
  if ((plan.shed.erase(key) == 0 && flow->shed.erase(key) == 0) ||
      !table_.subscribes(plan.consumer, message.stream_id)) {
    ++stats_.resume_discarded;
    return;
  }
  ++stats_.resume_redelivered;
  ++stats_.copies_delivered;
  --flow->credits;
  if (flow->credits == 0) ++stats_.credits_exhausted;
  bus_.post(node_.address(), plan.consumer, kDataDelivery, std::move(frame));
}

std::uint64_t DispatchingService::abandon_stream(ResumePlan& plan, std::uint32_t stream) {
  return static_cast<std::uint64_t>(std::erase_if(
      plan.shed, [stream](std::uint64_t key) { return (key >> 16) == stream; }));
}

void DispatchingService::finish_resume(const std::shared_ptr<ResumePlan>& plan) {
  Flow* flow = flow_if_current(*plan);
  if (flow == nullptr) return;
  flow->resume_inflight = false;
  if (flow->shed.empty()) {
    if (flow->credits > 0) flow->quarantined = false;
    return;
  }
  // New sheds accumulated while replaying (re-stashed frames or fresh
  // traffic): go again if the window allows, else wait for the next ack.
  maybe_resume(plan->consumer);
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
  bool stashed = false;
  for (const net::Address consumer : scratch_) {
    if (flow_.enabled()) {
      Flow& flow = flow_for(consumer);
      if (flow.quarantined) {
        // Shed for this consumer alone; the copy is stashed (below) and
        // the shed set marks it for duplicate-free redelivery on resume.
        ++stats_.quarantine_sheds;
        flow.shed.insert(shed_key(message.stream_id.packed(), message.sequence));
        stashed = true;
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
  // One stash post covers every consumer quarantined on this message —
  // the Orphanage keeps a single retained copy per message either way.
  if (stashed && orphan_sink_.valid()) {
    bus_.post(node_.address(), orphan_sink_, kDataDelivery, wire);
  }
}

}  // namespace garnet::core
