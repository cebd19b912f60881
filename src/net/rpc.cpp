#include "net/rpc.hpp"

#include <algorithm>
#include <cassert>

namespace garnet::net {
namespace {

// RPC request payload:  [u64 call id][u16 method][u8 flags][args...]
// RPC response payload: [u64 call id][u8 status][reply...]
enum class Status : std::uint8_t { kOk = 0, kNoSuchMethod = 1, kFailure = 2 };

constexpr std::uint8_t kFlagIdempotent = 0x01;

}  // namespace

std::string_view to_string(RpcError e) {
  switch (e) {
    case RpcError::kTimeout: return "timeout";
    case RpcError::kNoSuchMethod: return "no such method";
    case RpcError::kRemoteFailure: return "remote failure";
    case RpcError::kCircuitOpen: return "circuit open";
  }
  return "unknown";
}

RpcNode::RpcNode(MessageBus& bus, std::string name, std::function<void(Envelope)> fallback)
    : bus_(bus), fallback_(std::move(fallback)) {
  address_ = bus_.add_endpoint(std::move(name), [this](Envelope e) { on_envelope(std::move(e)); });
  // Seeded from the (deterministically assigned) address so every node
  // has an independent but replayable jitter stream.
  backoff_rng_ = util::Rng(0x9E3779B97F4A7C15ull ^ address_.value);
}

RpcNode::~RpcNode() {
  for (auto& [id, call] : pending_) bus_.scheduler().cancel(call.timer);
  // The bus's open-breaker gauge tracks live nodes only.
  for (const auto& [callee, breaker] : breakers_) {
    if (breaker.state != BreakerState::kClosed) --bus_.rpc_stats().open_breakers;
  }
  bus_.remove_endpoint(address_);
}

RpcNode::Breaker* RpcNode::breaker_for(Address callee) {
  const BreakerConfig& config = bus_.breaker_config();
  if (!config.enabled()) return nullptr;
  Breaker& breaker = breakers_[callee.value];
  // Lazy open -> half-open: evaluated when the next call arrives rather
  // than on a timer, so an idle breaker costs nothing.
  if (breaker.state == BreakerState::kOpen &&
      bus_.now() >= breaker.opened_at + config.open_for) {
    breaker.state = BreakerState::kHalfOpen;
    breaker.probe_inflight = false;
  }
  return &breaker;
}

RpcNode::BreakerState RpcNode::breaker_state(Address callee) {
  const Breaker* breaker = breaker_for(callee);
  return breaker != nullptr ? breaker->state : BreakerState::kClosed;
}

void RpcNode::note_exhausted(Address callee) {
  Breaker* breaker = breaker_for(callee);
  if (breaker == nullptr) return;
  ++breaker->consecutive_failures;
  if (breaker->state == BreakerState::kHalfOpen) {
    // The probe itself exhausted: straight back to open for another
    // cool-down. The breaker was already counted as non-closed.
    breaker->state = BreakerState::kOpen;
    breaker->opened_at = bus_.now();
    breaker->probe_inflight = false;
    ++bus_.rpc_stats().breaker_opens;
  } else if (breaker->state == BreakerState::kClosed &&
             breaker->consecutive_failures >= bus_.breaker_config().failure_threshold) {
    breaker->state = BreakerState::kOpen;
    breaker->opened_at = bus_.now();
    ++bus_.rpc_stats().breaker_opens;
    ++bus_.rpc_stats().open_breakers;
  }
}

void RpcNode::note_answered(Address callee) {
  const auto it = breakers_.find(callee.value);
  if (it == breakers_.end()) return;
  Breaker& breaker = it->second;
  breaker.consecutive_failures = 0;
  // Any answer proves the callee alive — including a late one that races
  // the open state: recover immediately rather than waiting out open_for.
  if (breaker.state != BreakerState::kClosed) {
    breaker.state = BreakerState::kClosed;
    breaker.probe_inflight = false;
    --bus_.rpc_stats().open_breakers;
  }
}

void RpcNode::expose(MethodId method, RpcHandler handler) {
  assert(handler);
  expose_async(method, [handler = std::move(handler)](Address caller, util::BytesView args,
                                                      RpcResponder respond) {
    respond(handler(caller, args));
  });
}

void RpcNode::expose_async(MethodId method, AsyncRpcHandler handler) {
  assert(handler);
  const auto [it, inserted] = methods_.emplace(method, std::move(handler));
  assert(inserted && "method already exposed");
  (void)it;
  (void)inserted;
}

void RpcNode::call(Address callee, MethodId method, util::Bytes args, CallOptions options,
                   RpcCallback on_done) {
  assert(on_done);

  if (Breaker* breaker = breaker_for(callee); breaker != nullptr) {
    if (breaker->state == BreakerState::kOpen ||
        (breaker->state == BreakerState::kHalfOpen && breaker->probe_inflight)) {
      // Fail fast without touching the wire; asynchronously, so callers
      // see the same callback discipline as every other outcome.
      ++bus_.rpc_stats().breaker_fast_fails;
      bus_.scheduler().schedule_after(
          util::Duration{}, [cb = std::move(on_done)] { cb(util::Err{RpcError::kCircuitOpen}); });
      return;
    }
    if (breaker->state == BreakerState::kHalfOpen) breaker->probe_inflight = true;
  }

  const std::uint64_t call_id = next_call_id_++;

  util::ByteWriter w(11 + args.size());
  w.u64(call_id);
  w.u16(method);
  w.u8(options.idempotent ? kFlagIdempotent : 0);
  w.raw(args);

  PendingCall pending;
  pending.on_done = std::move(on_done);
  pending.callee = callee;
  pending.frame = std::move(w).take();
  pending.next_backoff = options.backoff;
  pending.options = options;
  pending_.emplace(call_id, std::move(pending));

  ++bus_.rpc_stats().calls;
  send_attempt(call_id);
}

void RpcNode::send_attempt(std::uint64_t call_id) {
  const auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  PendingCall& pending = it->second;

  ++pending.sends;
  pending.timer = bus_.scheduler().schedule_after(
      pending.options.timeout, [this, call_id] { on_attempt_timeout(call_id); });
  bus_.post(address_, pending.callee, MessageType::kRpcRequest, pending.frame);
}

void RpcNode::on_attempt_timeout(std::uint64_t call_id) {
  const auto it = pending_.find(call_id);
  if (it == pending_.end()) return;
  PendingCall& pending = it->second;

  if (pending.sends <= pending.options.retries) {
    ++bus_.rpc_stats().retries;
    util::Duration pause = pending.next_backoff;
    if (pending.options.jitter > 0.0 && pause.ns > 0) {
      const double factor =
          1.0 + pending.options.jitter * (2.0 * backoff_rng_.uniform() - 1.0);
      pause = util::Duration::nanos(
          static_cast<std::int64_t>(static_cast<double>(pause.ns) * factor));
    }
    pending.next_backoff = std::min(
        util::Duration::nanos(static_cast<std::int64_t>(
            static_cast<double>(pending.next_backoff.ns) * pending.options.backoff_factor)),
        pending.options.max_backoff);
    pending.timer =
        bus_.scheduler().schedule_after(pause, [this, call_id] { send_attempt(call_id); });
    return;
  }

  ++bus_.rpc_stats().exhausted;
  note_exhausted(pending.callee);
  RpcCallback cb = std::move(pending.on_done);
  pending_.erase(it);
  cb(util::Err{RpcError::kTimeout});
}

void RpcNode::post(Address to, MessageType type, util::SharedBytes payload) {
  bus_.post(address_, to, type, std::move(payload));
}

void RpcNode::on_envelope(Envelope envelope) {
  switch (envelope.type) {
    case MessageType::kRpcRequest:
      on_request(envelope);
      return;
    case MessageType::kRpcResponse:
      on_response(envelope);
      return;
    default:
      if (fallback_) fallback_(std::move(envelope));
      return;
  }
}

void RpcNode::remember(const DedupKey& key, DedupEntry entry) {
  if (dedup_order_.size() >= kDedupCapacity) {
    dedup_.erase(dedup_order_.front());
    dedup_order_.pop_front();
  }
  dedup_.emplace(key, std::move(entry));
  dedup_order_.push_back(key);
}

void RpcNode::on_request(const Envelope& envelope) {
  util::ByteReader r(envelope.payload);
  const std::uint64_t call_id = r.u64();
  const MethodId method = r.u16();
  const std::uint8_t flags = r.u8();
  if (!r.ok()) return;  // malformed request; nothing to answer

  const Address caller = envelope.from;
  const bool cached = (flags & kFlagIdempotent) == 0;
  const DedupKey key{caller.value, call_id};

  if (cached) {
    // At-most-once: a repeat of a request we have already seen (retry or
    // fault duplicate) must not re-execute the handler. Finished entries
    // answer from the cache; in-flight ones stay silent — the original
    // execution's response is still coming.
    if (const auto it = dedup_.find(key); it != dedup_.end()) {
      ++bus_.rpc_stats().deduped;
      if (it->second.done) {
        bus_.post(address_, caller, MessageType::kRpcResponse, it->second.response);
      }
      return;
    }
    remember(key, DedupEntry{});
  }

  // The responder may outlive this stack frame (deferred responses); it
  // captures everything it needs by value. Every outcome — ok, failure,
  // unknown method — produces a response frame that is cached for
  // repeats, so at-most-once covers error paths too.
  RpcResponder respond = [this, call_id, caller, cached, key](RpcResult result) {
    util::ByteWriter w;
    w.u64(call_id);
    if (result.ok()) {
      w.u8(static_cast<std::uint8_t>(Status::kOk));
      w.raw(result.value());
    } else if (result.error() == RpcError::kNoSuchMethod) {
      w.u8(static_cast<std::uint8_t>(Status::kNoSuchMethod));
    } else {
      w.u8(static_cast<std::uint8_t>(Status::kFailure));
    }
    util::SharedBytes frame = std::move(w).take();
    if (cached) {
      if (const auto it = dedup_.find(key); it != dedup_.end()) {
        it->second.done = true;
        it->second.response = frame;  // shares the buffer with this post
      }
    }
    bus_.post(address_, caller, MessageType::kRpcResponse, std::move(frame));
  };

  const auto it = methods_.find(method);
  if (it == methods_.end()) {
    respond(util::Err{RpcError::kNoSuchMethod});
    return;
  }

  const util::BytesView args = envelope.payload;
  it->second(caller, args.subspan(r.consumed()), std::move(respond));
}

void RpcNode::on_response(const Envelope& envelope) {
  util::ByteReader r(envelope.payload);
  const std::uint64_t call_id = r.u64();
  const auto status = static_cast<Status>(r.u8());
  if (!r.ok()) return;

  note_answered(envelope.from);
  const auto it = pending_.find(call_id);
  // Late or duplicated response: the call already completed (or gave up);
  // the callback must not fire again.
  if (it == pending_.end()) return;
  // Cancels either the attempt timeout or a pending backoff/retry — a
  // response that arrives between the two still completes the call.
  bus_.scheduler().cancel(it->second.timer);
  RpcCallback cb = std::move(it->second.on_done);
  pending_.erase(it);

  switch (status) {
    case Status::kOk: {
      const util::BytesView payload = envelope.payload;
      cb(util::Bytes(payload.begin() + static_cast<std::ptrdiff_t>(r.consumed()), payload.end()));
      return;
    }
    case Status::kNoSuchMethod:
      cb(util::Err{RpcError::kNoSuchMethod});
      return;
    case Status::kFailure:
      cb(util::Err{RpcError::kRemoteFailure});
      return;
  }
}

}  // namespace garnet::net
