#include "net/bus.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/rng.hpp"

namespace garnet::net {

MessageBus::MessageBus(sim::Scheduler& scheduler, Config config)
    : scheduler_(scheduler), config_(std::move(config)), endpoints_(1) {
  if (config_.faults.enabled()) {
    injector_ = std::make_unique<FaultInjector>(scheduler_, config_.faults);
  }
  for (const MessageType type : config_.control_types) {
    control_types_.insert(static_cast<std::uint16_t>(type));
  }
}

Address MessageBus::add_endpoint(std::string name, Handler handler) {
  assert(handler);
  assert(!names_.contains(name) && "endpoint names must be unique");
  const Address address{static_cast<std::uint32_t>(endpoints_.size())};
  names_.emplace(name, address.value);
  auto entry = std::make_unique<EndpointEntry>(std::move(name), std::move(handler), nullptr);
  const auto it = config_.inboxes.find(entry->name);
  if (it != config_.inboxes.end() && it->second.active()) {
    entry->inbox = std::make_unique<Inbox>(it->second);
  }
  endpoints_.push_back(std::move(entry));
  return address;
}

void MessageBus::remove_endpoint(Address address) {
  EndpointEntry* entry = find(address);
  if (entry == nullptr) return;
  names_.erase(entry->name);
  endpoints_[address.value].reset();
}

std::optional<Address> MessageBus::lookup(const std::string& name) const {
  const auto it = names_.find(name);
  if (it == names_.end()) return std::nullopt;
  return Address{it->second};
}

void MessageBus::set_endpoint_down(const std::string& name, bool down) {
  const auto it = names_.find(name);
  if (it == names_.end()) return;
  EndpointEntry& entry = *endpoints_[it->second];
  entry.down = down;
  if (down && entry.inbox) {
    // Queued-but-unserved envelopes lived in the dead process's memory.
    entry.inbox->control.clear();
    entry.inbox->data.clear();
    entry.inbox->busy = false;
  }
}

bool MessageBus::endpoint_down(const std::string& name) const {
  const auto it = names_.find(name);
  if (it == names_.end()) return false;
  return endpoints_[it->second]->down;
}

TrafficClass MessageBus::classify(MessageType type) const {
  const auto raw = static_cast<std::uint16_t>(type);
  if (raw < static_cast<std::uint16_t>(MessageType::kAppBase)) return TrafficClass::kControl;
  return control_types_.contains(raw) ? TrafficClass::kControl : TrafficClass::kData;
}

// The collector captures `this`, so a bus that dies before its registry
// (bench harnesses snapshot a long-lived registry across short-lived
// buses) must deregister or the next snapshot reads freed memory.
MessageBus::~MessageBus() {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
}

void MessageBus::set_metrics(obs::MetricsRegistry& registry) {
  transit_histogram_ = &registry.histogram("garnet.bus.transit_ns");
  size_histogram_ =
      &registry.histogram("garnet.bus.envelope_bytes", obs::Histogram::Layout::bytes());
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
  metrics_ = &registry;
  collector_id_ = registry.add_collector([this](obs::SnapshotBuilder& out) { collect(out); });
}

void MessageBus::collect(obs::SnapshotBuilder& out) const {
  out.counter("garnet.bus.posted", stats_.posted);
  out.counter("garnet.bus.delivered", stats_.delivered);
  out.counter("garnet.bus.dropped_no_endpoint", stats_.dropped_no_endpoint);
  out.counter("garnet.bus.dropped_endpoint_down", stats_.dropped_endpoint_down);
  out.counter("garnet.bus.bytes", stats_.bytes);

  // Zero-copy payload accounting (process-wide; see util/shared_bytes).
  // One allocation per encoded message, ~zero copies: fan-out, duplicates
  // and retries must share buffers, not clone them.
  const util::PayloadStats payload = util::payload_stats();
  out.counter("garnet.bus.payload_allocs", payload.allocations);
  out.counter("garnet.bus.payload_alloc_bytes", payload.allocation_bytes);
  out.counter("garnet.bus.payload_copies", payload.copies);

  // All fault kinds are emitted even when zero (or when no injector is
  // installed) so expositions keep a stable schema across configurations.
  const FaultCounters counters = injector_ ? injector_->counters() : FaultCounters{};
  out.counter("garnet.bus.faults", counters.dropped, {{"kind", "drop"}});
  out.counter("garnet.bus.faults", counters.duplicated, {{"kind", "duplicate"}});
  out.counter("garnet.bus.faults", counters.delayed, {{"kind", "delay"}});
  out.counter("garnet.bus.faults", counters.reordered, {{"kind", "reorder"}});
  out.counter("garnet.bus.faults", counters.partitioned, {{"kind", "partition"}});
  out.counter("garnet.bus.faults", counters.crashed, {{"kind", "crash"}});
  out.counter("garnet.bus.faults", counters.restarted, {{"kind", "restart"}});
  out.counter("garnet.bus.faults", counters.relay_crashed, {{"kind", "relay-crash"}});
  out.counter("garnet.bus.faults", counters.relay_restarted, {{"kind", "relay-restart"}});
  out.counter("garnet.bus.faults", counters.beacon_lost, {{"kind", "beacon-loss"}});
  out.counter("garnet.bus.faults", counters.beacon_restored, {{"kind", "beacon-restore"}});

  // Shed accounting: the full (class, policy) grid is emitted even when
  // zero so the CI control-shed gate can grep a stable schema, and so the
  // priority invariant (control row all-zero while data rows count) is
  // provable from the exposition alone.
  out.counter("garnet.bus.shed", shed_stats_.data_drop_newest,
              {{"class", "data"}, {"policy", "drop_newest"}});
  out.counter("garnet.bus.shed", shed_stats_.data_drop_oldest,
              {{"class", "data"}, {"policy", "drop_oldest"}});
  out.counter("garnet.bus.shed", shed_stats_.control_drop_newest,
              {{"class", "control"}, {"policy", "drop_newest"}});
  out.counter("garnet.bus.shed", shed_stats_.control_drop_oldest,
              {{"class", "control"}, {"policy", "drop_oldest"}});
  out.gauge("garnet.bus.inbox_depth", static_cast<double>(total_inbox_depth()));
  for (const auto& entry : endpoints_) {
    if (!entry || !entry->inbox) continue;
    out.gauge("garnet.bus.inbox_depth", static_cast<double>(entry->inbox->depth()),
              {{"endpoint", entry->name}});
  }

  out.counter("garnet.rpc.calls", rpc_stats_.calls);
  out.counter("garnet.rpc.retries", rpc_stats_.retries);
  out.counter("garnet.rpc.exhausted", rpc_stats_.exhausted);
  out.counter("garnet.rpc.deduped", rpc_stats_.deduped);
  out.counter("garnet.rpc.breaker_opens", rpc_stats_.breaker_opens);
  out.counter("garnet.rpc.breaker_fast_fails", rpc_stats_.breaker_fast_fails);
  out.gauge("garnet.rpc.breaker_state", static_cast<double>(rpc_stats_.open_breakers));
}

const std::string& MessageBus::name_of(Address address) const {
  static const std::string kUnknown;
  const EndpointEntry* entry = find(address);
  return entry != nullptr ? entry->name : kUnknown;
}

std::size_t MessageBus::inbox_depth(Address address) const {
  const EndpointEntry* entry = find(address);
  if (entry == nullptr || !entry->inbox) return 0;
  return entry->inbox->depth();
}

std::size_t MessageBus::total_inbox_depth() const {
  std::size_t total = 0;
  for (const auto& entry : endpoints_) {
    if (entry && entry->inbox) total += entry->inbox->depth();
  }
  return total;
}

std::string render_shed_record(const ShedRecord& record) {
  std::ostringstream out;
  out << record.at.ns << " shed " << to_string(record.cls) << ' ' << to_string(record.policy)
      << ' ' << record.from << "->" << record.to << " type=" << record.type << '\n';
  return out.str();
}

bool shed_merge_before(const ShedRecord& a, const ShedRecord& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.to != b.to) return a.to < b.to;
  if (a.from != b.from) return a.from < b.from;
  if (a.type != b.type) return a.type < b.type;
  if (a.cls != b.cls) return a.cls < b.cls;
  return a.policy < b.policy;
}

std::string MessageBus::shed_journal_text() const {
  std::string out;
  for (const ShedRecord& record : shed_journal_) {
    out += render_shed_record(record);
  }
  return out;
}

void MessageBus::shed(const Envelope& envelope, TrafficClass cls, OverflowPolicy policy) {
  switch (cls) {
    case TrafficClass::kData:
      switch (policy) {
        case OverflowPolicy::kDropNewest: ++shed_stats_.data_drop_newest; break;
        case OverflowPolicy::kDropOldest: ++shed_stats_.data_drop_oldest; break;
      }
      break;
    case TrafficClass::kControl:
      switch (policy) {
        case OverflowPolicy::kDropNewest: ++shed_stats_.control_drop_newest; break;
        case OverflowPolicy::kDropOldest: ++shed_stats_.control_drop_oldest; break;
      }
      break;
  }
  if (shed_journal_.size() < config_.shed_journal_limit) {
    shed_journal_.push_back(ShedRecord{scheduler_.now(), name_of(envelope.from),
                                       name_of(envelope.to), cls, policy,
                                       static_cast<std::uint16_t>(envelope.type)});
  }
}

void MessageBus::serve(EndpointEntry& entry, Envelope envelope) {
  ++stats_.delivered;
  if (transit_histogram_ != nullptr) {
    transit_histogram_->observe(static_cast<double>((scheduler_.now() - envelope.sent_at).ns));
  }
  Inbox* inbox = entry.inbox.get();
  if (inbox != nullptr) {
    inbox->busy = true;
    const Address address = envelope.to;
    scheduler_.schedule_after(inbox->config.service_time,
                              [this, address] { service_done(address); });
  }
  entry.handler(std::move(envelope));
}

void MessageBus::service_done(Address address) {
  EndpointEntry* entry = find(address);
  if (entry == nullptr || !entry->inbox) return;
  Inbox& inbox = *entry->inbox;
  // Priority dequeue: every queued control envelope goes before any data.
  if (!inbox.control.empty()) {
    Envelope next = std::move(inbox.control.front());
    inbox.control.pop_front();
    serve(*entry, std::move(next));
  } else if (!inbox.data.empty()) {
    Envelope next = std::move(inbox.data.front());
    inbox.data.pop_front();
    serve(*entry, std::move(next));
  } else {
    inbox.busy = false;
  }
}

void MessageBus::enqueue(EndpointEntry& entry, Envelope envelope) {
  Inbox& inbox = *entry.inbox;
  const TrafficClass cls = classify(envelope.type);
  if (inbox.config.capacity > 0 && inbox.depth() >= inbox.config.capacity) {
    const OverflowPolicy policy = inbox.config.policy;
    if (cls == TrafficClass::kControl && !inbox.data.empty()) {
      // Control always displaces data: evict the oldest data envelope to
      // admit the control one, whatever the policy. The eviction is a
      // data-class shed.
      shed(inbox.data.front(), TrafficClass::kData, policy);
      inbox.data.pop_front();
      inbox.control.push_back(std::move(envelope));
      return;
    }
    // Shedding stays inside the arriving envelope's class from here on.
    // (A control arrival past capacity with no data queued can only shed
    // control — the inbox is all-control, so the invariant holds.)
    switch (policy) {
      case OverflowPolicy::kDropNewest:
        shed(envelope, cls, policy);
        return;
      case OverflowPolicy::kDropOldest: {
        std::deque<Envelope>& queue =
            cls == TrafficClass::kControl ? inbox.control : inbox.data;
        if (queue.empty()) {
          // Data arrival, data queue empty, inbox full of control: data
          // never displaces control, so the arrival itself is shed.
          shed(envelope, cls, policy);
          return;
        }
        shed(queue.front(), cls, policy);
        queue.pop_front();
        break;
      }
    }
  }
  (cls == TrafficClass::kControl ? inbox.control : inbox.data).push_back(std::move(envelope));
}

void MessageBus::arrive(Envelope envelope) {
  EndpointEntry* found = find(envelope.to);
  if (found == nullptr) {
    ++stats_.dropped_no_endpoint;
    return;
  }
  EndpointEntry& entry = *found;
  if (entry.down) {
    ++stats_.dropped_endpoint_down;
    return;
  }
  if (!entry.inbox) {
    // Inactive inbox: historical hand-to-handler-on-arrival behaviour.
    ++stats_.delivered;
    if (transit_histogram_ != nullptr) {
      transit_histogram_->observe(static_cast<double>((scheduler_.now() - envelope.sent_at).ns));
    }
    entry.handler(std::move(envelope));
    return;
  }
  if (entry.inbox->busy) {
    enqueue(entry, std::move(envelope));
  } else {
    serve(entry, std::move(envelope));
  }
}

void MessageBus::deliver_after(util::Duration delay, Envelope envelope) {
  auto arrival = [this, envelope = std::move(envelope)]() mutable { arrive(std::move(envelope)); };
  static_assert(sim::EventFn::fits_inline<decltype(arrival)>, "one bus hop, no allocation");
  scheduler_.schedule_after(delay, std::move(arrival));
}

void MessageBus::post(Address from, Address to, MessageType type, util::SharedBytes payload) {
  ++stats_.posted;
  stats_.bytes += payload.size();
  if (size_histogram_ != nullptr) size_histogram_->observe(static_cast<double>(payload.size()));

  FaultInjector::Verdict verdict;
  if (injector_) {
    verdict = injector_->decide(name_of(from), name_of(to));
    if (!verdict.deliver) return;  // counted as posted, never arrives
  }

  Envelope envelope{from, to, type, std::move(payload), scheduler_.now()};
  const auto jitter_ns = static_cast<std::int64_t>(
      util::splitmix64(jitter_state_) % static_cast<std::uint64_t>(config_.max_jitter.ns + 1));
  const util::Duration delay =
      config_.latency + util::Duration::nanos(jitter_ns) + verdict.extra_delay;

  if (verdict.duplicate) {
    // The trailing copy shares the original's payload buffer — a
    // duplicated 64 KB envelope costs a refcount bump, not a memcpy.
    deliver_after(delay + verdict.duplicate_delay, envelope);
  }
  deliver_after(delay, std::move(envelope));
}

}  // namespace garnet::net
