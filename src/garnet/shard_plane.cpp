#include "garnet/shard_plane.hpp"

#include <algorithm>
#include <utility>

#include "core/wire_types.hpp"
#include "util/rng.hpp"

namespace garnet {
namespace {

/// Virtual-time spacing between consecutive injected arrivals on the
/// plane-global timeline.
constexpr util::Duration kInjectTick = util::Duration::micros(10);

/// splitmix64 finaliser over the packed StreamKey. The packed id is
/// sensor<<8|tag, so taking it modulo a power-of-two shard count would
/// select on the tag bits alone and alias every single-stream sensor
/// onto shard 0; the mix spreads every key bit into the low word.
[[nodiscard]] std::uint64_t mix_stream_key(std::uint32_t packed) {
  std::uint64_t state = packed;
  return util::splitmix64(state);
}

[[nodiscard]] net::MessageBus::Config shard_bus_config(const ShardPlaneConfig& config) {
  net::MessageBus::Config bus = config.bus;
  // Shard event chains must be pure functions of arrival times for the
  // merge barrier to reproduce clocks across shard counts: the bus's
  // jitter stream advances once per post, in post order, which varies
  // with the partition.
  bus.max_jitter = util::Duration::nanos(0);
  const auto is_credit = [](net::MessageType t) { return t == core::kDeliveryCredit; };
  if (std::none_of(bus.control_types.begin(), bus.control_types.end(), is_credit)) {
    bus.control_types.push_back(core::kDeliveryCredit);
  }
  return bus;
}

}  // namespace

ShardedDispatchPlane::Shard::Shard(const net::MessageBus::Config& bus_config,
                                   const core::Orphanage::Config& orphanage_config)
    : bus(scheduler, bus_config),
      auth(core::AuthService::Config{}),
      catalog(),
      filtering(scheduler, {}),
      dispatch(bus, auth, catalog),
      orphanage(bus, orphanage_config) {}

ShardedDispatchPlane::ShardedDispatchPlane(ShardPlaneConfig config)
    : config_(std::move(config)), timeline_(util::SimTime::zero()) {
  if (config_.shards == 0) config_.shards = 1;
  const net::MessageBus::Config bus_config = shard_bus_config(config_);
  shards_.reserve(config_.shards);
  for (std::uint32_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>(bus_config, config_.orphanage);
    Shard& s = *shard;
    s.filtering.set_message_sink([&s](const core::DataMessage& message,
                                      util::SimTime first_heard) {
      s.dispatch.on_filtered(message, first_heard);
    });
    s.dispatch.set_orphan_sink(s.orphanage.address());
    s.dispatch.set_flow_control(config_.flow);
    shards_.push_back(std::move(shard));
  }
  if (config_.admission.enabled) {
    gate_ = std::make_unique<net::AdmissionGate>(config_.admission);
    // Merged sums are N-invariant at tick time: ticks run on the caller
    // thread while every shard is quiescent (inject phase or the merge
    // barrier), and a round drains all shards before the next tick, so
    // the sums only ever reflect whole completed rounds.
    gate_->set_goodput_source([this](std::uint64_t& delivered, std::uint64_t& wasted) {
      delivered = 0;
      wasted = 0;
      for (const auto& shard : shards_) {
        delivered += shard->dispatch.stats().copies_delivered;
        wasted += shard->bus.shed_stats().data_total() +
                  shard->dispatch.stats().quarantine_sheds;
      }
    });
    if (config_.flow.enabled()) {
      // Every shard's credit ledger resizes to the probed pool size in
      // the same probe tick — lockstep by construction.
      gate_->set_resize_listener([this](std::uint32_t size) {
        core::FlowControlConfig flow = config_.flow;
        flow.credit_window = size;
        for (auto& shard : shards_) shard->dispatch.set_flow_control(flow);
      });
    }
  }
  if (config_.use_workers && config_.shards > 1) {
    sim::WorkerPool::Config pool;
    pool.workers = config_.shards;
    pool.pin_threads = config_.pin_threads;
    pool_ = std::make_unique<sim::WorkerPool>(pool);
  }
  round_tasks_.reserve(shards_.size());
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    round_tasks_.push_back([this, s] { run_shard(*s); });
  }
}

ShardedDispatchPlane::~ShardedDispatchPlane() {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
}

std::uint32_t ShardedDispatchPlane::shard_of(core::StreamId id) const noexcept {
  return static_cast<std::uint32_t>(mix_stream_key(id.packed()) % shards_.size());
}

PlaneConsumerId ShardedDispatchPlane::add_consumer(const std::string& name, Handler handler) {
  const auto id = static_cast<PlaneConsumerId>(consumers_.size());
  ConsumerEntry entry;
  entry.name = name;
  entry.handler = std::move(handler);
  entry.address.reserve(shards_.size());
  for (std::uint32_t shard = 0; shard < shard_count(); ++shard) {
    // Every shard bus gets the same logical endpoint; the wrapper tags
    // deliveries with the shard so the handler knows which slice of the
    // plane it is running on (and which bus a credit ack belongs to).
    entry.address.push_back(shards_[shard]->bus.add_endpoint(
        name, [this, id, shard](net::Envelope envelope) {
          consumers_[id].handler(shard, std::move(envelope));
        }));
  }
  consumers_.push_back(std::move(entry));
  return id;
}

net::Address ShardedDispatchPlane::consumer_address(PlaneConsumerId consumer,
                                                    std::uint32_t shard) const {
  return consumers_.at(consumer).address.at(shard);
}

PlaneSubscriptionId ShardedDispatchPlane::subscribe(PlaneConsumerId consumer,
                                                    core::StreamPattern pattern,
                                                    core::SubscribeOptions qos) {
  SubscriptionEntry entry;
  entry.consumer = consumer;
  if (pattern.is_exact()) {
    const std::uint32_t shard = shard_of({*pattern.sensor, *pattern.stream});
    entry.parts.emplace_back(
        shard, shards_[shard]->dispatch.subscribe(consumer_address(consumer, shard),
                                                  pattern, qos));
  } else {
    // A wildcard's matching streams hash across every shard; each shard
    // installs the pattern against its own slice of the stream space.
    for (std::uint32_t shard = 0; shard < shard_count(); ++shard) {
      entry.parts.emplace_back(
          shard, shards_[shard]->dispatch.subscribe(consumer_address(consumer, shard),
                                                    pattern, qos));
    }
  }
  const PlaneSubscriptionId id = next_subscription_++;
  subscriptions_.emplace(id, std::move(entry));
  return id;
}

bool ShardedDispatchPlane::unsubscribe(PlaneSubscriptionId id) {
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return false;
  for (const auto& [shard, sub] : it->second.parts) {
    shards_[shard]->dispatch.unsubscribe(sub);
  }
  subscriptions_.erase(it);
  return true;
}

std::size_t ShardedDispatchPlane::drop_consumer(PlaneConsumerId consumer) {
  std::size_t dropped = 0;
  for (std::uint32_t shard = 0; shard < shard_count(); ++shard) {
    dropped += shards_[shard]->dispatch.drop_consumer(consumer_address(consumer, shard));
  }
  for (auto it = subscriptions_.begin(); it != subscriptions_.end();) {
    it = it->second.consumer == consumer ? subscriptions_.erase(it) : std::next(it);
  }
  return dropped;
}

void ShardedDispatchPlane::grant_credits(PlaneConsumerId consumer, std::uint32_t shard,
                                         std::uint32_t credits) {
  // The replenishment rides the owning shard's bus as a control-class
  // envelope — identical to what core::Consumer::send_credit posts — so
  // it shares fate (latency, inbox policy) with real consumer acks.
  Shard& s = *shards_[shard];
  util::ByteWriter w(4);
  w.u32(credits);
  s.bus.post(consumer_address(consumer, shard), s.dispatch.address(), core::kDeliveryCredit,
             util::take_shared(std::move(w)));
}

void ShardedDispatchPlane::inject(const core::DataMessage& message) {
  // Admission runs at the message's would-be arrival stamp, before the
  // stamp is consumed: a refused message leaves the timeline untouched,
  // so the accepted arrivals' stamps — and everything downstream of
  // them — are identical at any shard count.
  const util::SimTime at =
      timeline_ + kInjectTick * static_cast<std::int64_t>(inject_seq_ + 1);
  if (gate_ && !gate_->admit_data(at)) return;
  ++inject_seq_;
  Shard& s = *shards_[shard_of(message.stream_id)];
  queue(s, PendingInput{at, message});
  ++s.processed;
}

void ShardedDispatchPlane::ingest(const wireless::ReceptionReport& report) {
  // Route by the frame's stream id (a header peek, checksum deferred to
  // the shard's filtering). Frames that do not parse cannot name an
  // owner; shard 0 adopts them and its filtering counts them malformed.
  std::uint32_t shard = 0;
  const auto decoded =
      core::decode_view(util::BytesView(report.frame), core::ChecksumPolicy::kTrusted);
  if (decoded.ok()) shard = shard_of(decoded.value().stream_id);
  const util::SimTime at =
      timeline_ + kInjectTick * static_cast<std::int64_t>(inject_seq_ + 1);
  if (gate_ && !gate_->admit_data(at)) return;
  ++inject_seq_;
  Shard& s = *shards_[shard];
  queue(s, PendingInput{at, report});
  ++s.processed;
}

void ShardedDispatchPlane::queue(Shard& shard, PendingInput input) {
  if (shard.door.down()) {
    shard.door.hold([&shard, input = std::move(input)]() mutable {
      shard.pending.push_back(std::move(input));
    });
    return;
  }
  shard.pending.push_back(std::move(input));
}

void ShardedDispatchPlane::run_shard(Shard& shard) {
  const std::uint64_t start = sim::thread_cpu_now_ns();
  std::vector<PendingInput> batch = std::move(shard.pending);
  shard.pending.clear();
  for (auto& input : batch) {
    if (auto* message = std::get_if<core::DataMessage>(&input.input)) {
      shard.scheduler.schedule_at(
          input.at, [&shard, msg = std::move(*message), at = input.at] {
            shard.dispatch.on_filtered(msg, at);
          });
    } else {
      shard.scheduler.schedule_at(
          input.at,
          [&shard, report = std::move(std::get<wireless::ReceptionReport>(input.input))] {
            shard.filtering.ingest(report);
          });
    }
  }
  shard.last_round_events = shard.scheduler.run();
  shard.busy_ns += sim::thread_cpu_now_ns() - start;
}

std::size_t ShardedDispatchPlane::run_round() {
  if (pool_ != nullptr) {
    pool_->run(round_tasks_);
  } else {
    for (auto& task : round_tasks_) task();
  }
  std::size_t executed = 0;
  for (const auto& shard : shards_) executed += shard->last_round_events;
  merge_round();
  return executed;
}

std::size_t ShardedDispatchPlane::run_until_idle() {
  std::size_t executed = 0;
  while (pending_inputs() > 0) executed += run_round();
  return executed;
}

void ShardedDispatchPlane::merge_round() {
  // The merged clock is the maximum over the shards' post-drain clocks.
  // For a given workload that maximum is a function of arrival stamps
  // and per-shard latency chains only — not of the partition — which is
  // what keeps the timeline (and so the next round's stamps) invariant
  // across shard counts.
  util::SimTime merged = timeline_;
  for (const auto& shard : shards_) merged = std::max(merged, shard->scheduler.now());
  for (auto& shard : shards_) {
    const util::SimTime at = shard->scheduler.now();
    shard->merge_lag_ns = static_cast<std::uint64_t>((merged - at).ns);
    shard->last_round_events += shard->scheduler.advance_to(merged);
  }
  timeline_ = merged;
  inject_seq_ = 0;
  // Probe ticks fire here, at the merge barrier: the merged clock is
  // partition-invariant, the goodput sums cover whole rounds, and any
  // credit-window resize lands on every shard before the next round.
  if (gate_) gate_->advance(timeline_);
}

util::SimTime ShardedDispatchPlane::now() const { return timeline_; }

std::string ShardedDispatchPlane::merged_shed_journal() const {
  std::vector<const net::ShedRecord*> records;
  for (const auto& shard : shards_) {
    for (const auto& record : shard->bus.shed_journal()) records.push_back(&record);
  }
  // stable_sort under the cross-shard total order: records that compare
  // equal keep concatenation (shard-index, then shard-local) order, so
  // the rendering is reproducible even for byte-identical sheds.
  std::stable_sort(records.begin(), records.end(),
                   [](const net::ShedRecord* a, const net::ShedRecord* b) {
                     return net::shed_merge_before(*a, *b);
                   });
  std::string out;
  for (const net::ShedRecord* record : records) out += net::render_shed_record(*record);
  return out;
}

net::ShedStats ShardedDispatchPlane::merged_shed_stats() const {
  net::ShedStats merged;
  for (const auto& shard : shards_) merged += shard->bus.shed_stats();
  return merged;
}

core::DispatchStats ShardedDispatchPlane::merged_dispatch_stats() const {
  core::DispatchStats merged;
  for (const auto& shard : shards_) merged += shard->dispatch.stats();
  return merged;
}

core::FilteringStats ShardedDispatchPlane::merged_filtering_stats() const {
  core::FilteringStats merged;
  for (const auto& shard : shards_) merged += shard->filtering.stats();
  return merged;
}

void ShardedDispatchPlane::register_recovery(RecoveryHarness& harness,
                                             const std::string& prefix) {
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    Shard& s = *shards_[i];
    RecoveryHarness::Service spec = checkpointed(prefix + ".shard" + std::to_string(i), s.dispatch);
    spec.group = prefix;
    // The shard's endpoints live on its own bus, not the harness's, so
    // there is nothing to silence here; a crash is modelled as the
    // wipe + restore cycle on the shard's dispatcher state. Inputs
    // queued for the next round had not run yet: the wipe hands them to
    // the door, which keeps them with every input routed to the shard
    // while it is down and queues them all again at recovery.
    spec.wipe = [this, &s] {
      s.dispatch.reset_state();
      for (PendingInput& input : std::exchange(s.pending, {})) queue(s, std::move(input));
    };
    spec.apply_op = [&s](std::uint16_t kind, util::BytesView payload) {
      s.dispatch.apply_op(kind, payload);
    };
    spec.on_restart = [&s] { s.dispatch.resume_quarantined(); };
    const std::string name = spec.name;
    s.door = harness.manage(std::move(spec));
    s.dispatch.set_op_sink([&harness, name](std::uint16_t kind, util::BytesView payload) {
      harness.log_op(name, kind, payload);
    });
  }
}

void ShardedDispatchPlane::set_metrics(obs::MetricsRegistry& registry) {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
  metrics_ = &registry;
  collector_id_ = registry.add_collector([this](obs::SnapshotBuilder& out) { collect(out); });
  if (gate_) gate_->set_metrics(registry);
}

void ShardedDispatchPlane::collect(obs::SnapshotBuilder& out) const {
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    const Shard& s = *shards_[i];
    const obs::Labels labels{{"shard", std::to_string(i)}};
    out.counter("garnet.shard.msgs", s.processed, labels);
    out.gauge("garnet.shard.inbox_depth", static_cast<double>(s.bus.total_inbox_depth()),
              labels);
    out.gauge("garnet.shard.merge_lag", static_cast<double>(s.merge_lag_ns), labels);
  }
}

core::DispatchingService& ShardedDispatchPlane::dispatch(std::uint32_t shard) {
  return shards_.at(shard)->dispatch;
}

core::FilteringService& ShardedDispatchPlane::filtering(std::uint32_t shard) {
  return shards_.at(shard)->filtering;
}

core::Orphanage& ShardedDispatchPlane::orphanage(std::uint32_t shard) {
  return shards_.at(shard)->orphanage;
}

net::MessageBus& ShardedDispatchPlane::bus(std::uint32_t shard) {
  return shards_.at(shard)->bus;
}

sim::Scheduler& ShardedDispatchPlane::scheduler(std::uint32_t shard) {
  return shards_.at(shard)->scheduler;
}

std::uint64_t ShardedDispatchPlane::processed(std::uint32_t shard) const {
  return shards_.at(shard)->processed;
}

std::uint64_t ShardedDispatchPlane::busy_ns(std::uint32_t shard) const {
  return shards_.at(shard)->busy_ns;
}

std::uint64_t ShardedDispatchPlane::pending_inputs() const {
  std::uint64_t pending = 0;
  for (const auto& shard : shards_) pending += shard->pending.size();
  return pending;
}

}  // namespace garnet
