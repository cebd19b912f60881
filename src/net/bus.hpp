// Fixed-network messaging substrate.
//
// Figure 1 shows two interaction styles among Garnet's services:
// event-based asynchronous message passing (the default — "unless
// otherwise indicated, communication is based on asynchronous message
// exchange", §3) and remote procedure call (net/rpc.hpp, layered on this
// bus). Services are logically separate entities exchanging serialised
// envelopes; a configurable delivery latency models the fixed network.
//
// Delivery is *not* unconditionally reliable: a FaultPlan (net/fault.hpp)
// installs a deterministic FaultInjector that can drop, delay, duplicate,
// reorder, or partition traffic — the substrate the chaos suite and the
// RPC retry layer are exercised against. With no plan configured the bus
// behaves exactly as before: every envelope arrives after latency+jitter.
//
// Endpoints may additionally carry a *bounded inbox* (net/overload.hpp):
// a finite two-class queue with a per-envelope service time. Control
// traffic (RPC framing plus registered control types) is dequeued ahead
// of data deliveries and is never shed while data remains to shed; data
// past capacity is shed by the endpoint's OverflowPolicy. Endpoints
// without an inbox config keep the historical hand-to-handler-on-arrival
// behaviour exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/fault.hpp"
#include "net/overload.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/shared_bytes.hpp"
#include "util/time.hpp"

namespace garnet::net {

/// Endpoint address on the fixed network. 0 is never a valid address.
struct Address {
  std::uint32_t value = 0;
  [[nodiscard]] bool valid() const noexcept { return value != 0; }
  constexpr auto operator<=>(const Address&) const = default;
};

/// Application-level message type tag. Values below 100 are reserved for
/// the substrate (RPC framing); services define their own above that.
enum class MessageType : std::uint16_t {
  kRpcRequest = 1,
  kRpcResponse = 2,
  kAppBase = 100,
};

[[nodiscard]] constexpr MessageType app_type(std::uint16_t offset) {
  return static_cast<MessageType>(static_cast<std::uint16_t>(MessageType::kAppBase) + offset);
}

/// One message in flight. The payload is an immutable shared buffer:
/// fan-out posts, fault-injected duplicates and retry re-sends all alias
/// one allocation, and copying an Envelope is a refcount bump.
struct Envelope {
  Address from;
  Address to;
  MessageType type = MessageType::kAppBase;
  util::SharedBytes payload;
  util::SimTime sent_at;
};

struct BusStats {
  std::uint64_t posted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_no_endpoint = 0;
  std::uint64_t dropped_endpoint_down = 0;  ///< Arrived while the endpoint was crashed.
  std::uint64_t bytes = 0;
};

/// Caller/callee-side RPC reliability counters, aggregated on the bus
/// because RpcNodes are ephemeral (services create and destroy them) while
/// the bus spans the deployment. Surfaced as garnet.rpc.* by the bus's
/// telemetry collector.
struct RpcStats {
  std::uint64_t calls = 0;      ///< call() invocations (first attempts).
  std::uint64_t retries = 0;    ///< Re-sent attempts after a timeout.
  std::uint64_t exhausted = 0;  ///< Calls that failed after the full budget.
  std::uint64_t deduped = 0;    ///< Requests answered from the callee cache.
  std::uint64_t breaker_opens = 0;      ///< closed/half-open -> open edges.
  std::uint64_t breaker_fast_fails = 0; ///< Calls rejected while not closed.
  std::uint64_t open_breakers = 0;      ///< Breakers currently not closed.
};

/// One shed event, for the replay journal (determinism tests compare the
/// text rendering byte-for-byte across runs).
struct ShedRecord {
  util::SimTime at;
  std::string from;
  std::string to;
  TrafficClass cls = TrafficClass::kData;
  OverflowPolicy policy = OverflowPolicy::kDropNewest;
  std::uint16_t type = 0;
};

/// Canonical one-line rendering of one shed event — shared by the bus's
/// own journal and the shard plane's cross-shard merge, so both produce
/// byte-identical text for identical records.
[[nodiscard]] std::string render_shed_record(const ShedRecord& record);

/// Total order used by the shard plane's deterministic merge: ascending
/// (virtual time, destination, source, type, class, policy). Records a
/// single endpoint pair sheds at distinct times sort by time alone, so
/// a link that lives wholly on one shard renders identically at any
/// shard count; cross-link ties break by name, never by shard index.
[[nodiscard]] bool shed_merge_before(const ShedRecord& a, const ShedRecord& b);

class MessageBus {
 public:
  struct Config {
    util::Duration latency = util::Duration::micros(200);
    util::Duration max_jitter = util::Duration::micros(100);
    /// Deterministic chaos regime; default-constructed = fully reliable.
    FaultPlan faults;

    /// Bounded inboxes, keyed by endpoint name (stable across runs, like
    /// FaultPlan links). An endpoint without an entry has none: direct
    /// delivery, no queueing, no shedding.
    std::map<std::string, InboxConfig> inboxes;
    /// App-level message types scheduled as control plane in addition to
    /// the substrate types (< kAppBase), e.g. actuation and credit
    /// replenishment. The runtime registers core's control types here.
    std::vector<MessageType> control_types;
    /// Default circuit-breaker contract for every RpcNode on this bus.
    BreakerConfig breaker;
    /// When > 0, record the first N shed events in a byte-comparable
    /// journal (same contract as FaultPlan::journal_limit).
    std::size_t shed_journal_limit = 0;
  };

  MessageBus(sim::Scheduler& scheduler, Config config);
  ~MessageBus();

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  using Handler = std::function<void(Envelope)>;

  /// Registers a named endpoint; the name supports discovery. Names must
  /// be unique. Returns the new address. The endpoint's inbox comes from
  /// Config::inboxes[name].
  Address add_endpoint(std::string name, Handler handler);

  void remove_endpoint(Address address);

  /// Name-based discovery (paper §3: "typical ... discovery" mechanisms).
  [[nodiscard]] std::optional<Address> lookup(const std::string& name) const;

  /// Posts an envelope for asynchronous delivery after latency + jitter.
  /// The payload is shared, not copied: posting the same SharedBytes to N
  /// destinations is N refcount bumps on one buffer. The fault injector
  /// (when configured) may drop, delay, or duplicate it; links are
  /// identified by endpoint names, so plans are stable across runs.
  void post(Address from, Address to, MessageType type, util::SharedBytes payload);

  /// Marks a named endpoint down (crashed) or back up. While down, the
  /// endpoint keeps its name and address — discovery still resolves, and
  /// senders keep posting — but every arrival is counted and discarded,
  /// modelling a crash-stop process whose peers cannot tell it is gone.
  /// Going down also wipes any queued inbox envelopes (volatile memory
  /// dies with the process). Unknown names are ignored.
  void set_endpoint_down(const std::string& name, bool down);
  [[nodiscard]] bool endpoint_down(const std::string& name) const;

  /// Registers native telemetry instruments (envelope transit-time and
  /// size distributions) and a pull collector exposing the bus counters
  /// (garnet.bus.posted/delivered/dropped_no_endpoint/bytes), the
  /// payload-path accounting (garnet.bus.payload_*), the fault counters
  /// (garnet.bus.faults{kind=...}), the overload accounting
  /// (garnet.bus.shed{class,policy}, garnet.bus.inbox_depth), and the
  /// RPC reliability + breaker counters
  /// (garnet.rpc.*).
  void set_metrics(obs::MetricsRegistry& registry);

  /// Fault injector installed by Config::faults; nullptr when the plan is
  /// disabled. Non-owning — used for manual partition control and for
  /// reading fault counters / the replay journal.
  [[nodiscard]] FaultInjector* fault_injector() noexcept { return injector_.get(); }
  [[nodiscard]] const FaultInjector* fault_injector() const noexcept { return injector_.get(); }

  [[nodiscard]] RpcStats& rpc_stats() noexcept { return rpc_stats_; }
  [[nodiscard]] const RpcStats& rpc_stats() const noexcept { return rpc_stats_; }

  /// Shed accounting across every bounded inbox on the bus.
  [[nodiscard]] const ShedStats& shed_stats() const noexcept { return shed_stats_; }
  /// Deterministic one-line-per-shed rendering for replay comparison
  /// (empty unless Config::shed_journal_limit > 0).
  [[nodiscard]] std::string shed_journal_text() const;
  /// The raw journal records (the shard plane merges these across its
  /// per-shard buses before rendering).
  [[nodiscard]] const std::vector<ShedRecord>& shed_journal() const noexcept {
    return shed_journal_;
  }

  /// Queued envelopes at one endpoint (0 for inactive inboxes or unknown
  /// addresses); the in-service envelope is not counted.
  [[nodiscard]] std::size_t inbox_depth(Address address) const;
  /// Sum of all endpoint inbox depths.
  [[nodiscard]] std::size_t total_inbox_depth() const;

  /// Scheduling class of a message type under this bus's configuration.
  [[nodiscard]] TrafficClass classify(MessageType type) const;

  /// Default circuit-breaker contract RpcNodes inherit at construction.
  [[nodiscard]] const BreakerConfig& breaker_config() const noexcept { return config_.breaker; }

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] util::SimTime now() const noexcept { return scheduler_.now(); }

 private:
  /// Two-class bounded queue with a serial server: one envelope is in
  /// service for `service_time`; arrivals meanwhile queue, control ahead
  /// of data; past capacity the OverflowPolicy decides who is shed.
  struct Inbox {
    InboxConfig config;
    std::deque<Envelope> control;
    std::deque<Envelope> data;
    bool busy = false;

    [[nodiscard]] std::size_t depth() const noexcept { return control.size() + data.size(); }
    explicit Inbox(InboxConfig c) : config(c) {}
  };

  struct EndpointEntry {
    std::string name;
    Handler handler;
    std::unique_ptr<Inbox> inbox;  ///< Null when the inbox is inactive.
    bool down = false;             ///< Crashed: arrivals counted and discarded.
  };

  void deliver_after(util::Duration delay, Envelope envelope);
  void arrive(Envelope envelope);
  void enqueue(EndpointEntry& entry, Envelope envelope);
  void serve(EndpointEntry& entry, Envelope envelope);
  void service_done(Address address);
  void shed(const Envelope& envelope, TrafficClass cls, OverflowPolicy policy);
  [[nodiscard]] EndpointEntry* find(Address address) const noexcept {
    return address.value < endpoints_.size() ? endpoints_[address.value].get() : nullptr;
  }
  [[nodiscard]] const std::string& name_of(Address address) const;
  void collect(obs::SnapshotBuilder& out) const;

  sim::Scheduler& scheduler_;
  Config config_;
  std::unordered_set<std::uint16_t> control_types_;
  /// Indexed by Address::value. Addresses are handed out in sequence and
  /// never reused, so slot 0 (the invalid address) and removed endpoints
  /// stay null. Entries are boxed because a handler may add an endpoint
  /// while its own entry is running.
  std::vector<std::unique_ptr<EndpointEntry>> endpoints_;
  std::unordered_map<std::string, std::uint32_t> names_;
  std::uint64_t jitter_state_ = 0x6A1B2C3D4E5F6071ull;
  BusStats stats_;
  RpcStats rpc_stats_;
  ShedStats shed_stats_;
  std::vector<ShedRecord> shed_journal_;
  std::unique_ptr<FaultInjector> injector_;
  obs::Histogram* transit_histogram_ = nullptr;
  obs::Histogram* size_histogram_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;
};

}  // namespace garnet::net
