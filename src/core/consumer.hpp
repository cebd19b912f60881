// Consumer-process library.
//
// The application-facing half of Garnet: a Consumer owns a bus endpoint,
// subscribes to streams by pattern, receives deliveries, issues stream-
// update requests down the actuation path, reports its state to the Super
// Coordinator, supplies location hints, and can re-publish *derived*
// streams — the multi-level consumption the paper highlights ("each layer
// offers increasingly enhanced services to successive levels", §4.2).
//
// Consumers are mutually unaware: nothing here names another consumer,
// and all mediation happens inside the middleware services.
//
// Identity provisioning (AuthService registration) happens out-of-band
// through the Runtime facade, like an operator issuing credentials; the
// consumer then presents its token on every privileged interaction.
#pragma once

#include <functional>
#include <string>

#include "core/actuation.hpp"
#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/dispatch.hpp"
#include "core/wire_types.hpp"
#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace garnet::core {

/// Outcomes of the consumer's control-plane RPCs under network faults:
/// each counter is a give-up after the per-call retry budget was spent.
/// The consumer degrades (callbacks fire with a failure) instead of
/// stalling. Surfaced as garnet.consumer.rpc_failures{op,consumer} via
/// set_metrics — there is no accessor.
struct ConsumerNetStats {
  std::uint64_t subscribe_failures = 0;
  std::uint64_t unsubscribe_failures = 0;
  std::uint64_t update_failures = 0;    ///< Actuation demands.
  std::uint64_t catalog_failures = 0;   ///< Discover / advertise / allocate.
};

class Consumer {
 public:
  /// `endpoint_name` must be unique on the bus (e.g. "consumer.flood-watch").
  Consumer(net::MessageBus& bus, std::string endpoint_name);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Installs the credentials issued by the operator (Runtime facade).
  void set_identity(const ConsumerIdentity& identity) { identity_ = identity; }
  [[nodiscard]] const ConsumerIdentity& identity() const noexcept { return identity_; }
  [[nodiscard]] net::Address address() const noexcept { return node_.address(); }

  // --- data plane ---------------------------------------------------------

  /// Handlers receive a zero-copy view whose payload aliases the wire
  /// buffer. Copying the view retains that buffer, so a handler may keep
  /// it without copying payload bytes.
  using DataHandler = std::function<void(const DeliveryView&)>;
  void set_data_handler(DataHandler handler) { data_handler_ = std::move(handler); }
  /// Current handler (utilities like StreamRecorder chain in front of it).
  [[nodiscard]] const DataHandler& data_handler() const noexcept { return data_handler_; }

  using SubscribeCallback = std::function<void(util::Result<SubscriptionId, net::RpcError>)>;
  void subscribe(StreamPattern pattern, SubscribeCallback on_done = {});
  /// Subscription with per-consumer QoS (rate cap / staleness bound).
  void subscribe(StreamPattern pattern, SubscribeOptions qos, SubscribeCallback on_done = {});
  void unsubscribe(SubscriptionId id);

  /// Publishes one message on a derived stream this consumer owns. The
  /// kDerived flag is set automatically; sequence numbers are managed per
  /// stream id. The payload is encoded straight into the outgoing frame.
  void publish_derived(StreamId id, util::BytesView payload, std::uint8_t extra_flags = 0);

  // --- control plane ------------------------------------------------------

  using UpdateCallback =
      std::function<void(std::uint32_t request_id, Admission admission, std::uint32_t effective)>;
  void request_update(StreamId target, UpdateAction action, std::uint32_t value,
                      UpdateCallback on_done = {});

  void report_state(std::uint32_t state);
  void send_location_hint(const LocationHint& hint);

  // --- discovery ------------------------------------------------------------

  struct DiscoveryQuery {
    std::optional<SensorId> sensor;
    std::string stream_class;  ///< Empty matches any class.
    bool include_unadvertised = true;
  };
  using DiscoverCallback = std::function<void(std::vector<StreamInfo>)>;
  /// Remote catalog discovery; the callback receives matching streams
  /// (empty on failure).
  void discover(const DiscoveryQuery& query, DiscoverCallback on_done);

  /// Advertises a stream this consumer produces (or curates).
  void advertise(StreamId id, const std::string& name, const std::string& stream_class);

  /// Allocates a fresh derived-stream id from the catalog.
  using AllocateCallback = std::function<void(util::Result<StreamId, net::RpcError>)>;
  void allocate_derived_stream(AllocateCallback on_done);

  // --- introspection ------------------------------------------------------

  /// Message traces: delivery to this consumer closes the "deliver" span
  /// and completes the journey (installed by Runtime::provision).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Registers a pull collector exposing this consumer's control-plane
  /// RPC give-ups as garnet.consumer.rpc_failures{op,consumer=<endpoint>}
  /// plus garnet.consumer.received and garnet.consumer.credit_acks.
  /// Deregistered automatically on destruction (the registry must
  /// outlive the consumer).
  void set_metrics(obs::MetricsRegistry& registry);

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  /// Delivery window granted by the dispatcher (0 until a subscribe
  /// reply arrives under flow control).
  [[nodiscard]] std::uint32_t credit_window() const noexcept { return credit_window_; }

 private:
  void on_envelope(net::Envelope envelope);
  [[nodiscard]] net::Address resolve(const char* name);
  /// The base policy with the operation's idempotency applied.
  [[nodiscard]] net::CallOptions options_for(bool idempotent) const;

  void collect(obs::SnapshotBuilder& out) const;
  void send_credit();

  net::MessageBus& bus_;
  std::string name_;  ///< Endpoint name; labels this consumer's metrics.
  net::RpcNode node_;
  ConsumerIdentity identity_;
  DataHandler data_handler_;
  ConsumerNetStats net_stats_;
  std::unordered_map<std::uint32_t, SequenceNo> derived_sequences_;
  std::uint64_t received_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t credit_window_ = 0;  ///< From the subscribe reply; 0 = no flow control.
  std::uint64_t credit_acks_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;

  /// Base reliability contract for every control-plane RPC this consumer
  /// issues (per-call idempotency is set by the operation): a few retries
  /// with exponential backoff before degrading.
  [[nodiscard]] static net::CallOptions default_call_options() {
    net::CallOptions options;
    options.retries = 4;
    options.backoff = util::Duration::millis(2);
    options.max_backoff = util::Duration::millis(50);
    return options;
  }
};

}  // namespace garnet::core
