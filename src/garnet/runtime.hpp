// Garnet runtime: one deployable instance of the whole Figure-1 system.
//
// Owns the virtual clock, the wireless substrate, the fixed-network bus
// and every middleware service, and wires them exactly as the paper's
// architecture diagram shows:
//
//   sensors --radio--> receivers -> Filtering -> Dispatching -> consumers
//                          |             |            +--> Orphanage (unclaimed)
//                          |       (copy metadata)    +--> ack observations
//                          v             v                      |
//                      Location  <---  hints                    v
//   sensors <--radio-- Transmitters <- Replicator <- Actuation <--- Resource Mgr
//                                                                       ^
//                consumers --state changes--> Super Coordinator --------+
//
// Applications normally construct a Runtime, deploy receivers /
// transmitters / sensors, provision consumers, and run the scheduler.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "core/actuation.hpp"
#include "core/auth.hpp"
#include "core/catalog.hpp"
#include "core/catalog_service.hpp"
#include "core/consumer.hpp"
#include "core/coordinator.hpp"
#include "core/dispatch.hpp"
#include "core/filtering.hpp"
#include "core/location.hpp"
#include "core/orphanage.hpp"
#include "core/replicator.hpp"
#include "core/resource.hpp"
#include "garnet/recovery.hpp"
#include "net/admission.hpp"
#include "net/bus.hpp"
#include "obs/telemetry.hpp"
#include "sim/scheduler.hpp"
#include "wireless/field.hpp"

namespace garnet {

class Runtime {
 public:
  struct Config {
    wireless::SensorField::Config field;
    /// Bus latency and jitter, deterministic network chaos (`faults`:
    /// drops, duplicates, delays, partitions, crashes), bounded inboxes,
    /// the circuit-breaker contract and the shed journal. The runtime
    /// appends core's control-plane message types to `control_types`.
    net::MessageBus::Config bus;
    /// Dispatch credit-based backpressure; a zero window disables it.
    core::FlowControlConfig flow;
    /// Adaptive admission control (net/admission.hpp): throughput-probed
    /// ticket pools gating the data-ingest door (radio uplinks and
    /// inject_external). Off by default. When enabled alongside a
    /// flow.credit_window, the dispatch credit window tracks the probed
    /// data-pool size instead of staying a hand-tuned constant.
    /// Control-plane traffic (heartbeats, breaker probes, credits) never
    /// touches the data pool.
    net::AdmissionConfig admission;
    /// Crash recovery: checkpoints + replicated op-logs for the stateful
    /// services (filtering, dispatch, location, catalog). Off by default;
    /// when enabled, FaultPlan::crashes can kill and revive any of them
    /// mid-run and the harness restores state and replays the gap.
    RecoveryConfig recovery;
    core::AuthService::Config auth;
    core::Orphanage::Config orphanage;
    core::ResourceManager::Config resource;
    core::ActuationService::Config actuation;
    obs::Tracer::Config trace;

    /// Re-publish location estimates as a subscribable derived stream
    /// (paper §2 treats location as "any other data stream"), at most
    /// one message per sensor per second.
    bool publish_location_stream = false;
  };

  Runtime() : Runtime(Config{}) {}
  explicit Runtime(Config config);

  // --- deployment helpers -------------------------------------------------

  /// Grid of receivers; re-announces the layout to the Location Service.
  void deploy_receivers(std::size_t count, double range_m);
  void deploy_transmitters(std::size_t count, double range_m);

  /// Adds a random-waypoint population and registers Resource Manager
  /// profiles for it.
  void deploy_population(const wireless::SensorField::PopulationSpec& spec);

  /// Adds one explicit sensor and registers its profile.
  wireless::SensorNode& deploy_sensor(wireless::SensorNode::Config config,
                                      std::unique_ptr<sim::MobilityModel> mobility);

  /// Issues credentials to a consumer (out-of-band provisioning) and
  /// installs them on it. `trust` overrides the auth default when set.
  core::ConsumerIdentity provision(core::Consumer& consumer, const std::string& name,
                                   std::uint8_t priority = 100,
                                   std::optional<core::TrustLevel> trust = std::nullopt);

  /// Allocates + advertises a derived stream for a multi-level consumer.
  core::StreamId create_derived_stream(const std::string& name, const std::string& stream_class);

  /// Tears down a consumer's presence in the middleware: revokes its
  /// token, drops its subscriptions, and withdraws its actuation demands
  /// so mediation stops honouring them. The Consumer object itself stays
  /// usable as a bus endpoint (it simply has no rights left).
  void deprovision(core::Consumer& consumer);

  /// Injects one externally-produced Figure-2 message into the pipeline
  /// at the dispatch stage — the embedding hook for ingress that did not
  /// cross the radio (the garnet-gw socket gateway, replayed archives).
  /// The view's payload may alias the caller's receive buffer; fan-out
  /// re-encodes into the shared delivery frame without a counted copy.
  /// External frames bypass Filtering (the producer's TCP stream is
  /// already loss-free and in order), so no dedup state is touched.
  /// First-heard is stamped "now". With crash recovery enabled and
  /// dispatch down, dispatch's recovery door holds the frame exactly
  /// like filtered traffic and hands it to dispatch when it recovers.
  /// With admission enabled, the frame must first win a data ticket;
  /// refused frames are shed at the door (admission stats count them)
  /// and are not counted in external_in().
  void inject_external(const core::DataMessageView& message);

  /// Externally-injected messages accepted so far (inject_external).
  [[nodiscard]] std::uint64_t external_in() const noexcept { return external_in_; }

  // --- execution ------------------------------------------------------------

  void start_sensors() { field_.start_all(); }
  void run_for(util::Duration span) { scheduler_.run_for(span); }
  void run_until_idle() { scheduler_.run(); }

  // --- component access -----------------------------------------------------

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] wireless::SensorField& field() noexcept { return field_; }
  [[nodiscard]] net::MessageBus& bus() noexcept { return bus_; }
  [[nodiscard]] core::AuthService& auth() noexcept { return auth_; }
  [[nodiscard]] core::StreamCatalog& catalog() noexcept { return catalog_; }
  [[nodiscard]] core::FilteringService& filtering() noexcept { return filtering_; }
  [[nodiscard]] core::DispatchingService& dispatch() noexcept { return dispatch_; }
  [[nodiscard]] core::Orphanage& orphanage() noexcept { return orphanage_; }
  [[nodiscard]] core::LocationService& location() noexcept { return location_; }
  [[nodiscard]] core::ResourceManager& resource() noexcept { return resource_; }
  [[nodiscard]] core::MessageReplicator& replicator() noexcept { return replicator_; }
  [[nodiscard]] core::ActuationService& actuation() noexcept { return actuation_; }
  [[nodiscard]] core::SuperCoordinator& coordinator() noexcept { return coordinator_; }
  [[nodiscard]] core::CatalogService& catalog_service() noexcept { return catalog_service_; }
  /// Crash-recovery harness; nullptr unless Config::recovery.enabled.
  [[nodiscard]] RecoveryHarness* recovery() noexcept { return recovery_.get(); }
  /// Admission gate; nullptr unless Config::admission.enabled. Also
  /// reachable over the wire: the runtime registers an "admission" bus
  /// endpoint accepting kAdmissionRelease / kGoodputReport frames.
  [[nodiscard]] net::AdmissionGate* admission() noexcept { return admission_.get(); }
  /// Metrics registry + message tracer; every service is wired into it.
  [[nodiscard]] obs::Telemetry& telemetry() noexcept { return telemetry_; }

  /// Id of the derived stream carrying location updates (when enabled).
  [[nodiscard]] std::optional<core::StreamId> location_stream() const noexcept {
    return location_stream_;
  }

 private:
  void wire_services();
  /// Registers the four stateful services with the recovery harness and
  /// binds the fault injector's crash events to it.
  void wire_recovery();
  void publish_location(core::SensorId sensor, const core::LocationEstimate& estimate);
  /// The one way into dispatch for data (filtered, external, location):
  /// on_filtered() while dispatch runs; while it is crashed, its
  /// recovery door holds the message instead.
  void dispatch_or_hold(const core::DataMessageView& message, util::SimTime first_heard);
  /// The same for a receiver's copy bound for filtering.
  void filter_or_hold(const wireless::ReceptionReport& report);
  /// Pull-collector surfacing every service's plain stats struct.
  void collect_service_stats(obs::SnapshotBuilder& out);

  Config config_;
  obs::Telemetry telemetry_;
  sim::Scheduler scheduler_;
  wireless::SensorField field_;
  net::MessageBus bus_;
  core::AuthService auth_;
  core::StreamCatalog catalog_;
  core::FilteringService filtering_;
  core::DispatchingService dispatch_;
  core::Orphanage orphanage_;
  core::LocationService location_;
  core::ResourceManager resource_;
  core::MessageReplicator replicator_;
  core::ActuationService actuation_;
  core::SuperCoordinator coordinator_;
  core::CatalogService catalog_service_;
  /// Optional admission gate (Config::admission). Declared before the
  /// harness so its resize listener outlives it.
  std::unique_ptr<net::AdmissionGate> admission_;
  /// Declared after every service it manages: destroyed first, so its
  /// collector/timers never outlive the services its hooks capture.
  std::unique_ptr<RecoveryHarness> recovery_;

  /// Recovery doors of the services the runtime feeds directly; never
  /// down while recovery is disabled.
  RecoveryHarness::Door filtering_door_;
  RecoveryHarness::Door dispatch_door_;
  RecoveryHarness::Door location_door_;

  std::optional<core::StreamId> location_stream_;
  std::uint64_t external_in_ = 0;
  core::SequenceNo location_sequence_ = 0;
  std::unordered_map<core::SensorId, util::SimTime> last_location_publish_;
};

}  // namespace garnet
