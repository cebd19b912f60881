// Resource Manager (paper §4.2, §6).
//
// Consumers are mutually unaware, so their stream-update requests can
// conflict — two applications may demand different sampling rates from
// the same unwittingly-shared sensor. "Approval is sought from the
// Resource Manager which exercises control over the permissible actions
// which a set of consumers may request."
//
// The manager keeps an *approximate overview of sensor configuration*
// (§6): per-sensor constraint profiles registered at deployment plus the
// interval it believes each stream currently runs at. Admission applies,
// in order: authentication/trust, device constraints (clamping), then a
// pluggable conflict policy across the active demands of all consumers.
//
// The Super Coordinator may change the conflict policy at runtime and may
// pre-arm decisions it predicts are coming, short-circuiting the
// evaluation latency (experiment E5).
#pragma once

#include <functional>
#include <map>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/auth.hpp"
#include "core/constraints.hpp"
#include "core/stream_update.hpp"
#include "net/rpc.hpp"
#include "sim/scheduler.hpp"
#include "wireless/sensor.hpp"

namespace garnet::core {

/// How conflicting demands on one stream are mediated.
enum class ConflictPolicy : std::uint8_t {
  kMostDemandingWins = 0,  ///< Fastest requested rate serves everyone.
  kPriorityWins = 1,       ///< Highest-priority consumer's demand rules.
  kMerge = 2,              ///< Median demand; splits the difference.
  kRejectConflicts = 3,    ///< Later conflicting requests are denied.
};

[[nodiscard]] std::string_view to_string(ConflictPolicy p);

enum class Admission : std::uint8_t {
  kApproved = 0,  ///< Request admitted as asked.
  kModified = 1,  ///< Admitted with an adjusted value (clamp/mediation).
  kDenied = 2,
};

struct Decision {
  Admission admission = Admission::kDenied;
  std::uint32_t effective_value = 0;  ///< Value actually sent to the sensor.
  std::string_view reason;            ///< Static string; diagnostic only.
};

/// Deployment-time knowledge about one sensor (the approximate overview).
struct SensorProfile {
  SensorId id = 0;
  bool receive_capable = true;
  std::map<InternalStreamId, wireless::StreamConstraints> constraints;
  /// Optional codified constraints (paper §8's constraint language),
  /// enforced *in addition* to the structural limits above. See
  /// ResourceManager::codify for installing them from text.
  std::map<InternalStreamId, ConstraintSet> codified;
};

struct ResourceStats {
  std::uint64_t evaluated = 0;
  std::uint64_t approved = 0;
  std::uint64_t modified = 0;
  std::uint64_t denied = 0;
  std::uint64_t trusted_overrides = 0;
  std::uint64_t prearm_hits = 0;   ///< Evaluations served from a pre-arm.
  std::uint64_t policy_changes = 0;
};

class ResourceManager {
 public:
  enum Method : net::MethodId {
    kEvaluate = 1,  ///< [u64 token][u32 packed stream][u8 action][u32 value]
                    ///< -> [u8 admission][u32 effective]
  };

  static constexpr const char* kEndpointName = "garnet.resource";

  struct Config {
    ConflictPolicy policy = ConflictPolicy::kMostDemandingWins;
    /// Deliberation latency per evaluation (policy lookup, constraint
    /// store access); pre-armed requests skip it.
    util::Duration evaluation_delay = util::Duration::millis(5);
    /// Trusted consumers may override kRejectConflicts denials (§9).
    bool allow_trusted_override = true;
    /// Demands idle longer than this stop influencing mediation.
    util::Duration demand_ttl = util::Duration::seconds(300);
  };

  ResourceManager(net::MessageBus& bus, AuthService& auth, Config config);

  /// Registers deployment knowledge about a sensor.
  void register_profile(SensorProfile profile);

  /// Compiles constraint text (core/constraints.hpp) and installs it for
  /// one stream, creating the profile if needed — "codification of
  /// sensor constraints via ... an expressive language [to] facilitate
  /// the operation of the resource manager in automatically enforcing
  /// such limits" (paper §8).
  util::Status<ParseError> codify(SensorId sensor, InternalStreamId stream,
                                  std::string_view constraint_text);

  /// Asynchronous admission: `on_decision` fires after the evaluation
  /// delay (or immediately on a pre-arm hit).
  void evaluate(ConsumerToken token, StreamId target, UpdateAction action, std::uint32_t value,
                std::function<void(Decision)> on_decision);

  /// Synchronous core (tests and the pre-arm path use this directly).
  Decision evaluate_now(ConsumerToken token, StreamId target, UpdateAction action,
                        std::uint32_t value);

  /// Super Coordinator hooks -------------------------------------------

  /// Pre-computes and caches the decision for an anticipated request; the
  /// matching evaluate() is then served without the evaluation delay.
  void prearm(ConsumerToken token, StreamId target, UpdateAction action, std::uint32_t value);

  /// Runtime policy change ("the Super Coordinator may invoke policy
  /// changes in the strategy used by the Resource Manager").
  void set_policy(ConflictPolicy policy);

  /// Withdraws every demand a departing consumer holds, so mediation
  /// stops honouring it immediately (rather than waiting for demand_ttl).
  /// Returns how many stream ledgers were touched.
  std::size_t withdraw_consumer(ConsumerToken token);

  /// Introspection ------------------------------------------------------

  /// The interval the manager believes a stream currently runs at.
  [[nodiscard]] std::optional<std::uint32_t> believed_interval(StreamId id) const;
  [[nodiscard]] const ResourceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ConflictPolicy policy() const noexcept { return config_.policy; }
  [[nodiscard]] net::Address address() const noexcept { return node_.address(); }

 private:
  struct Demand {
    ConsumerToken consumer;
    std::uint8_t priority;
    std::uint32_t interval_ms;
    util::SimTime at;
  };
  struct StreamLedger {
    std::vector<Demand> demands;         ///< One per consumer, newest wins.
    std::uint32_t believed_interval = 0; ///< 0 = unknown.
    bool believed_enabled = true;
  };
  struct PrearmKey {
    ConsumerToken token;
    std::uint32_t stream_packed;
    std::uint8_t action;
    bool operator==(const PrearmKey&) const = default;
  };
  struct PrearmKeyHash {
    std::size_t operator()(const PrearmKey& k) const {
      return std::hash<std::uint64_t>{}(k.token ^ (static_cast<std::uint64_t>(k.stream_packed) << 8) ^
                                        k.action);
    }
  };

  Decision mediate_interval(StreamLedger& ledger, const ConsumerIdentity& who,
                            const wireless::StreamConstraints* constraints,
                            const ConstraintSet* codified, std::uint32_t asked);
  void record_outcome(const Decision& decision);

  net::MessageBus& bus_;
  AuthService& auth_;
  Config config_;
  net::RpcNode node_;
  struct PrearmedDecision {
    Decision decision;
    util::SimTime armed_at;
  };

  std::unordered_map<SensorId, SensorProfile> profiles_;
  std::unordered_map<StreamId, StreamLedger> ledgers_;
  std::unordered_map<PrearmKey, PrearmedDecision, PrearmKeyHash> prearmed_;
  ResourceStats stats_;
};

}  // namespace garnet::core
