// Deterministic fault injection for the fixed-network bus.
//
// The paper presumes "service-level parallelism and replication ... for
// efficiency, data-integrity, and fault-tolerance" (§3), which only
// matters if the network can actually fail. A FaultPlan describes the
// failure regime — per-link and global drop probability, extra latency,
// duplication, reordering, and named partitions that open and heal at
// sim times — and a FaultInjector executes it from one seed, so every
// chaos run replays exactly: same plan + same workload ⇒ byte-identical
// fault sequence and identical telemetry counters.
//
// The injector sits inside MessageBus::post. Links are identified by
// endpoint *names* (stable across runs), not addresses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace garnet::net {

enum class FaultKind : std::uint8_t {
  kDrop,       ///< Envelope silently discarded.
  kDuplicate,  ///< A second copy delivered after the first.
  kDelay,      ///< Deterministic extra latency added.
  kReorder,    ///< Randomised extra latency; may overtake later posts.
  kPartition,  ///< Dropped because an open partition separates the link.
  kCrash,      ///< A service process killed at a scheduled sim time.
  kRestart,    ///< A crashed service process revived after its delay.
  kRelayCrash,    ///< A relay sensor node killed at a scheduled sim time.
  kRelayRestart,  ///< A crashed relay revived (rejoins the tree cold).
  kBeaconLoss,    ///< A relay stops hearing tree beacons (radio fault).
  kBeaconRestore, ///< Beacon reception restored.
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// Fault parameters for one link (or the global default). Probabilities
/// are evaluated independently per envelope, in a fixed draw order.
struct LinkFaults {
  double drop = 0.0;       ///< P(envelope never arrives).
  double duplicate = 0.0;  ///< P(envelope arrives twice).
  double reorder = 0.0;    ///< P(envelope gets a random extra delay).
  util::Duration extra_latency{};  ///< Added to every envelope on the link.
  util::Duration reorder_window = util::Duration::millis(2);  ///< U[0, window) when reordered.
  /// Drops exactly the first N envelopes on the link — a deterministic
  /// loss primitive for tests that need "the first response is lost"
  /// without tuning seeds.
  std::uint32_t drop_first = 0;

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 || extra_latency.ns > 0 ||
           drop_first > 0;
  }
};

/// A complete, replayable description of a chaos run.
struct FaultPlan {
  std::uint64_t seed = 0xC4A05FA017ull;

  /// Applied to every envelope whose link has no dedicated entry.
  LinkFaults global;

  /// Per-link overrides, keyed by (from endpoint name, to endpoint name).
  std::map<std::pair<std::string, std::string>, LinkFaults> links;

  /// A named partition isolates `members` from every other endpoint (both
  /// directions) while open; traffic among members still flows.
  struct PartitionSpec {
    std::string name;
    std::vector<std::string> members;
    util::SimTime opens_at{};                  ///< <= 0 opens immediately.
    std::optional<util::SimTime> heals_at;     ///< Unset: heals only manually.
  };
  std::vector<PartitionSpec> partitions;

  /// A scheduled process crash: the named service (a garnet/recovery
  /// service name, e.g. "dispatch") dies at `at` and, when `restart_after`
  /// is set, rejoins that much later. Crash events are time-scheduled like
  /// partitions — they consume no RNG draws, so adding one never perturbs
  /// the link-fault decision stream of an otherwise identical plan.
  struct CrashSpec {
    std::string service;
    util::SimTime at{};
    std::optional<util::Duration> restart_after;
  };
  std::vector<CrashSpec> crashes;

  /// A scheduled wireless relay crash: sensor `node` dies at `at` and,
  /// when `restart_after` is set, rejoins that much later — with cold
  /// routing state, so the tree must re-absorb it. Pure time triggers,
  /// exactly like CrashSpec: zero RNG draws, so adding relay churn never
  /// perturbs the link-fault decision stream of the same plan.
  struct RelayFaultSpec {
    std::uint32_t node = 0;
    util::SimTime at{};
    std::optional<util::Duration> restart_after;
  };
  std::vector<RelayFaultSpec> relay_faults;

  /// A scheduled beacon-reception fault: sensor `node` goes deaf to tree
  /// beacons at `at` (its parent will be declared lost after the missed-
  /// beacon timeout) and recovers `restore_after` later, when set. Also a
  /// pure time trigger — zero RNG draws.
  struct BeaconFaultSpec {
    std::uint32_t node = 0;
    util::SimTime at{};
    std::optional<util::Duration> restore_after;
  };
  std::vector<BeaconFaultSpec> beacon_faults;

  /// When > 0, the injector records the first N faults in a journal whose
  /// text rendering is byte-comparable across runs (determinism tests).
  std::size_t journal_limit = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return global.any() || !links.empty() || !partitions.empty() || !crashes.empty() ||
           !relay_faults.empty() || !beacon_faults.empty();
  }
};

/// One injected fault, for the replay journal.
struct FaultRecord {
  FaultKind kind = FaultKind::kDrop;
  std::string from;
  std::string to;
  util::SimTime at;
};

struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;
  std::uint64_t partitioned = 0;
  std::uint64_t crashed = 0;
  std::uint64_t restarted = 0;
  std::uint64_t relay_crashed = 0;
  std::uint64_t relay_restarted = 0;
  std::uint64_t beacon_lost = 0;
  std::uint64_t beacon_restored = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return dropped + duplicated + delayed + reordered + partitioned + crashed + restarted +
           relay_crashed + relay_restarted + beacon_lost + beacon_restored;
  }
};

class FaultInjector {
 public:
  /// Schedules partition open/heal events on `scheduler` per the plan.
  FaultInjector(sim::Scheduler& scheduler, FaultPlan plan);

  /// What MessageBus::post must do with one envelope. Draws are made in a
  /// fixed order (partition check, drop, duplicate, reorder), so the
  /// decision stream is a pure function of (plan, call sequence).
  struct Verdict {
    bool deliver = true;
    bool duplicate = false;
    util::Duration extra_delay{};      ///< Applied to the (first) copy.
    util::Duration duplicate_delay{};  ///< Additional delay of the copy.
  };

  [[nodiscard]] Verdict decide(const std::string& from, const std::string& to);

  /// Executes the plan's CrashSpec events. The handler receives the
  /// service name and restart=false at crash time, restart=true at
  /// revival. Bind it before the scheduler reaches the first crash time;
  /// without one, crashes are still counted and journalled.
  using CrashHandler = std::function<void(const std::string& service, bool restart)>;
  void set_crash_handler(CrashHandler handler) { crash_handler_ = std::move(handler); }

  /// Executes RelayFaultSpec events: restart=false at crash time,
  /// restart=true at revival. The handler typically stops/starts the
  /// matching wireless::SensorNode.
  using RelayFaultHandler = std::function<void(std::uint32_t node, bool restart)>;
  void set_relay_fault_handler(RelayFaultHandler handler) {
    relay_fault_handler_ = std::move(handler);
  }

  /// Executes BeaconFaultSpec events: deaf=true at fault time, deaf=false
  /// at restore. The handler typically flips TreeRouter::set_beacon_deaf.
  using BeaconFaultHandler = std::function<void(std::uint32_t node, bool deaf)>;
  void set_beacon_fault_handler(BeaconFaultHandler handler) {
    beacon_fault_handler_ = std::move(handler);
  }

  /// Manual partition heal (sim-time control comes from the plan).
  void heal_partition(std::string_view name);
  [[nodiscard]] bool partition_open(std::string_view name) const;

  [[nodiscard]] const FaultCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const std::vector<FaultRecord>& journal() const noexcept { return journal_; }
  /// Deterministic one-line-per-fault rendering for replay comparison.
  [[nodiscard]] std::string journal_text() const;

 private:
  struct PartitionState {
    FaultPlan::PartitionSpec spec;
    std::set<std::string, std::less<>> members;
    bool open = false;
  };

  [[nodiscard]] const LinkFaults& faults_for(const std::string& from, const std::string& to) const;
  /// True when some open partition has exactly one of {from, to} inside.
  [[nodiscard]] bool partition_blocks(const std::string& from, const std::string& to) const;
  void record(FaultKind kind, const std::string& from, const std::string& to);
  void fire_crash(std::size_t index);
  void fire_restart(std::size_t index);
  void fire_relay(std::size_t index, bool restart);
  void fire_beacon(std::size_t index, bool deaf);

  sim::Scheduler& scheduler_;
  FaultPlan plan_;
  util::Rng rng_;
  std::vector<PartitionState> partitions_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> link_posts_;
  FaultCounters counters_;
  std::vector<FaultRecord> journal_;
  CrashHandler crash_handler_;
  RelayFaultHandler relay_fault_handler_;
  BeaconFaultHandler beacon_fault_handler_;
};

}  // namespace garnet::net
