#include "net/fault.hpp"

#include <cassert>
#include <cinttypes>
#include <cstdio>

#include "util/log.hpp"

namespace garnet::net {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kRelayCrash: return "relay-crash";
    case FaultKind::kRelayRestart: return "relay-restart";
    case FaultKind::kBeaconLoss: return "beacon-loss";
    case FaultKind::kBeaconRestore: return "beacon-restore";
  }
  return "unknown";
}

namespace {

std::string relay_name(std::uint32_t node) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sensor-%u", node);
  return buf;
}

}  // namespace

FaultInjector::FaultInjector(sim::Scheduler& scheduler, FaultPlan plan)
    : scheduler_(scheduler), plan_(std::move(plan)), rng_(plan_.seed) {
  partitions_.reserve(plan_.partitions.size());
  for (const FaultPlan::PartitionSpec& spec : plan_.partitions) {
    PartitionState state;
    state.spec = spec;
    state.members.insert(spec.members.begin(), spec.members.end());
    state.open = spec.opens_at.ns <= scheduler_.now().ns;
    partitions_.push_back(std::move(state));

    PartitionState& installed = partitions_.back();
    const std::size_t index = partitions_.size() - 1;
    if (!installed.open) {
      scheduler_.schedule_at(spec.opens_at, [this, index] {
        partitions_[index].open = true;
        util::log_info("fault", "partition '%s' opened at t=%.3fs",
                       partitions_[index].spec.name.c_str(), scheduler_.now().to_seconds());
      });
    }
    if (spec.heals_at.has_value()) {
      scheduler_.schedule_at(*spec.heals_at, [this, index] {
        partitions_[index].open = false;
        util::log_info("fault", "partition '%s' healed at t=%.3fs",
                       partitions_[index].spec.name.c_str(), scheduler_.now().to_seconds());
      });
    }
  }

  // Crash/restart events are pure time triggers, like partition edges:
  // they never touch the rng, so a plan with crashes produces the same
  // link-fault verdict stream as the same plan without them.
  for (std::size_t index = 0; index < plan_.crashes.size(); ++index) {
    const FaultPlan::CrashSpec& spec = plan_.crashes[index];
    scheduler_.schedule_at(spec.at, [this, index] { fire_crash(index); });
    if (spec.restart_after.has_value()) {
      scheduler_.schedule_at(spec.at + *spec.restart_after,
                             [this, index] { fire_restart(index); });
    }
  }

  // Wireless churn events follow the same discipline: pure time triggers,
  // zero RNG draws, journalled like every other fault.
  for (std::size_t index = 0; index < plan_.relay_faults.size(); ++index) {
    const FaultPlan::RelayFaultSpec& spec = plan_.relay_faults[index];
    scheduler_.schedule_at(spec.at, [this, index] { fire_relay(index, /*restart=*/false); });
    if (spec.restart_after.has_value()) {
      scheduler_.schedule_at(spec.at + *spec.restart_after,
                             [this, index] { fire_relay(index, /*restart=*/true); });
    }
  }
  for (std::size_t index = 0; index < plan_.beacon_faults.size(); ++index) {
    const FaultPlan::BeaconFaultSpec& spec = plan_.beacon_faults[index];
    scheduler_.schedule_at(spec.at, [this, index] { fire_beacon(index, /*deaf=*/true); });
    if (spec.restore_after.has_value()) {
      scheduler_.schedule_at(spec.at + *spec.restore_after,
                             [this, index] { fire_beacon(index, /*deaf=*/false); });
    }
  }
}

void FaultInjector::fire_relay(std::size_t index, bool restart) {
  const FaultPlan::RelayFaultSpec& spec = plan_.relay_faults[index];
  const std::string name = relay_name(spec.node);
  if (restart) {
    ++counters_.relay_restarted;
    record(FaultKind::kRelayRestart, name, name);
  } else {
    ++counters_.relay_crashed;
    record(FaultKind::kRelayCrash, name, name);
  }
  util::log_info("fault", "relay '%s' %s at t=%.3fs", name.c_str(),
                 restart ? "restarted" : "crashed", scheduler_.now().to_seconds());
  if (relay_fault_handler_) relay_fault_handler_(spec.node, restart);
}

void FaultInjector::fire_beacon(std::size_t index, bool deaf) {
  const FaultPlan::BeaconFaultSpec& spec = plan_.beacon_faults[index];
  const std::string name = relay_name(spec.node);
  if (deaf) {
    ++counters_.beacon_lost;
    record(FaultKind::kBeaconLoss, name, name);
  } else {
    ++counters_.beacon_restored;
    record(FaultKind::kBeaconRestore, name, name);
  }
  util::log_info("fault", "relay '%s' beacon reception %s at t=%.3fs", name.c_str(),
                 deaf ? "lost" : "restored", scheduler_.now().to_seconds());
  if (beacon_fault_handler_) beacon_fault_handler_(spec.node, deaf);
}

void FaultInjector::fire_crash(std::size_t index) {
  const FaultPlan::CrashSpec& spec = plan_.crashes[index];
  ++counters_.crashed;
  record(FaultKind::kCrash, spec.service, spec.service);
  util::log_info("fault", "service '%s' crashed at t=%.3fs", spec.service.c_str(),
                 scheduler_.now().to_seconds());
  if (crash_handler_) crash_handler_(spec.service, /*restart=*/false);
}

void FaultInjector::fire_restart(std::size_t index) {
  const FaultPlan::CrashSpec& spec = plan_.crashes[index];
  ++counters_.restarted;
  record(FaultKind::kRestart, spec.service, spec.service);
  util::log_info("fault", "service '%s' restarted at t=%.3fs", spec.service.c_str(),
                 scheduler_.now().to_seconds());
  if (crash_handler_) crash_handler_(spec.service, /*restart=*/true);
}

const LinkFaults& FaultInjector::faults_for(const std::string& from,
                                            const std::string& to) const {
  const auto it = plan_.links.find(std::make_pair(from, to));
  return it != plan_.links.end() ? it->second : plan_.global;
}

bool FaultInjector::partition_blocks(const std::string& from, const std::string& to) const {
  for (const PartitionState& partition : partitions_) {
    if (!partition.open) continue;
    const bool from_inside = partition.members.contains(from);
    const bool to_inside = partition.members.contains(to);
    if (from_inside != to_inside) return true;
  }
  return false;
}

FaultInjector::Verdict FaultInjector::decide(const std::string& from, const std::string& to) {
  Verdict verdict;

  if (partition_blocks(from, to)) {
    ++counters_.partitioned;
    record(FaultKind::kPartition, from, to);
    verdict.deliver = false;
    return verdict;
  }

  const LinkFaults& link = faults_for(from, to);
  if (!link.any()) return verdict;

  if (link.drop_first > 0) {
    const std::uint64_t seen = ++link_posts_[std::make_pair(from, to)];
    if (seen <= link.drop_first) {
      ++counters_.dropped;
      record(FaultKind::kDrop, from, to);
      verdict.deliver = false;
      return verdict;
    }
  }

  // Fixed draw order — one Bernoulli per configured fault class — keeps
  // the rng stream a pure function of the plan and the post sequence.
  if (link.drop > 0.0 && rng_.chance(link.drop)) {
    ++counters_.dropped;
    record(FaultKind::kDrop, from, to);
    verdict.deliver = false;
    return verdict;
  }
  if (link.extra_latency.ns > 0) {
    ++counters_.delayed;
    record(FaultKind::kDelay, from, to);
    verdict.extra_delay = verdict.extra_delay + link.extra_latency;
  }
  if (link.reorder > 0.0 && rng_.chance(link.reorder)) {
    ++counters_.reordered;
    record(FaultKind::kReorder, from, to);
    const auto window = static_cast<std::uint64_t>(link.reorder_window.ns);
    if (window > 0) {
      verdict.extra_delay =
          verdict.extra_delay + util::Duration::nanos(static_cast<std::int64_t>(rng_.below(window)));
    }
  }
  if (link.duplicate > 0.0 && rng_.chance(link.duplicate)) {
    ++counters_.duplicated;
    record(FaultKind::kDuplicate, from, to);
    verdict.duplicate = true;
    // The copy trails the original by a deterministic sub-window offset,
    // so duplicates interleave with unrelated traffic.
    const auto window = static_cast<std::uint64_t>(
        link.reorder_window.ns > 0 ? link.reorder_window.ns : util::Duration::millis(1).ns);
    verdict.duplicate_delay = util::Duration::nanos(static_cast<std::int64_t>(rng_.below(window)));
  }
  return verdict;
}

void FaultInjector::heal_partition(std::string_view name) {
  for (PartitionState& partition : partitions_) {
    if (partition.spec.name == name) partition.open = false;
  }
}

bool FaultInjector::partition_open(std::string_view name) const {
  for (const PartitionState& partition : partitions_) {
    if (partition.spec.name == name) return partition.open;
  }
  return false;
}

void FaultInjector::record(FaultKind kind, const std::string& from, const std::string& to) {
  if (journal_.size() >= plan_.journal_limit) return;
  journal_.push_back(FaultRecord{kind, from, to, scheduler_.now()});
}

std::string FaultInjector::journal_text() const {
  std::string out;
  out.reserve(journal_.size() * 48);
  char line[256];
  for (const FaultRecord& record : journal_) {
    std::snprintf(line, sizeof(line), "%" PRId64 " %s %s->%s\n", record.at.ns,
                  std::string(to_string(record.kind)).c_str(), record.from.c_str(),
                  record.to.c_str());
    out += line;
  }
  return out;
}

}  // namespace garnet::net
