#include "core/resource.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace garnet::core {
namespace {

/// Pre-armed decisions expire after this long: a prediction is a
/// statement about the *near* future, and the ledger it was computed
/// against drifts as other consumers act.
constexpr util::Duration kPrearmTtl = util::Duration::seconds(60);

}  // namespace

std::string_view to_string(ConflictPolicy p) {
  switch (p) {
    case ConflictPolicy::kMostDemandingWins: return "most-demanding-wins";
    case ConflictPolicy::kPriorityWins: return "priority-wins";
    case ConflictPolicy::kMerge: return "merge";
    case ConflictPolicy::kRejectConflicts: return "reject-conflicts";
  }
  return "unknown";
}

ResourceManager::ResourceManager(net::MessageBus& bus, AuthService& auth, Config config)
    : bus_(bus),
      auth_(auth),
      config_(config),
      node_(bus, kEndpointName) {
  // Async exposure so remote callers go through the same path as
  // in-process ones: pre-armed decisions answer immediately, everything
  // else pays the deliberation delay.
  node_.expose_async(kEvaluate, [this](net::Address, util::BytesView args,
                                       net::RpcResponder respond) {
    util::ByteReader r(args);
    const ConsumerToken token = r.u64();
    const StreamId target = StreamId::from_packed(r.u32());
    const auto action = static_cast<UpdateAction>(r.u8());
    const std::uint32_t value = r.u32();
    if (!r.ok()) {
      respond(util::Err{net::RpcError::kRemoteFailure});
      return;
    }

    evaluate(token, target, action, value, [respond = std::move(respond)](Decision decision) {
      util::ByteWriter w(5);
      w.u8(static_cast<std::uint8_t>(decision.admission));
      w.u32(decision.effective_value);
      respond(std::move(w).take());
    });
  });
}

void ResourceManager::register_profile(SensorProfile profile) {
  profiles_[profile.id] = std::move(profile);
}

util::Status<ParseError> ResourceManager::codify(SensorId sensor, InternalStreamId stream,
                                                 std::string_view constraint_text) {
  auto compiled = ConstraintSet::parse(constraint_text);
  if (!compiled.ok()) return util::Err{compiled.error()};

  SensorProfile& profile = profiles_[sensor];
  profile.id = sensor;  // may be creating the profile here
  profile.codified[stream] = std::move(compiled).value();
  util::log_debug("resource", "codified constraints for %u#%u: %s", sensor, stream,
                  profile.codified[stream].to_string().c_str());
  return {};
}

void ResourceManager::evaluate(ConsumerToken token, StreamId target, UpdateAction action,
                               std::uint32_t value, std::function<void(Decision)> on_decision) {
  const PrearmKey key{token, target.packed(), static_cast<std::uint8_t>(action)};
  if (const auto it = prearmed_.find(key); it != prearmed_.end()) {
    const bool fresh = bus_.scheduler().now() - it->second.armed_at <= kPrearmTtl;
    const Decision decision = it->second.decision;
    prearmed_.erase(it);
    if (fresh) {
      // Anticipated by the Super Coordinator: the deliberation already
      // happened, so the caller gets the cached decision with no delay.
      ++stats_.prearm_hits;
      record_outcome(decision);
      on_decision(decision);
      return;
    }
    // Stale prediction: fall through to a full deliberation.
  }

  bus_.scheduler().schedule_after(
      config_.evaluation_delay,
      [this, token, target, action, value, on_decision = std::move(on_decision)] {
        const Decision decision = evaluate_now(token, target, action, value);
        record_outcome(decision);
        on_decision(decision);
      });
}

Decision ResourceManager::evaluate_now(ConsumerToken token, StreamId target, UpdateAction action,
                                       std::uint32_t value) {
  const auto identity = auth_.verify(token);
  if (!identity) return {Admission::kDenied, 0, "unknown consumer token"};
  if (identity->trust == TrustLevel::kUntrusted) {
    return {Admission::kDenied, 0, "untrusted consumers may not actuate"};
  }

  const SensorProfile* profile = nullptr;
  const wireless::StreamConstraints* constraints = nullptr;
  const ConstraintSet* codified = nullptr;
  if (const auto it = profiles_.find(target.sensor); it != profiles_.end()) {
    profile = &it->second;
    if (!profile->receive_capable) {
      return {Admission::kDenied, 0, "sensor is transmit-only"};
    }
    if (const auto cit = profile->constraints.find(target.stream);
        cit != profile->constraints.end()) {
      constraints = &cit->second;
    }
    if (const auto kit = profile->codified.find(target.stream);
        kit != profile->codified.end()) {
      codified = &kit->second;
    }
  }

  StreamLedger& ledger = ledgers_[target];

  switch (action) {
    case UpdateAction::kSetIntervalMs:
      return mediate_interval(ledger, *identity, constraints, codified, value);

    case UpdateAction::kEnableStream:
      ledger.believed_enabled = true;
      return {Admission::kApproved, value, "enable"};

    case UpdateAction::kDisableStream: {
      // Disabling starves every other consumer of the stream; it is only
      // admitted when nobody else holds an active demand, or the
      // requester outranks them / is trusted.
      const bool others = std::any_of(
          ledger.demands.begin(), ledger.demands.end(),
          [&](const Demand& d) { return d.consumer != token; });
      if (!others) {
        ledger.believed_enabled = false;
        return {Admission::kApproved, value, "disable, no competing demand"};
      }
      if (identity->trust == TrustLevel::kTrusted && config_.allow_trusted_override) {
        ++stats_.trusted_overrides;
        ledger.believed_enabled = false;
        return {Admission::kApproved, value, "disable via trusted override"};
      }
      const bool outranks_all = std::all_of(
          ledger.demands.begin(), ledger.demands.end(), [&](const Demand& d) {
            return d.consumer == token || d.priority < identity->priority;
          });
      if (config_.policy == ConflictPolicy::kPriorityWins && outranks_all) {
        ledger.believed_enabled = false;
        return {Admission::kApproved, value, "disable by priority"};
      }
      return {Admission::kDenied, 0, "competing consumers depend on stream"};
    }

    case UpdateAction::kSetMode: {
      // Modes are opaque to the middleware, but a codified constraint can
      // still whitelist them (e.g. "mode in {0, 1, 4}").
      if (codified && !codified->allows(ConstraintField::kMode, value)) {
        return {Admission::kDenied, 0, "mode forbidden by codified constraints"};
      }
      return {Admission::kApproved, value, "mode change"};
    }

    case UpdateAction::kSetPayloadHint: {
      std::uint32_t effective = value;
      if (constraints && effective > constraints->max_payload) {
        effective = constraints->max_payload;
      }
      if (codified) {
        effective = codified->clamp(ConstraintField::kPayloadBytes, effective);
        if (!codified->allows(ConstraintField::kPayloadBytes, effective)) {
          return {Admission::kDenied, 0, "payload forbidden by codified constraints"};
        }
      }
      if (effective != value) return {Admission::kModified, effective, "payload clamped"};
      return {Admission::kApproved, value, "payload hint"};
    }
  }
  return {Admission::kDenied, 0, "unknown action"};
}

Decision ResourceManager::mediate_interval(StreamLedger& ledger, const ConsumerIdentity& who,
                                           const wireless::StreamConstraints* constraints,
                                           const ConstraintSet* codified, std::uint32_t asked) {
  const util::SimTime now = bus_.scheduler().now();

  // Device constraints first: clamp what the hardware cannot do, then
  // the codified policy envelope (paper §8's constraint language).
  std::uint32_t feasible = asked;
  if (constraints) {
    feasible = std::clamp(asked, constraints->min_interval_ms, constraints->max_interval_ms);
  }
  if (codified) {
    feasible = codified->clamp(ConstraintField::kIntervalMs, feasible);
    if (!codified->allows(ConstraintField::kIntervalMs, feasible)) {
      // Range-satisfying but vetoed (e.g. an "!=" exclusion): refuse
      // rather than guess what the operator meant.
      return {Admission::kDenied, ledger.believed_interval,
              "interval forbidden by codified constraints"};
    }
  }

  // Expire stale demands, then upsert this consumer's.
  std::erase_if(ledger.demands,
                [&](const Demand& d) { return now - d.at > config_.demand_ttl; });
  const auto mine = std::find_if(ledger.demands.begin(), ledger.demands.end(),
                                 [&](const Demand& d) { return d.consumer == who.token; });
  if (mine != ledger.demands.end()) {
    mine->interval_ms = feasible;
    mine->priority = who.priority;
    mine->at = now;
  } else {
    ledger.demands.push_back({who.token, who.priority, feasible, now});
  }

  // Mediate across all live demands.
  std::uint32_t effective = feasible;
  switch (config_.policy) {
    case ConflictPolicy::kMostDemandingWins: {
      effective = feasible;
      for (const Demand& d : ledger.demands) effective = std::min(effective, d.interval_ms);
      break;
    }
    case ConflictPolicy::kPriorityWins: {
      const auto top = std::max_element(
          ledger.demands.begin(), ledger.demands.end(),
          [](const Demand& a, const Demand& b) { return a.priority < b.priority; });
      effective = top->interval_ms;
      break;
    }
    case ConflictPolicy::kMerge: {
      std::vector<std::uint32_t> values;
      values.reserve(ledger.demands.size());
      for (const Demand& d : ledger.demands) values.push_back(d.interval_ms);
      std::sort(values.begin(), values.end());
      effective = values[values.size() / 2];
      break;
    }
    case ConflictPolicy::kRejectConflicts: {
      const bool conflicting = std::any_of(
          ledger.demands.begin(), ledger.demands.end(), [&](const Demand& d) {
            return d.consumer != who.token && d.interval_ms != feasible;
          });
      if (conflicting) {
        if (who.trust == TrustLevel::kTrusted && config_.allow_trusted_override) {
          ++stats_.trusted_overrides;
        } else {
          // Withdraw the demand we just recorded; it was not admitted.
          std::erase_if(ledger.demands,
                        [&](const Demand& d) { return d.consumer == who.token; });
          return {Admission::kDenied, ledger.believed_interval, "conflicts with existing demand"};
        }
      }
      effective = feasible;
      break;
    }
  }

  ledger.believed_interval = effective;
  if (effective == asked) return {Admission::kApproved, effective, "admitted"};
  return {Admission::kModified, effective, "mediated"};
}

void ResourceManager::prearm(ConsumerToken token, StreamId target, UpdateAction action,
                             std::uint32_t value) {
  const Decision decision = evaluate_now(token, target, action, value);
  prearmed_[PrearmKey{token, target.packed(), static_cast<std::uint8_t>(action)}] =
      PrearmedDecision{decision, bus_.scheduler().now()};
}

void ResourceManager::set_policy(ConflictPolicy policy) {
  if (policy == config_.policy) return;
  ++stats_.policy_changes;
  util::log_info("resource", "conflict policy -> %s",
                 std::string(to_string(policy)).c_str());
  config_.policy = policy;
}

std::size_t ResourceManager::withdraw_consumer(ConsumerToken token) {
  std::size_t touched = 0;
  for (auto& [id, ledger] : ledgers_) {
    const auto before = ledger.demands.size();
    std::erase_if(ledger.demands, [token](const Demand& d) { return d.consumer == token; });
    if (ledger.demands.size() != before) ++touched;
  }
  std::erase_if(prearmed_,
                [token](const auto& entry) { return entry.first.token == token; });
  return touched;
}

std::optional<std::uint32_t> ResourceManager::believed_interval(StreamId id) const {
  const auto it = ledgers_.find(id);
  if (it == ledgers_.end() || it->second.believed_interval == 0) return std::nullopt;
  return it->second.believed_interval;
}

void ResourceManager::record_outcome(const Decision& decision) {
  ++stats_.evaluated;
  switch (decision.admission) {
    case Admission::kApproved: ++stats_.approved; break;
    case Admission::kModified: ++stats_.modified; break;
    case Admission::kDenied: ++stats_.denied; break;
  }
}

}  // namespace garnet::core
