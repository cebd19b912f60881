#include "garnet/recovery.hpp"

#include <utility>

#include "core/wire_types.hpp"
#include "util/log.hpp"

namespace garnet {

RecoveryHarness::RecoveryHarness(sim::Scheduler& scheduler, net::MessageBus& bus,
                                 RecoveryConfig config)
    : scheduler_(scheduler), bus_(bus), config_(config) {
  primary_ = bus_.add_endpoint(kPrimaryEndpointName, [](net::Envelope) {});
  replica_ = bus_.add_endpoint(kReplicaEndpointName,
                               [this](net::Envelope envelope) { on_replica(std::move(envelope)); });
  arm_heartbeat();
  arm_checkpoint();
}

RecoveryHarness::~RecoveryHarness() {
  scheduler_.cancel(heartbeat_);
  scheduler_.cancel(checkpoint_timer_);
  bus_.remove_endpoint(primary_);
  bus_.remove_endpoint(replica_);
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
}

RecoveryHarness::Door RecoveryHarness::manage(Service service) {
  std::string name = service.name;
  return Door(&services_.emplace(std::move(name), Managed(std::move(service))).first->second);
}

void RecoveryHarness::arm_heartbeat() {
  heartbeat_ = scheduler_.schedule_after(config_.heartbeat_interval, [this] {
    on_heartbeat();
    arm_heartbeat();
  });
}

void RecoveryHarness::arm_checkpoint() {
  checkpoint_timer_ = scheduler_.schedule_after(config_.checkpoint_interval, [this] {
    take_checkpoints();
    arm_checkpoint();
  });
}

void RecoveryHarness::on_heartbeat() {
  for (auto& [name, managed] : services_) {
    if (!managed.is_crashed) continue;
    if (++managed.misses < config_.miss_threshold) continue;
    util::log_info("recovery", "watchdog promoting '%s' after %u misses at t=%.3fs",
                   name.c_str(), managed.misses, scheduler_.now().to_seconds());
    recover(managed, /*promotion=*/true);
  }
}

void RecoveryHarness::take_checkpoints() {
  for (auto& [name, managed] : services_) {
    if (managed.is_crashed || !managed.spec.capture) continue;
    // A delta rides only when the service supports the incremental pair,
    // the config asks for it, and the chain since the last full frame
    // still has room. Everything else — including the first capture and
    // the one right after a recovery — is a full frame.
    const bool incremental = static_cast<bool>(managed.spec.capture_delta) &&
                             static_cast<bool>(managed.spec.apply_delta) &&
                             config_.full_checkpoint_interval > 1;
    const bool want_delta = incremental && !managed.force_full &&
                            managed.deltas_since_full + 1 < config_.full_checkpoint_interval;

    const std::uint64_t base_epoch = managed.epoch;
    core::checkpoint::Header header;
    header.service = name;
    header.epoch = ++managed.epoch;
    header.taken_at = scheduler_.now();

    util::Bytes frame;
    if (want_delta) {
      frame = core::checkpoint::encode_delta(header, base_epoch, managed.spec.capture_delta());
      ++managed.deltas_since_full;
      ++stats_.deltas_taken;
      stats_.delta_bytes_last = frame.size();
    } else {
      frame = core::checkpoint::encode(header, managed.spec.capture());
      managed.deltas_since_full = 0;
      managed.force_full = false;
      ++stats_.checkpoints_taken;
      stats_.checkpoint_bytes_last = frame.size();
    }

    // The watermark is the next lsn the primary will assign: every op
    // below it is already inside this snapshot.
    util::ByteWriter w(2 + name.size() + 8 + 4 + frame.size());
    w.str(name);
    w.u64(managed.next_lsn);
    w.u32(static_cast<std::uint32_t>(frame.size()));
    w.raw(frame);
    bus_.post(primary_, replica_, core::kCheckpointReplica, util::take_shared(std::move(w)));
  }
}

void RecoveryHarness::log_op(const std::string& service, std::uint16_t kind,
                             util::BytesView payload) {
  const auto it = services_.find(service);
  if (it == services_.end()) return;
  Managed& managed = it->second;
  if (managed.is_crashed) return;  // a dead process logs nothing

  const std::uint64_t lsn = managed.next_lsn++;
  util::ByteWriter w(2 + service.size() + 8 + 2 + 2 + payload.size());
  w.str(service);
  w.u64(lsn);
  w.u16(kind);
  w.u16(static_cast<std::uint16_t>(payload.size()));
  w.raw(payload);
  bus_.post(primary_, replica_, core::kOpLogRecord, util::take_shared(std::move(w)));
  ++stats_.ops_logged;
}

void RecoveryHarness::on_replica(net::Envelope envelope) {
  util::ByteReader r(envelope.payload.span());
  const std::string name = r.str();
  const auto it = services_.find(name);
  if (!r.ok() || it == services_.end()) return;
  Managed& managed = it->second;

  if (envelope.type == core::kCheckpointReplica) {
    const std::uint64_t watermark = r.u64();
    const std::uint32_t len = r.u32();
    const util::BytesView frame = r.view(len);
    if (!r.ok() || r.remaining() != 0) {
      ++stats_.checkpoints_rejected;
      return;
    }
    // Validate at receipt, not at promotion: a corrupt frame discovered
    // mid-recovery would leave the standby with nothing to restore from.
    const auto decoded = core::checkpoint::decode_any(frame);
    if (!decoded.ok() || decoded.value().header.service != name) {
      ++stats_.checkpoints_rejected;
      return;
    }
    if (decoded.value().kind == core::checkpoint::FrameKind::kFull) {
      managed.checkpoint.assign(frame.begin(), frame.end());
      managed.checkpoint_lsn = watermark;
      managed.deltas.clear();
      managed.chain_epoch = decoded.value().header.epoch;
      managed.log.truncate_through(watermark - 1);
      ++stats_.checkpoints_stored;
    } else {
      // A delta chains only onto the exact frame it was captured
      // against: no stored full frame, or a gap in the epoch sequence
      // (a lost replica envelope), breaks the chain until the next
      // full capture resyncs it.
      if (managed.checkpoint.empty() || decoded.value().base_epoch != managed.chain_epoch) {
        ++stats_.deltas_rejected;
        return;
      }
      managed.deltas.emplace_back(watermark, util::Bytes(frame.begin(), frame.end()));
      managed.chain_epoch = decoded.value().header.epoch;
      managed.log.truncate_through(watermark - 1);
      ++stats_.deltas_stored;
    }
  } else if (envelope.type == core::kOpLogRecord) {
    const std::uint64_t lsn = r.u64();
    const std::uint16_t kind = r.u16();
    const std::uint16_t len = r.u16();
    const util::BytesView payload = r.view(len);
    if (!r.ok() || r.remaining() != 0) return;
    managed.log.append({lsn, kind, util::Bytes(payload.begin(), payload.end())});
    ++stats_.ops_replicated;
  }
}

void RecoveryHarness::crash(const std::string& service) {
  const auto it = services_.find(service);
  if (it == services_.end()) return;
  Managed& managed = it->second;
  if (managed.is_crashed) return;
  managed.is_crashed = true;
  managed.misses = 0;
  managed.crashed_at = scheduler_.now();
  ++stats_.crashes;
  if (managed.spec.wipe) managed.spec.wipe();
  for (const std::string& endpoint : managed.spec.endpoints) {
    bus_.set_endpoint_down(endpoint, true);
  }
  util::log_info("recovery", "service '%s' crash-stopped at t=%.3fs", service.c_str(),
                 scheduler_.now().to_seconds());
}

void RecoveryHarness::restart(const std::string& service) {
  const auto it = services_.find(service);
  if (it == services_.end() || !it->second.is_crashed) return;
  recover(it->second, /*promotion=*/false);
}

bool RecoveryHarness::crashed(const std::string& service) const {
  const auto it = services_.find(service);
  return it != services_.end() && it->second.is_crashed;
}

void RecoveryHarness::recover(Managed& managed, bool promotion) {
  // Endpoints first: restore hooks and on_restart may post to them.
  for (const std::string& endpoint : managed.spec.endpoints) {
    bus_.set_endpoint_down(endpoint, false);
  }

  bool restored = false;
  std::uint64_t restored_lsn = 1;
  if (!managed.checkpoint.empty() && managed.spec.restore) {
    const auto decoded = core::checkpoint::decode(managed.checkpoint);
    if (!decoded.ok()) {
      ++stats_.checkpoints_rejected;
    } else if (!managed.spec.restore(decoded.value().state).ok()) {
      ++stats_.checkpoints_rejected;
    } else {
      restored = true;
      restored_lsn = managed.checkpoint_lsn;
      // Stack the delta chain on the full base, oldest first. Each frame
      // was CRC- and epoch-validated at receipt; a frame that still
      // fails here truncates the chain and the op replay below covers
      // the gap from the last good watermark.
      if (managed.spec.apply_delta) {
        for (const auto& [watermark, frame] : managed.deltas) {
          const auto delta = core::checkpoint::decode_any(frame);
          if (!delta.ok() || delta.value().kind != core::checkpoint::FrameKind::kDelta ||
              !managed.spec.apply_delta(delta.value().state).ok()) {
            ++stats_.deltas_rejected;
            break;
          }
          restored_lsn = watermark;
          ++stats_.deltas_applied;
        }
      }
    }
  }

  // Replay: everything at or past the watermark when a checkpoint
  // landed; everything since boot when none did (the bounded log covers
  // early crashes until its capacity is exceeded).
  const std::uint64_t start_lsn = restored ? restored_lsn : 1;
  if (managed.spec.apply_op) {
    for (const core::checkpoint::OpLog::Record& record : managed.log.records()) {
      if (record.lsn < start_lsn) continue;
      managed.spec.apply_op(record.kind, record.payload);
      ++stats_.ops_replayed;
    }
  }

  managed.is_crashed = false;
  managed.misses = 0;
  // The promoted state (base + deltas + op replay) no longer matches
  // what the replica chain describes; re-anchor with a full frame. A
  // grouped service (one shard of a plane) re-anchors its whole group:
  // the plane's slices checkpoint as one logical state.
  managed.force_full = true;
  if (!managed.spec.group.empty()) {
    for (auto& [name, other] : services_) {
      if (other.spec.group == managed.spec.group) other.force_full = true;
    }
  }
  stats_.last_recovery_latency = scheduler_.now() - managed.crashed_at;
  if (promotion) {
    ++stats_.promotions;
  } else {
    ++stats_.rejoins;
  }
  // What arrived while the service was down runs on the recovered
  // state, oldest first, before on_restart.
  std::vector<sim::EventFn> held = std::move(managed.held);
  managed.held.clear();
  for (sim::EventFn& input : held) {
    input();
    ++managed.handed_back;
  }
  if (managed.spec.on_restart) managed.spec.on_restart();
  util::log_info("recovery", "service '%s' %s at t=%.3fs (latency %.3fms)",
                 managed.spec.name.c_str(), promotion ? "promoted" : "rejoined",
                 scheduler_.now().to_seconds(),
                 static_cast<double>(stats_.last_recovery_latency.ns) / 1e6);
}

void RecoveryHarness::set_metrics(obs::MetricsRegistry& registry) {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
  metrics_ = &registry;
  collector_id_ = registry.add_collector([this](obs::SnapshotBuilder& out) {
    out.counter("garnet.checkpoint.taken", stats_.checkpoints_taken);
    out.counter("garnet.checkpoint.stored", stats_.checkpoints_stored);
    out.counter("garnet.checkpoint.rejected", stats_.checkpoints_rejected);
    out.gauge("garnet.checkpoint.last_bytes", static_cast<double>(stats_.checkpoint_bytes_last));
    out.counter("garnet.checkpoint.deltas_taken", stats_.deltas_taken);
    out.counter("garnet.checkpoint.deltas_stored", stats_.deltas_stored);
    out.counter("garnet.checkpoint.deltas_rejected", stats_.deltas_rejected);
    out.counter("garnet.checkpoint.deltas_applied", stats_.deltas_applied);
    out.gauge("garnet.checkpoint.delta_last_bytes", static_cast<double>(stats_.delta_bytes_last));
    out.counter("garnet.recovery.ops_logged", stats_.ops_logged);
    out.counter("garnet.recovery.ops_replicated", stats_.ops_replicated);
    out.counter("garnet.recovery.ops_replayed", stats_.ops_replayed);
    out.counter("garnet.recovery.crashes", stats_.crashes);
    out.counter("garnet.recovery.promotions", stats_.promotions);
    out.counter("garnet.recovery.rejoins", stats_.rejoins);
    out.gauge("garnet.recovery.latency_ns",
              static_cast<double>(stats_.last_recovery_latency.ns));
    std::uint64_t down = 0;
    std::uint64_t evicted = 0;
    for (const auto& [name, managed] : services_) {
      if (managed.is_crashed) ++down;
      evicted += managed.log.evicted();
      out.gauge("garnet.recovery.inputs_held", static_cast<double>(managed.held.size()),
                {{"service", name}});
      out.counter("garnet.recovery.inputs_handed_back", managed.handed_back,
                  {{"service", name}});
    }
    out.gauge("garnet.recovery.crashed", static_cast<double>(down));
    // Records pushed out of a full op log before a checkpoint covered
    // them: a promotion from such a log silently misses those mutations.
    out.counter("garnet.recovery.ops_evicted", evicted);
  });
}

}  // namespace garnet
