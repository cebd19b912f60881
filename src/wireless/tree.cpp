#include "wireless/tree.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/crc32c.hpp"

namespace garnet::wireless::tree {

namespace {

/// A same-depth challenger must beat the parent's smoothed RSSI by this
/// margin before a re-parent happens (damps flapping on RSSI noise).
constexpr double kHysteresisDb = 6.0;
/// Parent declared lost after this many beacon intervals of silence.
constexpr std::int64_t kMissedBeacons = 3;
/// Exponential re-attach backoff: base * 2^(losses-1), capped.
constexpr util::Duration kReattachBackoff = util::Duration::millis(200);
constexpr util::Duration kReattachBackoffMax = util::Duration::seconds(5);
/// After this long attached to one parent, the backoff counter resets.
constexpr util::Duration kStablePeriod = util::Duration::seconds(4);
/// EWMA weight of a new RSSI sample against the smoothed neighbour value.
constexpr double kRssiSmoothing = 0.3;

constexpr std::size_t kBeaconBytes = 2 + 4 + 2 + 4 + 4;
constexpr std::size_t kDataHeaderBytes = 2 + 1 + 1 + 4 + 4 + 2;

/// Fingerprint of the inner Figure-2 frame: (packed StreamID << 16) | seq.
std::uint64_t fingerprint_of(const core::DataMessageView& msg) {
  return (static_cast<std::uint64_t>(msg.stream_id.packed()) << 16) | msg.sequence;
}

/// Re-encodes `msg` with the kRelayed flag set (the payload is written
/// straight from the view into the new frame).
util::Bytes encode_relayed(core::DataMessageView msg) {
  msg.header.set(core::HeaderFlag::kRelayed);
  util::ByteWriter w(msg.wire_size());
  core::encode_into(w, msg);
  return std::move(w).take();
}

/// Returns `inner` with the kRelayed flag set (re-encoded when it was
/// clear). The first forwarder tags the frame; the origin's own wrap
/// leaves it clear so a direct root reception still carries location
/// evidence.
std::optional<util::Bytes> with_relayed_flag(util::BytesView inner) {
  const auto decoded = core::decode_view(inner);
  if (!decoded.ok()) return std::nullopt;
  if (decoded.value().header.has(core::HeaderFlag::kRelayed)) {
    return util::Bytes(inner.begin(), inner.end());
  }
  return encode_relayed(decoded.value());
}

}  // namespace

bool is_tree_frame(util::BytesView frame) {
  return !frame.empty() && static_cast<std::uint8_t>(frame[0]) == kTreeMagic;
}

util::Bytes encode_beacon(const Beacon& beacon) {
  util::ByteWriter w(kBeaconBytes);
  w.u8(kTreeMagic);
  w.u8(kBeaconType);
  w.u32(beacon.origin);
  w.u16(beacon.hop);
  w.u32(beacon.root);
  w.u32(util::crc32c(w.view()));
  return std::move(w).take();
}

std::optional<Beacon> decode_beacon(util::BytesView frame) {
  if (frame.size() != kBeaconBytes) return std::nullopt;
  util::ByteReader r(frame);
  if (r.u8() != kTreeMagic || r.u8() != kBeaconType) return std::nullopt;
  Beacon beacon;
  beacon.origin = r.u32();
  beacon.hop = r.u16();
  beacon.root = r.u32();
  const std::uint32_t crc = r.u32();
  if (!r.ok() || crc != util::crc32c(frame.first(frame.size() - 4))) {
    return std::nullopt;
  }
  return beacon;
}

util::Bytes encode_data(const DataFrame& frame) {
  util::ByteWriter w(kDataHeaderBytes + frame.inner.size() + 4);
  w.u8(kTreeMagic);
  w.u8(kDataType);
  w.u8(frame.ttl);
  w.u8(frame.hop);
  w.u32(frame.next_hop);
  w.u32(frame.origin);
  w.u16(static_cast<std::uint16_t>(frame.inner.size()));
  w.raw(frame.inner);
  w.u32(util::crc32c(w.view()));
  return std::move(w).take();
}

std::optional<DataFrame> decode_data(util::BytesView frame) {
  if (frame.size() < kDataHeaderBytes + 4) return std::nullopt;
  util::ByteReader r(frame);
  if (r.u8() != kTreeMagic || r.u8() != kDataType) return std::nullopt;
  DataFrame data;
  data.ttl = r.u8();
  data.hop = r.u8();
  data.next_hop = r.u32();
  data.origin = r.u32();
  const std::size_t len = r.u16();
  if (len != frame.size() - kDataHeaderBytes - 4) return std::nullopt;
  data.inner = r.view(len);
  const std::uint32_t crc = r.u32();
  if (!r.ok() || crc != util::crc32c(frame.first(frame.size() - 4))) {
    return std::nullopt;
  }
  return data;
}

SinkDecision decide_at_sink(util::BytesView frame) {
  SinkDecision decision;
  if (!is_tree_frame(frame)) return decision;
  if (frame.size() >= 2 && static_cast<std::uint8_t>(frame[1]) == kBeaconType) {
    decision.verdict = decode_beacon(frame) ? SinkDecision::Verdict::kBeacon
                                            : SinkDecision::Verdict::kCorrupt;
    return decision;
  }
  const auto data = decode_data(frame);
  if (!data) {
    decision.verdict = SinkDecision::Verdict::kCorrupt;
    return decision;
  }
  decision.verdict = SinkDecision::Verdict::kInner;
  decision.inner.assign(data->inner.begin(), data->inner.end());
  return decision;
}

std::string key_name(std::uint32_t key) {
  char buf[32];
  if (is_root_key(key)) {
    std::snprintf(buf, sizeof(buf), "root-%u", key & ~kRootKeyFlag);
  } else {
    std::snprintf(buf, sizeof(buf), "sensor-%u", key);
  }
  return buf;
}

void TreeJournal::record(util::SimTime at, std::string_view event, std::uint32_t node,
                         std::uint32_t parent) {
  if (entries_.size() >= limit_) return;
  entries_.push_back(Entry{at, std::string(event), node, parent});
}

std::string TreeJournal::text() const {
  std::string out;
  out.reserve(entries_.size() * 48);
  char line[128];
  for (const Entry& entry : entries_) {
    std::snprintf(line, sizeof(line), "%" PRId64 " %s %s->%s\n", entry.at.ns,
                  entry.event.c_str(), key_name(entry.node).c_str(),
                  key_name(entry.parent).c_str());
    out += line;
  }
  return out;
}

TreeRouter::TreeRouter(sim::Scheduler& scheduler, TreeConfig config, std::uint32_t self_key)
    : scheduler_(scheduler),
      config_(config),
      self_key_(self_key),
      seen_(config.dedup_capacity) {}

void TreeRouter::start() {
  if (running_) return;
  running_ = true;
  tick_ = scheduler_.schedule_after(config_.beacon_interval, [this] { maintenance_tick(); });
}

void TreeRouter::stop() {
  if (!running_) return;
  running_ = false;
  scheduler_.cancel(tick_);
  tick_ = sim::EventId{};
  // Crash semantics: volatile routing state does not survive a restart.
  neighbors_.clear();
  orphans_.clear();
  seen_.clear();
  attached_ = false;
  ever_attached_ = false;
  parent_ = 0;
  root_ = 0;
  depth_ = 0;
  losses_ = 0;
  reattach_at_ = util::SimTime{};
  beacon_deaf_ = false;
}

util::Duration TreeRouter::parent_timeout() const {
  return util::Duration::nanos(config_.beacon_interval.ns * kMissedBeacons);
}

void TreeRouter::on_frame(util::BytesView frame, double rssi_dbm) {
  if (!running_) return;
  if (is_tree_frame(frame)) {
    if (frame.size() >= 2 && static_cast<std::uint8_t>(frame[1]) == kBeaconType) {
      const auto beacon = decode_beacon(frame);
      if (!beacon) {
        ++stats_.corrupt_dropped;
        return;
      }
      on_beacon(*beacon, rssi_dbm);
      return;
    }
    const auto data = decode_data(frame);
    if (!data) {
      ++stats_.corrupt_dropped;
      return;
    }
    on_tree_data(*data);
    return;
  }
  on_plain_frame(frame);
}

void TreeRouter::on_beacon(const Beacon& beacon, double rssi_dbm) {
  if (beacon_deaf_) return;
  if (beacon.origin == self_key_) return;  // own beacon echoed back
  // Implausible depth: deeper than the TTL budget can ever serve — and a
  // forged 0xFFFF would wrap hop+1 to 0, hijacking parent selection.
  if (beacon.hop >= kMaxTtl) {
    ++stats_.corrupt_dropped;
    return;
  }
  ++stats_.beacons_heard;

  const util::SimTime now = scheduler_.now();
  auto it = neighbors_.find(beacon.origin);
  if (it == neighbors_.end()) {
    if (neighbors_.size() >= config_.neighbor_capacity) {
      // Evict the stalest non-parent entry; refuse the newcomer if the
      // table is full of fresher sources (bounded by construction).
      auto stalest = neighbors_.end();
      for (auto n = neighbors_.begin(); n != neighbors_.end(); ++n) {
        if (attached_ && n->first == parent_) continue;
        if (stalest == neighbors_.end() || n->second.last_heard < stalest->second.last_heard) {
          stalest = n;
        }
      }
      if (stalest == neighbors_.end() || stalest->second.last_heard >= now) return;
      neighbors_.erase(stalest);
    }
    Neighbor fresh;
    fresh.rssi_dbm = rssi_dbm;
    it = neighbors_.emplace(beacon.origin, fresh).first;
  } else {
    it->second.rssi_dbm = it->second.rssi_dbm * (1.0 - kRssiSmoothing) +
                          rssi_dbm * kRssiSmoothing;
  }
  it->second.hop = beacon.hop;
  it->second.root = beacon.root;
  it->second.last_heard = now;

  const std::uint16_t candidate_depth = static_cast<std::uint16_t>(beacon.hop + 1);
  if (!attached_) {
    if (now.ns >= reattach_at_.ns) attach_to(beacon.origin);
    return;
  }
  if (beacon.origin == parent_) {
    depth_ = candidate_depth;  // track the parent's own depth changes
    root_ = beacon.root;
    return;
  }
  const auto parent_it = neighbors_.find(parent_);
  const double parent_rssi =
      parent_it != neighbors_.end() ? parent_it->second.rssi_dbm : -120.0;
  const bool better = candidate_depth < depth_ ||
                      (candidate_depth == depth_ &&
                       it->second.rssi_dbm > parent_rssi + kHysteresisDb);
  if (better) attach_to(beacon.origin);
}

void TreeRouter::attach_to(std::uint32_t key) {
  const auto it = neighbors_.find(key);
  if (it == neighbors_.end()) return;
  const bool was_attached = attached_;
  const std::uint32_t old_parent = parent_;
  if (was_attached && key == old_parent) return;

  attached_ = true;
  ever_attached_ = true;
  parent_ = key;
  root_ = it->second.root != 0 ? it->second.root : key;
  depth_ = static_cast<std::uint16_t>(it->second.hop + 1);
  parent_since_ = scheduler_.now();

  if (was_attached) {
    ++stats_.reparents;
    if (journal_ != nullptr) {
      journal_->record(scheduler_.now(), "reparent", self_key_, parent_);
    }
  } else {
    ++stats_.attaches;
    if (journal_ != nullptr) {
      journal_->record(scheduler_.now(), "attach", self_key_, parent_);
    }
  }

  // Announce the new depth immediately so downstream nodes converge in
  // one radio hop per tree level instead of one beacon interval each.
  send_beacon();

  // Repair complete: flush the frames buffered while orphaned.
  while (!orphans_.empty()) {
    Orphan orphan = std::move(orphans_.front());
    orphans_.pop_front();
    forward_inner(std::move(orphan.inner), orphan.ttl);
  }
}

void TreeRouter::detach() {
  ++stats_.orphan_events;
  if (journal_ != nullptr) {
    journal_->record(scheduler_.now(), "orphan", self_key_, parent_);
  }
  const util::SimTime now = scheduler_.now();
  // A long stable attachment forgives past churn; otherwise the backoff
  // exponent keeps growing so a flapping parent is courted ever slower.
  if ((now - parent_since_).ns >= kStablePeriod.ns) losses_ = 0;
  ++losses_;
  std::int64_t backoff = kReattachBackoff.ns;
  for (std::uint32_t i = 1; i < losses_ && backoff < kReattachBackoffMax.ns; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, kReattachBackoffMax.ns);
  reattach_at_ = now + util::Duration::nanos(backoff);

  neighbors_.erase(parent_);
  attached_ = false;
  parent_ = 0;
  root_ = 0;
  depth_ = 0;
}

void TreeRouter::try_attach_best() {
  const util::SimTime now = scheduler_.now();
  if (now.ns < reattach_at_.ns) return;
  auto best = neighbors_.end();
  for (auto it = neighbors_.begin(); it != neighbors_.end(); ++it) {
    if ((now - it->second.last_heard).ns > parent_timeout().ns) continue;  // stale
    if (best == neighbors_.end() || it->second.hop < best->second.hop ||
        (it->second.hop == best->second.hop && it->second.rssi_dbm > best->second.rssi_dbm)) {
      best = it;
    }
  }
  if (best != neighbors_.end()) attach_to(best->first);
}

void TreeRouter::maintenance_tick() {
  if (!running_) return;
  const util::SimTime now = scheduler_.now();

  if (attached_) {
    const auto it = neighbors_.find(parent_);
    const bool lost = it == neighbors_.end() ||
                      (now - it->second.last_heard).ns > parent_timeout().ns;
    if (lost) {
      detach();
    } else if ((now - parent_since_).ns >= kStablePeriod.ns) {
      losses_ = 0;
    }
  }
  if (!attached_) {
    try_attach_best();
  }
  if (attached_) {
    send_beacon();
  }

  tick_ = scheduler_.schedule_after(config_.beacon_interval, [this] { maintenance_tick(); });
}

void TreeRouter::send_beacon() {
  if (!transmit_) return;
  ++stats_.beacons_sent;
  transmit_(encode_beacon(Beacon{self_key_, depth_, root_}));
}

void TreeRouter::send_own(util::Bytes frame) {
  if (!transmit_) return;
  if (attached_) {
    if (is_root_key(parent_)) {
      // Final hop: the receiver hears the Figure-2 frame directly, so a
      // depth-1 node behaves exactly like the pre-tree single-hop radio.
      transmit_(std::move(frame));
    } else {
      transmit_(encode_data(DataFrame{kMaxTtl, static_cast<std::uint8_t>(depth_),
                                      parent_, self_key_, frame}));
    }
    return;
  }
  if (!ever_attached_) {
    // No tree in sight (or none configured): legacy single-hop uplink.
    transmit_(std::move(frame));
    return;
  }
  // Orphaned mid-repair: buffer, spilling the oldest as a plain
  // transmission when the queue is full — it may still get lucky.
  if (orphans_.size() >= config_.orphan_capacity) {
    Orphan spill = std::move(orphans_.front());
    orphans_.pop_front();
    ++stats_.spilled;
    transmit_(std::move(spill.inner));
  }
  ++stats_.buffered;
  orphans_.push_back(Orphan{std::move(frame), kMaxTtl});
}

bool TreeRouter::seen_before(std::uint64_t fingerprint) {
  for (std::size_t i = 0; i < seen_.size(); ++i) {
    if (seen_.at(i) == fingerprint) return true;
  }
  seen_.push(fingerprint);
  return false;
}

void TreeRouter::forward_inner(util::Bytes inner, std::uint8_t ttl) {
  if (!transmit_) return;
  if (!attached_) {
    if (orphans_.size() >= config_.orphan_capacity) {
      Orphan spill = std::move(orphans_.front());
      orphans_.pop_front();
      ++stats_.spilled;
      transmit_(std::move(spill.inner));
    }
    ++stats_.buffered;
    orphans_.push_back(Orphan{std::move(inner), ttl});
    return;
  }
  ++stats_.forwarded;
  if (is_root_key(parent_)) {
    transmit_(std::move(inner));
  } else {
    transmit_(encode_data(DataFrame{ttl, static_cast<std::uint8_t>(depth_), parent_,
                                    self_key_, inner}));
  }
}

void TreeRouter::on_tree_data(const DataFrame& frame) {
  if (frame.next_hop != self_key_) return;  // addressed to someone else
  if (frame.origin == self_key_) {
    ++stats_.loop_dropped;
    return;
  }
  const auto inner = core::decode_view(frame.inner);
  if (!inner.ok()) {
    ++stats_.corrupt_dropped;
    return;
  }
  if (inner.value().stream_id.sensor == self_key_) {
    ++stats_.loop_dropped;  // own sample came back around the tree
    return;
  }
  if (seen_before(fingerprint_of(inner.value()))) {
    ++stats_.dup_dropped;
    return;
  }
  // Clamp forged TTLs before spending the budget: a hostile 0xFF must
  // not buy more hops than the configured maximum.
  const std::uint8_t ttl = std::min(frame.ttl, kMaxTtl);
  if (ttl == 0) {
    ++stats_.ttl_dropped;
    return;
  }
  auto tagged = with_relayed_flag(frame.inner);
  if (!tagged) {
    ++stats_.corrupt_dropped;
    return;
  }
  forward_inner(std::move(*tagged), static_cast<std::uint8_t>(ttl - 1));
}

void TreeRouter::on_plain_frame(util::BytesView frame) {
  // Tree ingress proxy: a plain single-hop frame from a non-tree sensor
  // is pulled into the tree (or blindly rebroadcast once when no tree is
  // reachable — the pre-tree relay behaviour).
  if (!transmit_) return;
  const auto decoded = core::decode_view(frame);
  if (!decoded.ok()) {
    ++stats_.corrupt_dropped;
    return;
  }
  const core::DataMessageView& msg = decoded.value();
  if (msg.stream_id.sensor == self_key_) return;  // own traffic, echoed
  // An already-relayed frame is never proxied again: one ingress per
  // frame keeps unattached relays from ping-ponging rebroadcasts.
  if (msg.header.has(core::HeaderFlag::kRelayed)) return;
  if (seen_before(fingerprint_of(msg))) {
    ++stats_.dup_dropped;
    return;
  }
  util::Bytes out = encode_relayed(msg);
  ++stats_.proxied;
  if (attached_ && !is_root_key(parent_)) {
    transmit_(encode_data(DataFrame{kMaxTtl, static_cast<std::uint8_t>(depth_),
                                    parent_, self_key_, out}));
  } else {
    transmit_(std::move(out));
  }
}

}  // namespace garnet::wireless::tree
