// Self-organizing multi-hop tree routing (paper §8, ROADMAP item 4).
//
// The paper's single-hop radio model leaves every sensor outside a
// receiver's disk mute. This module grows a spanning forest rooted at the
// fixed receivers using nothing but the lossy medium itself: receivers
// beacon with hop count 0, relay-capable nodes overhear beacons, pick a
// parent by (hop count, smoothed RSSI) with hysteresis, re-beacon their
// own depth, and forward data frames parent-ward with a TTL and
// per-(sensor, sequence) duplicate suppression.
//
// Churn is the steady state, not the exception: parent loss is detected
// by a missed-beacon timeout, re-attachment backs off exponentially, and
// frames caught in flight during repair are buffered in a bounded orphan
// queue whose overflow spills frames as plain single-hop transmissions —
// graceful degradation instead of silent loss.
//
// Two frame kinds ride the uplink next to Figure-2 data frames. Both are
// prefixed with a magic byte (0xB7) whose version bits can never collide
// with a valid Figure-2 header (version 1 ⇒ first byte 0b01xxxxxx), and
// both carry a CRC-32C trailer so bit-flips on the air are dropped, not
// misrouted:
//
//   beacon  [0xB7]['B'][u32 origin][u16 hop][u32 root][u32 crc]
//   data    [0xB7]['D'][u8 ttl][u8 hop][u32 next_hop][u32 origin]
//           [u16 len][len bytes: inner Figure-2 frame][u32 crc]
//
// Keys: a node's key is its 24-bit SensorId; a receiver (root) key is
// kRootKeyFlag | receiver id. The router never draws randomness — tree
// formation is a pure function of the frame arrival order, so same-seed
// runs produce byte-identical repair journals at any advance() cadence.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/message.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/ring_buffer.hpp"
#include "util/time.hpp"

namespace garnet::wireless::tree {

/// High bit marks fixed-receiver (root) keys; low bits carry the id.
inline constexpr std::uint32_t kRootKeyFlag = 0x8000'0000u;

[[nodiscard]] constexpr std::uint32_t root_key(std::uint32_t receiver_id) {
  return kRootKeyFlag | receiver_id;
}
[[nodiscard]] constexpr bool is_root_key(std::uint32_t key) {
  return (key & kRootKeyFlag) != 0;
}

/// Magic first byte of every tree frame. Its version bits (7..6 = 10)
/// make it unmistakable for a Figure-2 frame (version 1 ⇒ 0b01xxxxxx).
inline constexpr std::uint8_t kTreeMagic = 0xB7;
inline constexpr std::uint8_t kBeaconType = 'B';
inline constexpr std::uint8_t kDataType = 'D';

struct Beacon {
  std::uint32_t origin = 0;  ///< Beaconing node/root key.
  std::uint16_t hop = 0;     ///< Origin's depth (0 for roots).
  std::uint32_t root = 0;    ///< Root the origin is attached to.
};

struct DataFrame {
  std::uint8_t ttl = 0;
  std::uint8_t hop = 0;          ///< Sender's depth (diagnostic).
  std::uint32_t next_hop = 0;    ///< Key the frame is addressed to.
  std::uint32_t origin = 0;      ///< Key of the wrapping node.
  util::BytesView inner;         ///< Encapsulated Figure-2 frame.
};

[[nodiscard]] bool is_tree_frame(util::BytesView frame);
[[nodiscard]] util::Bytes encode_beacon(const Beacon& beacon);
[[nodiscard]] std::optional<Beacon> decode_beacon(util::BytesView frame);
[[nodiscard]] util::Bytes encode_data(const DataFrame& frame);
/// The returned DataFrame's `inner` aliases `frame`.
[[nodiscard]] std::optional<DataFrame> decode_data(util::BytesView frame);

/// What a fixed-network uplink sink should do with one received frame.
/// Receivers opportunistically decapsulate tree data frames they overhear
/// (the inner Figure-2 frame enters Filtering as usual — relayed copies
/// stay out of location evidence via kRelayed); beacons and corrupt tree
/// frames never reach the middleware.
struct SinkDecision {
  enum class Verdict : std::uint8_t {
    kPassThrough,  ///< Not a tree frame: deliver as-is.
    kBeacon,       ///< Tree beacon: drop before Filtering.
    kInner,        ///< Tree data: deliver `inner` instead of the frame.
    kCorrupt,      ///< Malformed tree frame: drop.
  };
  Verdict verdict = Verdict::kPassThrough;
  util::Bytes inner;
};
[[nodiscard]] SinkDecision decide_at_sink(util::BytesView frame);

/// Bounded, deterministic record of tree repair events (attach /
/// reparent / orphan), text-rendered like the fault journal so same-seed
/// runs are byte-comparable.
class TreeJournal {
 public:
  explicit TreeJournal(std::size_t limit = 0) : limit_(limit) {}

  void record(util::SimTime at, std::string_view event, std::uint32_t node,
              std::uint32_t parent);
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// One line per event: "<ns> <event> <node>-><parent>\n".
  [[nodiscard]] std::string text() const;
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    util::SimTime at;
    std::string event;
    std::uint32_t node = 0;
    std::uint32_t parent = 0;
  };
  std::size_t limit_;
  std::vector<Entry> entries_;
};

/// "root-<id>" or "sensor-<id>" rendering used by the repair journal.
[[nodiscard]] std::string key_name(std::uint32_t key);

/// Hop budget for forwarded data frames; ingress clamps forged values.
/// Also the deepest a node may attach (a beacon at this hop is ignored).
inline constexpr std::uint8_t kMaxTtl = 8;

struct TreeConfig {
  /// Beacon cadence of attached nodes; also the maintenance-tick period.
  util::Duration beacon_interval = util::Duration::millis(400);
  std::size_t orphan_capacity = 32;    ///< Frames buffered while orphaned.
  std::size_t dedup_capacity = 256;    ///< (sensor, seq) fingerprints kept.
  std::size_t neighbor_capacity = 32;  ///< Beacon sources tracked.
};

struct TreeStats {
  std::uint64_t beacons_sent = 0;
  std::uint64_t beacons_heard = 0;
  std::uint64_t attaches = 0;       ///< First attach + post-orphan re-attaches.
  std::uint64_t reparents = 0;      ///< Attached-to-attached parent switches.
  std::uint64_t orphan_events = 0;  ///< Parent-loss detections.
  std::uint64_t forwarded = 0;      ///< Tree data frames forwarded parent-ward.
  std::uint64_t proxied = 0;        ///< Plain overheard frames pulled into the tree.
  std::uint64_t dup_dropped = 0;    ///< Duplicate-suppression drops.
  std::uint64_t ttl_dropped = 0;    ///< TTL-exhausted drops (loop symptom).
  std::uint64_t loop_dropped = 0;   ///< Own frame came back around.
  std::uint64_t corrupt_dropped = 0;
  std::uint64_t buffered = 0;       ///< Frames parked in the orphan queue.
  std::uint64_t spilled = 0;        ///< Overflow frames sent plain instead.
};

/// Per-node routing state machine. Owned by a relay-capable SensorNode;
/// fed overheard frames (with RSSI) and the node's own samples; emits
/// transmissions through a hook so the node keeps paying the energy bill.
/// Draws no randomness: determinism by construction.
class TreeRouter {
 public:
  TreeRouter(sim::Scheduler& scheduler, TreeConfig config, std::uint32_t self_key);

  /// Every frame the router wants on the air goes through here.
  void set_transmit(std::function<void(util::Bytes)> transmit) {
    transmit_ = std::move(transmit);
  }
  void set_journal(TreeJournal* journal) { journal_ = journal; }

  /// Starts the maintenance timer. stop() wipes all volatile state —
  /// crash semantics: a restarted relay rejoins the tree from scratch.
  void start();
  void stop();

  /// The node's own Figure-2 frame enters the tree here. Attached: wrap
  /// toward the parent (or transmit plain when the parent is a root —
  /// the receiver hears the final hop directly). Never attached:
  /// transmit plain (legacy single-hop behaviour). Orphaned: buffer,
  /// spilling the oldest frame as a plain transmission on overflow.
  void send_own(util::Bytes frame);

  /// One overheard frame (beacon, tree data, or plain Figure-2).
  void on_frame(util::BytesView frame, double rssi_dbm);

  /// Beacon-loss fault: the node stops hearing beacons (its parent will
  /// eventually be declared lost), exercising repair without a crash.
  void set_beacon_deaf(bool deaf) { beacon_deaf_ = deaf; }

  [[nodiscard]] bool attached() const noexcept { return attached_; }
  [[nodiscard]] std::uint32_t parent_key() const noexcept { return parent_; }
  [[nodiscard]] std::uint16_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t neighbor_count() const noexcept { return neighbors_.size(); }
  [[nodiscard]] std::size_t orphan_backlog() const noexcept { return orphans_.size(); }
  [[nodiscard]] const TreeStats& stats() const noexcept { return stats_; }

 private:
  struct Neighbor {
    std::uint16_t hop = 0;
    std::uint32_t root = 0;
    double rssi_dbm = -120.0;
    util::SimTime last_heard;
  };

  void on_beacon(const Beacon& beacon, double rssi_dbm);
  void on_tree_data(const DataFrame& frame);
  void on_plain_frame(util::BytesView frame);
  void maintenance_tick();
  void attach_to(std::uint32_t key);
  void detach();
  void try_attach_best();
  void send_beacon();
  /// Forwards an already-kRelayed inner frame toward the parent.
  void forward_inner(util::Bytes inner, std::uint8_t ttl);
  [[nodiscard]] bool seen_before(std::uint64_t fingerprint);
  [[nodiscard]] util::Duration parent_timeout() const;

  sim::Scheduler& scheduler_;
  TreeConfig config_;
  std::uint32_t self_key_;
  std::function<void(util::Bytes)> transmit_;
  TreeJournal* journal_ = nullptr;

  std::map<std::uint32_t, Neighbor> neighbors_;
  bool running_ = false;
  bool beacon_deaf_ = false;
  bool attached_ = false;
  bool ever_attached_ = false;
  std::uint32_t parent_ = 0;
  std::uint32_t root_ = 0;
  std::uint16_t depth_ = 0;
  util::SimTime parent_since_;
  std::uint32_t losses_ = 0;        ///< Consecutive parent losses (backoff exponent).
  util::SimTime reattach_at_;       ///< Earliest next attach attempt.
  util::RingBuffer<std::uint64_t> seen_;
  struct Orphan {
    util::Bytes inner;
    std::uint8_t ttl = 0;
  };
  std::deque<Orphan> orphans_;
  sim::EventId tick_;
  TreeStats stats_;
};

}  // namespace garnet::wireless::tree
