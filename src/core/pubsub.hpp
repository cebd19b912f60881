// Publish/subscribe plumbing: stream patterns and the subscription table.
//
// "Consumer processes use a publish/subscribe mechanism to access data
// streams, which permits un-configured data streams to be detected"
// (paper §4.2). The Dispatching Service consults this table for every
// filtered message; a message matching no subscription is "unclaimed" and
// goes to the Orphanage.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/message.hpp"
#include "net/bus.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace garnet::core {

/// Per-subscription quality-of-service options (paper §1 lists
/// "mechanisms to support quality of service" among the required
/// delivery mechanisms; "real-time ... is context dependent", so the
/// bounds are per-consumer, not global).
struct SubscribeOptions {
  /// Rate cap: suppress deliveries arriving sooner than this after the
  /// previous delivery on this subscription. 0 = deliver everything.
  /// This is consumer-side demand shaping — a slow dashboard need not
  /// receive a 100Hz stream it would discard.
  std::uint32_t min_interval_ms = 0;
  /// Staleness bound: drop messages older than this (measured from the
  /// instant the fixed network first heard them). 0 = no bound. A
  /// context where only fresh data is actionable (actuation loops)
  /// prefers a gap to a late sample.
  std::uint32_t max_age_ms = 0;
};

/// What a subscription matches. Absent fields are wildcards:
///   exact(id)        — one specific stream,
///   all_of(sensor)   — every internal stream of one sensor,
///   everything()     — firehose (e.g. monitoring consumers).
struct StreamPattern {
  std::optional<SensorId> sensor;
  std::optional<InternalStreamId> stream;

  [[nodiscard]] static StreamPattern exact(StreamId id) { return {id.sensor, id.stream}; }
  [[nodiscard]] static StreamPattern all_of(SensorId sensor) { return {sensor, std::nullopt}; }
  [[nodiscard]] static StreamPattern everything() { return {std::nullopt, std::nullopt}; }

  [[nodiscard]] bool matches(StreamId id) const {
    return (!sensor || *sensor == id.sensor) && (!stream || *stream == id.stream);
  }
  [[nodiscard]] bool is_exact() const { return sensor && stream; }

  /// Wire form: sensor 0xFFFFFFFF = any, stream 0x100 = any.
  [[nodiscard]] std::uint64_t packed() const;
  [[nodiscard]] static StreamPattern from_packed(std::uint64_t v);
};

using SubscriptionId = std::uint64_t;

struct QosStats {
  std::uint64_t suppressed_rate = 0;   ///< Copies withheld by min_interval.
  std::uint64_t suppressed_stale = 0;  ///< Copies withheld by max_age.
};

class SubscriptionTable {
 public:
  SubscriptionId add(net::Address consumer, StreamPattern pattern, SubscribeOptions qos = {});

  /// Returns false if the id was unknown.
  bool remove(SubscriptionId id);

  /// Removes every subscription held by `consumer`; returns how many.
  std::size_t remove_consumer(net::Address consumer);

  /// Timing context for QoS decisions on one delivery.
  struct DeliveryContext {
    util::SimTime now;
    util::SimTime first_heard;
  };

  /// Appends the addresses owed this message into `out`, deduplicated (a
  /// consumer holding an exact and a wildcard match gets one copy), after
  /// applying each subscription's QoS options. Non-const: rate caps
  /// track the last delivery per subscription.
  void collect(StreamId id, const DeliveryContext& context, std::vector<net::Address>& out);

  /// QoS-blind form (tests, anyone_wants-style probing).
  void collect(StreamId id, std::vector<net::Address>& out);

  /// Byte-deterministic snapshot of every subscription (sorted by id)
  /// plus the id allocator, appended to `w` for service checkpoints.
  /// Rate-cap state (`last_delivery`) is transient and not captured; a
  /// restored subscription may deliver one message early.
  void capture(util::ByteWriter& w) const;

  /// Rebuilds the table from capture() bytes at `r`'s cursor. Parses
  /// fully before committing — on failure the table is untouched.
  [[nodiscard]] util::Status<util::DecodeError> restore(util::ByteReader& r);

  /// Re-inserts one subscription under its original id (checkpoint
  /// restore and op-log replay), bumping the allocator past it. A
  /// duplicate id is ignored, making replay idempotent.
  void restore_entry(SubscriptionId id, net::Address consumer, StreamPattern pattern,
                     SubscribeOptions qos);

  [[nodiscard]] bool anyone_wants(StreamId id) const;
  /// True when `consumer` holds any subscription (exact or wildcard)
  /// matching `id`. QoS-blind; used by quarantine resume to decide
  /// whether a stashed message is still owed to the consumer.
  [[nodiscard]] bool subscribes(net::Address consumer, StreamId id) const;
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] const QosStats& qos_stats() const noexcept { return qos_stats_; }

 private:
  struct Entry {
    SubscriptionId id;
    net::Address consumer;
    StreamPattern pattern;
    SubscribeOptions qos;
    util::SimTime last_delivery{-1};  ///< -1 = never delivered.
  };

  /// True if this entry's QoS admits the delivery; updates rate state.
  bool qos_admits(Entry& entry, const DeliveryContext& context);

  /// Files a new entry in the bucket its pattern selects (add and
  /// restore_entry).
  void place(const Entry& entry);

  // Exact subscriptions are filed by stream and all_of(sensor) ones by
  // sensor, so a message finds both with one lookup each. Only patterns
  // without a sensor (stream-only and everything()) are scanned linearly;
  // they are few in practice, and bench_dispatch's BM_WildcardScan prices
  // the scan. Buckets are erased when they empty. A reverse index keeps
  // unsubscribe O(bucket) instead of O(table).
  std::unordered_map<StreamId, std::vector<Entry>> exact_;
  std::unordered_map<SensorId, std::vector<Entry>> by_sensor_;
  std::vector<Entry> wildcards_;
  std::unordered_map<SubscriptionId, StreamPattern> index_;  // id -> pattern (its bucket)
  SubscriptionId next_id_ = 1;
  std::size_t count_ = 0;
  QosStats qos_stats_;
};

}  // namespace garnet::core
