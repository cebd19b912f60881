// Stream catalog: advertising and discovery.
//
// Consumers "use typical advertising, discovery, registration ...
// mechanisms to identify, subscribe to, and receive data streams of
// interest" (paper §3). The catalog records advertised streams, detects
// streams that appear on the air without advertisement (the un-configured
// streams the Orphanage exists for), and allocates StreamIds for derived
// streams published by multi-level consumers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/message.hpp"
#include "core/stream_table.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace garnet::core {

struct StreamInfo {
  StreamId id;
  std::string name;        ///< Human label, empty for auto-detected streams.
  std::string stream_class;///< e.g. "temperature", "water-level", "location".
  bool advertised = false; ///< Explicitly advertised vs detected on the air.
  bool derived = false;    ///< Produced by a consumer, not a sensor.
  util::SimTime first_seen;
  util::SimTime last_seen;
  std::uint64_t messages = 0;
};

/// Sensor ids at or above this value are reserved for derived streams
/// (multi-level consumers re-publishing processed data, paper §4.2).
inline constexpr SensorId kDerivedSensorBase = 0xF0'0000;

class StreamCatalog {
 public:
  /// Explicitly advertises a stream (producer-side registration).
  void advertise(StreamId id, std::string name, std::string stream_class, bool derived = false);

  /// Records that a message on `id` was observed at `now`; auto-creates an
  /// un-advertised entry for unknown streams so they become discoverable.
  void note_message(StreamId id, util::SimTime now);

  [[nodiscard]] const StreamInfo* find(StreamId id) const;

  struct Query {
    std::optional<SensorId> sensor;
    std::string stream_class;  ///< Empty matches any class.
    bool include_unadvertised = true;
  };
  [[nodiscard]] std::vector<StreamInfo> discover(const Query& query) const;

  /// Allocates a fresh derived-stream id (paper: consumers "may generate
  /// further derived data streams").
  [[nodiscard]] StreamId allocate_derived();

  /// Crash-recovery snapshot: every stream record plus the derived-id
  /// allocator, streams sorted by packed id (byte-deterministic).
  [[nodiscard]] util::Bytes capture_state() const;

  /// capture_state() plus a rebase of the incremental-capture baseline:
  /// the next capture_delta() reports changes relative to this snapshot.
  [[nodiscard]] util::Bytes capture_full();

  /// Incremental snapshot: only streams touched since the last
  /// capture_full()/capture_delta(), plus removals and the allocator.
  /// O(dirty streams) to encode instead of O(catalog).
  [[nodiscard]] util::Bytes capture_delta();

  /// Applies one capture_delta() body on top of the current state.
  /// Parses fully before committing — never partially applies.
  [[nodiscard]] util::Status<util::DecodeError> apply_delta(util::BytesView delta);

  /// Rebuilds from capture_state() bytes; parses fully before
  /// committing, current state survives a failed restore.
  [[nodiscard]] util::Status<util::DecodeError> restore_state(util::BytesView state);

  /// Crash wipe: forgets every stream and resets the derived allocator.
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return streams_.size(); }

  /// Index + arena bytes of the stream table (bench_scale bytes/stream).
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return streams_.memory_bytes(); }

  /// Lookup cost of the stream table's index (bench_scale probe gate).
  [[nodiscard]] ProbeStats probe_stats() const { return streams_.probe_stats(); }

 private:
  static void encode_info(util::ByteWriter& w, const StreamInfo& info);
  [[nodiscard]] static StreamInfo decode_info(StreamKey key, util::ByteReader& r);

  StreamTable<StreamInfo> streams_;
  SensorId next_derived_sensor_ = kDerivedSensorBase;
  InternalStreamId next_derived_stream_ = 0;
};

}  // namespace garnet::core
