// Filtering Service (paper §4.2).
//
// "The Filtering Service reconstructs the data streams by eliminating
// duplicate data messages. Filtered data is then forwarded to the
// Dispatching Service for delivery to subscribed consumer processes."
//
// Input is the raw receiver feed: every surviving copy of every frame,
// from every receiver whose zone contained the sensor — i.e. duplicated,
// jittered and possibly out of order. This service
//
//   * decodes and checksum-verifies each copy,
//   * eliminates duplicates with a per-stream sequence window that is
//     correct across the 16-bit sequence wraparound,
//   * optionally holds messages in a small reorder buffer so consumers
//     see in-sequence streams despite radio jitter, and
//   * republishes per-copy reception metadata (receiver id, RSSI) — the
//     duplicates the dedup discards are exactly what the Location Service
//     wants, since each copy names a receiver that heard the sensor.
#pragma once

#include <functional>
#include <map>

#include "core/message.hpp"
#include "core/seen_window.hpp"
#include "core/stream_table.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/time.hpp"
#include "wireless/radio.hpp"

namespace garnet::core {

/// Metadata about one heard copy, forwarded to the Location Service.
struct ReceptionEvent {
  SensorId sensor = 0;
  wireless::ReceiverId receiver = 0;
  double rssi_dbm = 0.0;
  util::SimTime heard_at;
};

struct FilteringStats {
  std::uint64_t copies_in = 0;        ///< Reception reports ingested.
  std::uint64_t malformed = 0;        ///< Copies failing decode/checksum.
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t stale_dropped = 0;    ///< Arrived after their window passed.
  std::uint64_t messages_out = 0;     ///< Unique messages forwarded.
  std::uint64_t reordered = 0;        ///< Messages held then released in order.
  std::uint64_t streams_seen = 0;     ///< Distinct StreamIds reconstructed.
  std::uint64_t relayed_copies = 0;   ///< Copies that arrived via a relay hop.

  /// Cross-shard aggregation: each shard reconstructs a disjoint slice
  /// of the stream space, so the plane-wide view is a plain sum.
  FilteringStats& operator+=(const FilteringStats& other) noexcept {
    copies_in += other.copies_in;
    malformed += other.malformed;
    duplicates_dropped += other.duplicates_dropped;
    stale_dropped += other.stale_dropped;
    messages_out += other.messages_out;
    reordered += other.reordered;
    streams_seen += other.streams_seen;
    relayed_copies += other.relayed_copies;
    return *this;
  }
};

/// Filtering's single op-log record kind (garnet/recovery): one message
/// forwarded downstream. Payload: [u32 packed StreamId][u16 sequence].
/// Replayed through note_seen() on a promoted standby.
inline constexpr std::uint16_t kFilteringOpSeen = 1;

class FilteringService {
 public:
  struct Config {
    /// How far back (in sequence distance) a copy may trail the newest
    /// seen sequence and still be recognised as a duplicate rather than a
    /// wrapped-around new message. Must be < 32768 (half the space).
    std::uint16_t dedup_window = 1024;
    /// Depth of the in-order release buffer; 0 forwards immediately in
    /// arrival order (ablation A2 sweeps this).
    std::uint16_t reorder_depth = 0;
    /// How long to wait for a sequence gap to fill before releasing
    /// out-of-order anyway.
    util::Duration reorder_timeout = util::Duration::millis(20);
  };

  using MessageSink = std::function<void(const DataMessage&, util::SimTime first_heard)>;
  using ReceptionSink = std::function<void(const ReceptionEvent&)>;

  /// Per-stream reconstruction accounting. `estimated_lost` counts
  /// sequence-number gaps never filled by any copy — frames the radio
  /// swallowed entirely (sensor roamed out of coverage, or every
  /// receiver's copy was lost).
  struct StreamReport {
    StreamId id;
    std::uint64_t accepted = 0;        ///< Unique messages reconstructed.
    std::uint64_t estimated_lost = 0;  ///< Gaps in the sequence space.
    SequenceNo newest = 0;
  };

  FilteringService(sim::Scheduler& scheduler, Config config);

  /// Unique messages, deduplicated (and, if configured, re-ordered).
  void set_message_sink(MessageSink sink) { message_sink_ = std::move(sink); }

  /// Every valid copy, including duplicates (Location Service feed).
  void set_reception_sink(ReceptionSink sink) { reception_sink_ = std::move(sink); }

  /// Ingests one raw copy from a receiver.
  void ingest(const wireless::ReceptionReport& report);

  /// Drops all per-stream state (e.g. on redeployment).
  void reset();

  /// Crash-recovery surface (core/checkpoint.hpp): byte-deterministic
  /// snapshot of the per-stream dedup state, streams sorted by packed id.
  /// The reorder hold buffer is in-flight data and intentionally not
  /// captured — at most reorder_depth messages per stream ride a crash
  /// (they surface as sequence gaps, never as duplicates).
  [[nodiscard]] util::Bytes capture_state() const;

  /// capture_state() plus a rebase of the incremental-capture baseline.
  [[nodiscard]] util::Bytes capture_full();

  /// Incremental snapshot: only streams whose dedup state changed since
  /// the last capture, plus removals. O(active streams) per interval
  /// instead of O(all streams ever seen).
  [[nodiscard]] util::Bytes capture_delta();

  /// Applies one capture_delta() body on top of the current state.
  /// Parses fully before committing — never partially applies. Gap
  /// timers of replaced or removed streams are cancelled.
  [[nodiscard]] util::Status<util::DecodeError> apply_delta(util::BytesView delta);

  /// Rebuilds dedup state from capture_state() bytes. Fully parses
  /// before committing; current state survives a failed restore.
  [[nodiscard]] util::Status<util::DecodeError> restore_state(util::BytesView state);

  /// Marks (id, seq) as already seen and forwarded — the op-log replay
  /// primitive. A promoted standby replays the primary's post-checkpoint
  /// output through this to advance its dedup cursor without re-emitting.
  void note_seen(StreamId id, SequenceNo seq);

  /// Message traces: closes the "radio" span at first valid receipt and
  /// brackets dedup/reorder work in a "filter" span.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] const FilteringStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Loss/reception accounting for every reconstructed stream.
  [[nodiscard]] std::vector<StreamReport> stream_reports() const;

  /// Index + arena bytes of the stream table plus the heap of every
  /// stream's dedup window (bench_scale bytes/stream). O(streams).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// Lookup cost of the stream table's index (bench_scale probe gate).
  [[nodiscard]] ProbeStats probe_stats() const { return streams_.probe_stats(); }

 private:
  struct PendingMessage {
    DataMessage message;
    util::SimTime first_heard;
  };

  /// Per-stream reconstruction state.
  struct StreamState {
    bool started = false;
    SequenceNo newest = 0;  ///< Highest (mod-wrap) sequence seen.
    std::uint64_t accepted = 0;       ///< Unique messages reconstructed.
    std::uint64_t total_advance = 0;  ///< Sum of forward sequence jumps.
    // Sequences accepted within dedup_window of `newest`, by distance
    // back from it (core/seen_window.hpp).
    SeenWindow seen;
    // Reorder buffer keyed by sequence distance from next_release.
    SequenceNo next_release = 0;  ///< Next sequence owed to the sink.
    std::map<SequenceNo, PendingMessage> held;
    sim::EventId gap_timer;
  };

  /// What mark_seen() made of one sequence.
  enum class Mark : std::uint8_t {
    kFirst,      ///< The stream's first sequence.
    kAdvanced,   ///< New newest sequence.
    kFilled,     ///< Late but new, inside the window.
    kDuplicate,  ///< Already in the window.
    kStale,      ///< Too far behind the newest to tell apart.
  };

  /// The one seen-set update shared by accept() and note_seen(): records
  /// `seq` if it is new and advances the window when it is the newest.
  Mark mark_seen(StreamState& state, SequenceNo seq);

  /// `message` is a view into the radio frame; the payload is copied out
  /// only when the message is accepted (duplicates drop copy-free).
  void accept(StreamState& state, const DataMessageView& message, util::SimTime heard_at);
  void release_ready(StreamId id, StreamState& state);
  void flush_gap(StreamId id);
  void arm_gap_timer(StreamId id, StreamState& state);
  static void encode_stream(util::ByteWriter& w, std::uint32_t packed, const StreamState& state);
  [[nodiscard]] StreamState decode_stream(util::ByteReader& r) const;

  /// True if `a` is newer than `b` in wrapping 16-bit arithmetic.
  [[nodiscard]] static bool seq_newer(SequenceNo a, SequenceNo b) {
    return static_cast<std::uint16_t>(a - b) < 0x8000 && a != b;
  }

  sim::Scheduler& scheduler_;
  Config config_;
  MessageSink message_sink_;
  ReceptionSink reception_sink_;
  StreamTable<StreamState> streams_;
  FilteringStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace garnet::core
