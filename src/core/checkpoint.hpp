// Service checkpoints and the replicated operation log (crash recovery).
//
// The paper presumes "service-level parallelism and replication ... for
// efficiency, data-integrity, and fault-tolerance" (§3). TinyDB-style
// in-network state dies with the nodes, so Garnet's fixed-side services
// must own their durable state: each stateful service (Filtering dedup
// windows, Dispatching subscriptions/credits, Location tracks,
// the Catalog) serialises itself into a *checkpoint* — a versioned,
// CRC-guarded frame whose body bytes are deterministic (every map is
// walked in sorted key order), so two replicas checkpointing the same
// state produce byte-identical frames.
//
// Between checkpoints, mutations stream into a bounded OpLog that a
// standby tails over the bus (garnet/recovery.hpp). Promotion restores
// the last checkpoint and replays the ops at or past its watermark —
// the classic checkpoint + upstream-replay recovery of stream systems,
// bounded in both directions: the checkpoint cadence bounds replay
// length, the log capacity bounds memory.
//
// Decode NEVER partially applies: it either returns a validated view of
// the state body or a util::DecodeError, and restore_state()
// implementations parse into temporaries before committing.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "util/bytes.hpp"
#include "util/time.hpp"

namespace garnet::core::checkpoint {

/// "GCKP" — rejects frames from other numbering spaces immediately.
inline constexpr std::uint32_t kMagic = 0x47434B50;
/// "GDLT" — an *incremental* frame: dirty entries + removals relative
/// to the frame whose epoch it names as its base. Distinct magic, not a
/// version bump, so pre-delta readers reject deltas as foreign rather
/// than as corrupt full snapshots.
inline constexpr std::uint32_t kDeltaMagic = 0x47444C54;
inline constexpr std::uint8_t kVersion = 1;

/// Full snapshot vs incremental delta over an earlier frame.
enum class FrameKind : std::uint8_t { kFull, kDelta };

struct Header {
  std::uint8_t version = kVersion;
  std::string service;        ///< Recovery-harness service name.
  std::uint64_t epoch = 0;    ///< Monotonic per service; newer wins.
  util::SimTime taken_at{};   ///< Sim time the snapshot was captured.
};

/// Full-frame layout (big-endian):
///   [u32 magic][u8 version][str service][u64 epoch][i64 taken_at]
///   [u32 state_len][state bytes][u32 crc32c over all preceding bytes]
[[nodiscard]] util::Bytes encode(const Header& header, util::BytesView state);

/// Delta-frame layout: as encode(), but under kDeltaMagic and with
/// [u64 base_epoch] between the epoch and taken_at — the epoch of the
/// frame this delta applies on top of. A receiver must reject a delta
/// whose base_epoch is not the epoch of its newest stored frame (epoch
/// skew) or that arrives before any full frame at all.
[[nodiscard]] util::Bytes encode_delta(const Header& header, std::uint64_t base_epoch,
                                       util::BytesView state);

struct Decoded {
  Header header;
  FrameKind kind = FrameKind::kFull;
  std::uint64_t base_epoch = 0;  ///< Meaningful only for kDelta frames.
  util::BytesView state;         ///< Aliases the input buffer.
};

/// Validates framing, version, declared length and CRC before exposing
/// any state bytes. Truncated, bit-flipped or version-skewed input is
/// rejected with the matching DecodeError; nothing is ever applied from
/// a frame that fails any check. Accepts full frames only — the
/// pre-delta surface, still what single-snapshot restore paths use.
[[nodiscard]] util::Result<Decoded, util::DecodeError> decode(util::BytesView wire);

/// Like decode(), but accepts either magic and reports the kind — the
/// replication path, where full snapshots and deltas interleave.
[[nodiscard]] util::Result<Decoded, util::DecodeError> decode_any(util::BytesView wire);

/// Bounded in-memory operation log. The primary appends one Record per
/// logged mutation; the standby's copy (replicated over the bus) is
/// replayed from the checkpoint watermark at promotion. Capacity-bound:
/// the oldest records are evicted first, and `evicted()` exposes how
/// many — a nonzero count with a too-old watermark means the replay
/// window was exceeded and recovery is lossy (surfaced in telemetry).
class OpLog {
 public:
  struct Record {
    std::uint64_t lsn = 0;   ///< Log sequence number, strictly increasing.
    std::uint16_t kind = 0;  ///< Service-private op code.
    util::Bytes payload;
  };

  explicit OpLog(std::size_t capacity = 4096) : capacity_(capacity) {}

  void append(Record record) {
    records_.push_back(std::move(record));
    while (records_.size() > capacity_) {
      records_.pop_front();
      ++evicted_;
    }
  }

  /// Drops every record with lsn <= `lsn` (checkpoint truncation).
  void truncate_through(std::uint64_t lsn) {
    while (!records_.empty() && records_.front().lsn <= lsn) records_.pop_front();
  }

  void clear() { records_.clear(); }

  [[nodiscard]] const std::deque<Record>& records() const noexcept { return records_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t evicted() const noexcept { return evicted_; }

 private:
  std::size_t capacity_;
  std::deque<Record> records_;
  std::uint64_t evicted_ = 0;
};

}  // namespace garnet::core::checkpoint
