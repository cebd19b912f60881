// garnet-gw daemon core: bridges the sim bus to real sockets.
//
// Three listening surfaces (sensd's gateway/hub/cache trio, recast onto
// Garnet's middleware):
//
//   * ingest — external producers push length-prefixed Figure-2 frames;
//     each frame is CRC-verified (it crossed an untrusted medium) and
//     injected into the Runtime pipeline at the dispatch stage, where it
//     fans out to every subscriber, in-process and remote alike.
//   * stream — subscribers send one text line (`SUB <sid|*>/<tag|*>`)
//     and then receive every matching delivery as a length-prefixed
//     delivery frame, written via scatter-gather directly from the
//     dispatcher's shared wire buffer: N sockets alias one allocation,
//     zero payload copies between decode and writev (PR-3 invariant,
//     now across the kernel boundary).
//   * cache — a sensd-style last-value store addressed by `SID/TAG`
//     URIs over a minimal line protocol (GET/LIST/METRICS/QUIT), updated
//     from the same delivery path, serving pull-style readers that do
//     not want a live stream.
//
// Overload behaviour reuses the PR-4 vocabulary (net/overload.hpp):
// every subscriber carries a bounded outbox of data frames; a full
// outbox sheds the arriving frame when the peer reads too slowly (the
// drop_newest row of garnet.gw.shed) — one slow consumer
// never head-of-line-blocks the others — while control frames (protocol
// replies) are never shed and jump ahead of queued data. A shed
// subscriber recovers the latest value through the cache.
//
// Egress is batched. A delivery only queues its frame; each unblocked
// connection with queued frames is flushed with one gathered writev at
// the start of pump() (so what the scheduler queued goes out
// before any new request is read), at its end, and early once kBatchFrames
// unsent frames fill the writev slice array. A data frame is shed only
// after a flush attempt found the peer blocked, so a burst larger than
// the outbox bound is written to a fast reader rather than dropped.
// Control replies still flush at once.
//
// The core is transport-agnostic (gw/transport.hpp): production runs on
// PosixTransport, tests drive the identical state machine through
// LoopbackTransport deterministically.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/consumer.hpp"
#include "garnet/runtime.hpp"
#include "gw/framing.hpp"
#include "gw/transport.hpp"
#include "gw/uri_cache.hpp"
#include "net/overload.hpp"
#include "obs/metrics.hpp"

namespace garnet::gw {

/// Parses a `SUB` pattern: `*`, `<sid>/<tag>`, `<sid>/*`, or `*/<tag>`.
[[nodiscard]] std::optional<core::StreamPattern> parse_stream_pattern(std::string_view spec);

/// Canonical text form of a pattern (`*` fields for wildcards).
[[nodiscard]] std::string pattern_uri(const core::StreamPattern& pattern);

struct GatewayConfig {
  /// Bus endpoint + AuthService name for the gateway's internal
  /// consumer (unique per bus; override when embedding two gateways).
  std::string endpoint_name = "consumer.gw";
  std::string consumer_name = "gateway";
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 1024;
  /// Bounded per-subscriber outbox, in data frames. Control frames are
  /// not bounded (they are small and never shed).
  std::size_t outbox_frames = 256;
  /// When the embedding Runtime has admission control enabled, the
  /// effective outbox bound follows the probed data-pool size:
  /// clamp(pool_size × outbox_frames_per_ticket, 1, outbox_frames).
  /// A pool the prober shrank (the pipeline is the bottleneck) shrinks
  /// the egress queues with it, so slow TCP readers shed early instead
  /// of buffering deliveries the middleware already regrets admitting.
  /// 0 = ignore admission and keep the static outbox_frames bound.
  std::size_t outbox_frames_per_ticket = 4;
};

struct GatewayStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;             ///< By us or by the peer.
  std::uint64_t rejected_capacity = 0;  ///< Accepts refused at max_connections.
  std::uint64_t ingest_frames = 0;      ///< Valid Figure-2 frames injected.
  std::uint64_t ingest_bytes = 0;       ///< Raw bytes read on ingest conns.
  std::uint64_t ingest_malformed = 0;   ///< Frames failing decode/CRC.
  std::uint64_t ingest_oversized = 0;   ///< Length prefixes past the bound.
  std::uint64_t egress_frames = 0;      ///< Data frames fully written.
  std::uint64_t egress_bytes = 0;       ///< All bytes written (head + body).
  std::uint64_t partial_writes = 0;     ///< writev rounds that came up short.
  std::uint64_t bad_requests = 0;       ///< Unparseable protocol lines.
  std::uint64_t cache_requests = 0;     ///< GET/LIST/METRICS commands served.
  /// PR-4 shed accounting; control_* stay zero by construction and the
  /// exposition proves it (garnet.gw.shed{class=control} == 0).
  net::ShedStats shed;
};

class Gateway {
 public:
  /// The registry inside `runtime.telemetry()` must outlive the
  /// Gateway (it deregisters its collector on destruction).
  Gateway(Runtime& runtime, Transport& transport, GatewayConfig config = {});
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// One transport round: flush the data frames queued since the last
  /// round, poll, service every event (accepts, reads, resumed writes),
  /// then flush again. Non-blocking; returns the events handled plus
  /// the connections flushed. Deliveries are queued while the runtime's
  /// scheduler runs — interleave pump() with scheduler progress (see
  /// step()).
  std::size_t pump();

  /// pump + run the scheduler for `span` of virtual time + pump: one
  /// convenient turn of the daemon crank for tests and embedders.
  void step(util::Duration span);

  [[nodiscard]] const GatewayStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const LastValueCache& cache() const noexcept { return cache_; }
  [[nodiscard]] LastValueCache& cache() noexcept { return cache_; }
  [[nodiscard]] std::size_t connections() const noexcept { return conns_.size(); }
  [[nodiscard]] std::size_t connections(Listener listener) const;
  /// Stream connections currently holding a subscription.
  [[nodiscard]] std::size_t subscribers() const;
  /// The gateway's internal bus consumer (its delivery feed).
  [[nodiscard]] core::Consumer& consumer() noexcept { return consumer_; }

 private:
  /// One queued egress frame: a small head (a data frame's inline
  /// length prefix, or a control frame's owned text line) plus an
  /// optional shared body aliasing the delivery's wire buffer — the
  /// zero-copy half.
  struct OutFrame {
    util::Bytes text;
    std::array<std::byte, kLengthPrefixBytes> prefix{};
    util::SharedBytes body;
    net::TrafficClass cls = net::TrafficClass::kControl;

    [[nodiscard]] util::BytesView head() const noexcept {
      return cls == net::TrafficClass::kData ? util::BytesView(prefix) : util::BytesView(text);
    }
    [[nodiscard]] std::size_t size() const noexcept { return head().size() + body.size(); }
  };

  /// Slices one writev gathers; a data frame takes two (prefix, body),
  /// so kBatchFrames unsent data frames fill it and flush early.
  static constexpr std::size_t kMaxSlices = 64;
  static constexpr std::size_t kBatchFrames = kMaxSlices / 2;

  struct Conn {
    ConnId id = 0;
    Listener listener = Listener::kIngest;
    FrameAssembler frames;  ///< Ingest reassembly.
    std::string line;       ///< Stream/cache text accumulation.
    std::deque<OutFrame> outbox;
    std::size_t head_offset = 0;  ///< Bytes of outbox.front() already written.
    std::size_t data_frames = 0;  ///< Data-class frames queued (the bound).
    std::optional<core::StreamPattern> subscription;
    bool blocked = false;            ///< writev said would-block.
    bool close_when_drained = false; ///< QUIT acknowledged.
    bool dead = false;               ///< Reaped after the current sweep.
  };

  void on_event(const TransportEvent& event);
  void on_readable(Conn& conn);
  void on_ingest_chunk(Conn& conn, util::BytesView chunk);
  void on_text_chunk(Conn& conn, util::BytesView chunk);
  void on_stream_line(Conn& conn, std::string_view line);
  void on_cache_line(Conn& conn, std::string_view line);
  void on_delivery(const core::DeliveryView& delivery);

  void send_control(Conn& conn, std::string_view text, util::SharedBytes body = {});
  /// Current per-subscriber data-frame bound (admission-derived when the
  /// runtime gates ingress, config_.outbox_frames otherwise).
  [[nodiscard]] std::size_t effective_outbox_frames();
  void enqueue_data(Conn& conn, OutFrame frame);
  void flush(Conn& conn);
  /// Flushes every unblocked connection with queued frames; returns
  /// how many it flushed.
  std::size_t flush_pending();
  /// Consumes `written` bytes off the front of the outbox.
  void advance_outbox(Conn& conn, std::size_t written);
  void close_conn(Conn& conn);
  void reap();
  void collect(obs::SnapshotBuilder& out) const;

  Runtime& runtime_;
  Transport& transport_;
  GatewayConfig config_;
  core::Consumer consumer_;
  LastValueCache cache_;
  GatewayStats stats_;
  std::map<ConnId, Conn> conns_;  ///< Ordered: deterministic fan-out order.
  std::vector<TransportEvent> events_;
  std::vector<std::byte> scratch_;
  obs::MetricsRegistry::CollectorId collector_id_ = 0;
  obs::Histogram* ingest_frame_bytes_ = nullptr;
  obs::Histogram* egress_frame_bytes_ = nullptr;
  obs::Histogram* delivery_latency_ = nullptr;
};

}  // namespace garnet::gw
