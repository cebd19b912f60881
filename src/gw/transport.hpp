// Transport seam between the gateway daemon core and the operating
// system's sockets.
//
// The daemon logic (accept, frame reassembly, fan-out, shedding, cache
// protocol) is pure state-machine code driven by TransportEvents; the
// Transport interface is the only place bytes enter or leave. Two
// implementations:
//
//   * PosixTransport   — real non-blocking TCP listeners driven by
//                        poll(2), scatter-gather writes via sendmsg
//                        (MSG_NOSIGNAL), SO_REUSEADDR, ephemeral-port
//                        friendly (bind port 0, read back the port).
//   * LoopbackTransport — deterministic in-memory peers for unit and
//                        fuzz tests: scripted connects, byte feeds,
//                        capped write windows (short writes and slow
//                        consumers on demand), mid-frame disconnects.
//
// Contract shared by both: read() returns >0 bytes, 0 for would-block,
// -1 for EOF/error (the caller closes); writev() returns bytes accepted
// (possibly short), 0 for would-block, -1 for a dead peer. Writable
// events are edge-style and only reported while want_writable(conn,
// true) is in force.
#pragma once

#include <poll.h>

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace garnet::gw {

/// Connection identifier, unique for the transport's lifetime (slots
/// are never recycled, so a stale id cannot alias a new peer).
using ConnId = std::uint64_t;

/// Which of the gateway's three listening sockets a connection came in
/// on (ISSUE/docs: ingest producers, stream subscribers, URI cache).
enum class Listener : std::uint8_t { kIngest, kStream, kCache };
inline constexpr std::size_t kListenerCount = 3;

[[nodiscard]] std::string_view to_string(Listener listener);

struct TransportEvent {
  enum class Kind : std::uint8_t {
    kAccepted,  ///< New connection on `listener`.
    kReadable,  ///< Bytes (or EOF) pending; drain with read().
    kWritable,  ///< A previously full connection can accept bytes again.
  };
  Kind kind = Kind::kReadable;
  ConnId conn = 0;
  Listener listener = Listener::kIngest;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Appends pending events (non-blocking). Event order is
  /// deterministic for LoopbackTransport (connection-id order).
  virtual void poll(std::vector<TransportEvent>& out) = 0;

  /// Reads up to buf.size() bytes. >0 = bytes read, 0 = would block,
  /// -1 = peer closed or errored.
  virtual std::ptrdiff_t read(ConnId conn, std::span<std::byte> buf) = 0;

  /// Scatter-gather write. Returns bytes accepted across the slices
  /// (may be short), 0 = would block, -1 = dead peer.
  virtual std::ptrdiff_t writev(ConnId conn, std::span<const util::IoSlice> slices) = 0;

  /// Arms (or disarms) kWritable reporting for a connection whose
  /// writev came up short.
  virtual void want_writable(ConnId conn, bool want) = 0;

  virtual void close(ConnId conn) = 0;
};

/// Real sockets. Construction binds and listens; throws
/// std::runtime_error when a port cannot be bound.
class PosixTransport final : public Transport {
 public:
  struct Config {
    /// 0 binds an ephemeral port; read it back with port().
    std::uint16_t ingest_port = 0;
    std::uint16_t stream_port = 0;
    std::uint16_t cache_port = 0;
  };

  explicit PosixTransport(const Config& config);
  ~PosixTransport() override;

  PosixTransport(const PosixTransport&) = delete;
  PosixTransport& operator=(const PosixTransport&) = delete;

  /// Actual bound port of one listener (resolves port-0 binds).
  [[nodiscard]] std::uint16_t port(Listener listener) const;

  void poll(std::vector<TransportEvent>& out) override;
  std::ptrdiff_t read(ConnId conn, std::span<std::byte> buf) override;
  std::ptrdiff_t writev(ConnId conn, std::span<const util::IoSlice> slices) override;
  void want_writable(ConnId conn, bool want) override;
  void close(ConnId conn) override;

  [[nodiscard]] std::size_t open_connections() const noexcept { return conns_.size(); }

 private:
  struct Conn {
    int fd = -1;
    Listener listener = Listener::kIngest;
    bool want_write = false;
  };

  /// Slices one sendmsg takes; a longer span is written short.
  static constexpr std::size_t kMaxIov = 64;

  int listener_fds_[kListenerCount] = {-1, -1, -1};
  std::uint16_t ports_[kListenerCount] = {0, 0, 0};
  std::map<ConnId, Conn> conns_;
  ConnId next_id_ = 1;
  /// poll() scratch, reused across calls: poll_ids_[i] maps
  /// poll_fds_[kListenerCount + i].
  std::vector<pollfd> poll_fds_;
  std::vector<ConnId> poll_ids_;
};

/// Deterministic in-memory transport. The test owns the "peer" side:
/// it connects, feeds bytes, drains output, caps write windows, and
/// closes — all synchronously, no sockets, no threads.
class LoopbackTransport final : public Transport {
 public:
  // --- peer (test) side ---------------------------------------------------

  /// Creates a connection; a kAccepted event surfaces on the next poll.
  ConnId connect(Listener listener);

  /// Appends bytes the gateway will read().
  void peer_send(ConnId conn, util::BytesView data);

  /// Drains everything the gateway wrote to this peer.
  [[nodiscard]] util::Bytes peer_take(ConnId conn);

  /// Bytes written to the peer and not yet taken.
  [[nodiscard]] std::size_t peer_pending(ConnId conn) const;

  /// Peer hangs up; the gateway's next read() returns -1 (after any
  /// already-queued bytes), modelling a mid-stream disconnect.
  void peer_close(ConnId conn);

  /// Caps bytes accepted per writev call (forces short writes).
  void set_write_limit(ConnId conn, std::size_t per_call);

  /// Total further bytes the peer will absorb before writev returns
  /// would-block — a slow consumer with a full kernel buffer.
  void set_write_window(ConnId conn, std::size_t window);

  /// Widens the window (the slow peer drained some); a kWritable event
  /// surfaces on the next poll if the gateway asked for one.
  void open_write_window(ConnId conn, std::size_t more);

  [[nodiscard]] bool gateway_closed(ConnId conn) const;
  [[nodiscard]] std::size_t open_connections() const noexcept;

  // --- Transport (gateway) side -------------------------------------------

  void poll(std::vector<TransportEvent>& out) override;
  std::ptrdiff_t read(ConnId conn, std::span<std::byte> buf) override;
  std::ptrdiff_t writev(ConnId conn, std::span<const util::IoSlice> slices) override;
  void want_writable(ConnId conn, bool want) override;
  void close(ConnId conn) override;

 private:
  struct Conn {
    Listener listener = Listener::kIngest;
    std::deque<std::byte> to_gateway;
    util::Bytes to_peer;
    std::size_t write_limit = SIZE_MAX;
    std::size_t write_window = SIZE_MAX;
    bool announced = false;     ///< kAccepted already emitted.
    bool peer_closed = false;
    bool gateway_closed = false;
    bool want_write = false;
  };

  [[nodiscard]] Conn* live(ConnId conn);
  [[nodiscard]] const Conn* live(ConnId conn) const;

  std::map<ConnId, Conn> conns_;  ///< Ordered: deterministic poll order.
  ConnId next_id_ = 1;
};

}  // namespace garnet::gw
