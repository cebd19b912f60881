#include "gw/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace garnet::gw {

std::string_view to_string(Listener listener) {
  switch (listener) {
    case Listener::kIngest: return "ingest";
    case Listener::kStream: return "stream";
    case Listener::kCache: return "cache";
  }
  return "?";
}

// --- PosixTransport ---------------------------------------------------------

namespace {

/// Pending-connection queue of each listening socket.
constexpr int kListenBacklog = 64;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int listen_on(std::uint16_t port, std::uint16_t& bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("gw: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, kListenBacklog) < 0) {
    ::close(fd);
    throw std::runtime_error("gw: cannot listen on port " + std::to_string(port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  bound = ntohs(addr.sin_port);
  set_nonblocking(fd);
  return fd;
}

}  // namespace

PosixTransport::PosixTransport(const Config& config) {
  const std::uint16_t requested[kListenerCount] = {config.ingest_port, config.stream_port,
                                                   config.cache_port};
  for (std::size_t i = 0; i < kListenerCount; ++i) {
    listener_fds_[i] = listen_on(requested[i], ports_[i]);
  }
}

PosixTransport::~PosixTransport() {
  for (const int fd : listener_fds_) {
    if (fd >= 0) ::close(fd);
  }
  for (auto& [id, conn] : conns_) ::close(conn.fd);
}

std::uint16_t PosixTransport::port(Listener listener) const {
  return ports_[static_cast<std::size_t>(listener)];
}

void PosixTransport::poll(std::vector<TransportEvent>& out) {
  std::vector<pollfd>& fds = poll_fds_;
  std::vector<ConnId>& ids = poll_ids_;
  fds.clear();
  ids.clear();
  for (const int fd : listener_fds_) fds.push_back({fd, POLLIN, 0});
  for (const auto& [id, conn] : conns_) {
    short events = POLLIN;
    if (conn.want_write) events |= POLLOUT;
    fds.push_back({conn.fd, events, 0});
    ids.push_back(id);
  }
  if (::poll(fds.data(), fds.size(), 0) <= 0) return;

  for (std::size_t i = 0; i < kListenerCount; ++i) {
    if ((fds[i].revents & POLLIN) == 0) continue;
    for (;;) {
      const int fd = ::accept(listener_fds_[i], nullptr, nullptr);
      if (fd < 0) break;
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const ConnId id = next_id_++;
      conns_[id] = Conn{fd, static_cast<Listener>(i), false};
      out.push_back({TransportEvent::Kind::kAccepted, id, static_cast<Listener>(i)});
    }
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const pollfd& p = fds[kListenerCount + i];
    const auto it = conns_.find(ids[i]);
    if (it == conns_.end()) continue;
    // Errors and hangups surface as readable: the next read() returns
    // -1 and the gateway tears the connection down through one path.
    if ((p.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      out.push_back({TransportEvent::Kind::kReadable, ids[i], it->second.listener});
    }
    if ((p.revents & POLLOUT) != 0 && it->second.want_write) {
      out.push_back({TransportEvent::Kind::kWritable, ids[i], it->second.listener});
    }
  }
}

std::ptrdiff_t PosixTransport::read(ConnId conn, std::span<std::byte> buf) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return -1;
  const ssize_t n = ::recv(it->second.fd, buf.data(), buf.size(), 0);
  if (n > 0) return n;
  if (n == 0) return -1;  // orderly EOF
  return (errno == EAGAIN || errno == EWOULDBLOCK) ? 0 : -1;
}

std::ptrdiff_t PosixTransport::writev(ConnId conn, std::span<const util::IoSlice> slices) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return -1;
  // struct iovec wants a mutable pointer; the kernel only reads from it.
  // Slices past kMaxIov are left for the caller's next call: the count
  // returned is then short, which the contract already allows.
  std::array<iovec, kMaxIov> iov;
  const std::size_t n_iov = std::min(slices.size(), kMaxIov);
  for (std::size_t i = 0; i < n_iov; ++i) {
    iov[i].iov_base = const_cast<std::byte*>(slices[i].data);
    iov[i].iov_len = slices[i].size;
  }
  msghdr msg{};
  msg.msg_iov = iov.data();
  msg.msg_iovlen = n_iov;
  const ssize_t n = ::sendmsg(it->second.fd, &msg, MSG_NOSIGNAL);
  if (n >= 0) return n;
  return (errno == EAGAIN || errno == EWOULDBLOCK) ? 0 : -1;
}

void PosixTransport::want_writable(ConnId conn, bool want) {
  const auto it = conns_.find(conn);
  if (it != conns_.end()) it->second.want_write = want;
}

void PosixTransport::close(ConnId conn) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
}

// --- LoopbackTransport ------------------------------------------------------

LoopbackTransport::Conn* LoopbackTransport::live(ConnId conn) {
  const auto it = conns_.find(conn);
  return it == conns_.end() || it->second.gateway_closed ? nullptr : &it->second;
}

const LoopbackTransport::Conn* LoopbackTransport::live(ConnId conn) const {
  const auto it = conns_.find(conn);
  return it == conns_.end() || it->second.gateway_closed ? nullptr : &it->second;
}

ConnId LoopbackTransport::connect(Listener listener) {
  const ConnId id = next_id_++;
  conns_[id].listener = listener;
  return id;
}

void LoopbackTransport::peer_send(ConnId conn, util::BytesView data) {
  if (Conn* c = live(conn)) c->to_gateway.insert(c->to_gateway.end(), data.begin(), data.end());
}

util::Bytes LoopbackTransport::peer_take(ConnId conn) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return {};
  return std::exchange(it->second.to_peer, {});
}

std::size_t LoopbackTransport::peer_pending(ConnId conn) const {
  const auto it = conns_.find(conn);
  return it == conns_.end() ? 0 : it->second.to_peer.size();
}

void LoopbackTransport::peer_close(ConnId conn) {
  if (Conn* c = live(conn)) c->peer_closed = true;
}

void LoopbackTransport::set_write_limit(ConnId conn, std::size_t per_call) {
  if (Conn* c = live(conn)) c->write_limit = per_call;
}

void LoopbackTransport::set_write_window(ConnId conn, std::size_t window) {
  if (Conn* c = live(conn)) c->write_window = window;
}

void LoopbackTransport::open_write_window(ConnId conn, std::size_t more) {
  if (Conn* c = live(conn)) {
    if (c->write_window != SIZE_MAX) c->write_window += more;
  }
}

bool LoopbackTransport::gateway_closed(ConnId conn) const {
  const auto it = conns_.find(conn);
  return it == conns_.end() || it->second.gateway_closed;
}

std::size_t LoopbackTransport::open_connections() const noexcept {
  std::size_t n = 0;
  for (const auto& [id, conn] : conns_) {
    if (!conn.gateway_closed) ++n;
  }
  return n;
}

void LoopbackTransport::poll(std::vector<TransportEvent>& out) {
  for (auto& [id, conn] : conns_) {
    if (conn.gateway_closed) continue;
    if (!conn.announced) {
      conn.announced = true;
      out.push_back({TransportEvent::Kind::kAccepted, id, conn.listener});
    }
    if (!conn.to_gateway.empty() || conn.peer_closed) {
      out.push_back({TransportEvent::Kind::kReadable, id, conn.listener});
    }
    if (conn.want_write && conn.write_window > 0) {
      conn.want_write = false;  // edge-style, like a POLLOUT wakeup
      out.push_back({TransportEvent::Kind::kWritable, id, conn.listener});
    }
  }
}

std::ptrdiff_t LoopbackTransport::read(ConnId conn, std::span<std::byte> buf) {
  Conn* c = live(conn);
  if (c == nullptr) return -1;
  if (c->to_gateway.empty()) return c->peer_closed ? -1 : 0;
  const std::size_t n = std::min(buf.size(), c->to_gateway.size());
  std::copy_n(c->to_gateway.begin(), n, buf.begin());
  c->to_gateway.erase(c->to_gateway.begin(), c->to_gateway.begin() + static_cast<std::ptrdiff_t>(n));
  return static_cast<std::ptrdiff_t>(n);
}

std::ptrdiff_t LoopbackTransport::writev(ConnId conn, std::span<const util::IoSlice> slices) {
  Conn* c = live(conn);
  if (c == nullptr || c->peer_closed) return -1;
  std::size_t budget = std::min(c->write_limit, c->write_window);
  std::size_t written = 0;
  for (const util::IoSlice& slice : slices) {
    if (budget == 0) break;
    const std::size_t n = std::min(slice.size, budget);
    c->to_peer.insert(c->to_peer.end(), slice.data, slice.data + n);
    written += n;
    budget -= n;
    if (n < slice.size) break;
  }
  if (c->write_window != SIZE_MAX) c->write_window -= written;
  return static_cast<std::ptrdiff_t>(written);
}

void LoopbackTransport::want_writable(ConnId conn, bool want) {
  if (Conn* c = live(conn)) c->want_write = want;
}

void LoopbackTransport::close(ConnId conn) {
  const auto it = conns_.find(conn);
  if (it != conns_.end()) it->second.gateway_closed = true;
}

}  // namespace garnet::gw
