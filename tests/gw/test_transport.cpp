// Transport seam contract tests: the LoopbackTransport's semantics must
// match what the gateway state machine assumes (and what PosixTransport
// provides), because every loopback-driven gateway test leans on them.
// A small PosixTransport section exercises the real-socket basics the
// bigger integration suite builds on.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "gw/transport.hpp"

namespace garnet::gw {
namespace {

util::Bytes bytes_of(std::string_view text) {
  util::Bytes out(text.size());
  std::transform(text.begin(), text.end(), out.begin(),
                 [](char c) { return static_cast<std::byte>(c); });
  return out;
}

std::vector<TransportEvent> poll_all(Transport& transport) {
  std::vector<TransportEvent> events;
  transport.poll(events);
  return events;
}

TEST(LoopbackTransport, ConnectAnnouncesOnceThenReadable) {
  LoopbackTransport transport;
  const ConnId id = transport.connect(Listener::kStream);

  auto events = poll_all(transport);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TransportEvent::Kind::kAccepted);
  EXPECT_EQ(events[0].conn, id);
  EXPECT_EQ(events[0].listener, Listener::kStream);

  EXPECT_TRUE(poll_all(transport).empty());  // announced only once

  const util::Bytes hello = bytes_of("hi");
  transport.peer_send(id, hello);
  events = poll_all(transport);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TransportEvent::Kind::kReadable);

  std::byte buf[16];
  EXPECT_EQ(transport.read(id, buf), 2);
  EXPECT_EQ(transport.read(id, buf), 0);  // drained: would-block
}

TEST(LoopbackTransport, PeerCloseDrainsThenEof) {
  LoopbackTransport transport;
  const ConnId id = transport.connect(Listener::kIngest);
  poll_all(transport);
  transport.peer_send(id, bytes_of("abc"));
  transport.peer_close(id);

  std::byte buf[2];
  EXPECT_EQ(transport.read(id, buf), 2);  // queued bytes still served
  EXPECT_EQ(transport.read(id, buf), 1);
  EXPECT_EQ(transport.read(id, buf), -1);  // then EOF
}

TEST(LoopbackTransport, WriteLimitForcesShortWrites) {
  LoopbackTransport transport;
  const ConnId id = transport.connect(Listener::kStream);
  poll_all(transport);
  transport.set_write_limit(id, 3);

  const util::Bytes head = bytes_of("0123");
  const util::Bytes body = bytes_of("4567");
  const util::IoSlice slices[2] = {util::IoSlice::of(head), util::IoSlice::of(body)};
  EXPECT_EQ(transport.writev(id, slices), 3);  // capped mid-slice
  EXPECT_EQ(transport.writev(id, slices), 3);
  const util::Bytes got = transport.peer_take(id);
  EXPECT_EQ(got, bytes_of("012012"));
}

TEST(LoopbackTransport, WriteWindowBlocksAndWritableResumes) {
  LoopbackTransport transport;
  const ConnId id = transport.connect(Listener::kStream);
  poll_all(transport);
  transport.set_write_window(id, 2);

  const util::Bytes data = bytes_of("abcdef");
  const util::IoSlice slice = util::IoSlice::of(data);
  EXPECT_EQ(transport.writev(id, {&slice, 1}), 2);
  EXPECT_EQ(transport.writev(id, {&slice, 1}), 0);  // window exhausted

  transport.want_writable(id, true);
  EXPECT_TRUE(poll_all(transport).empty());  // still no room
  transport.open_write_window(id, 100);
  const auto events = poll_all(transport);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TransportEvent::Kind::kWritable);
  EXPECT_TRUE(poll_all(transport).empty());  // edge-style: armed once
}

TEST(LoopbackTransport, WritevToClosedPeerFails) {
  LoopbackTransport transport;
  const ConnId id = transport.connect(Listener::kStream);
  poll_all(transport);
  transport.peer_close(id);
  const util::Bytes data = bytes_of("x");
  const util::IoSlice slice = util::IoSlice::of(data);
  EXPECT_EQ(transport.writev(id, {&slice, 1}), -1);
}

TEST(LoopbackTransport, GatewayCloseKeepsPeerBuffersInspectable) {
  LoopbackTransport transport;
  const ConnId id = transport.connect(Listener::kCache);
  poll_all(transport);
  const util::Bytes data = bytes_of("bye");
  const util::IoSlice slice = util::IoSlice::of(data);
  EXPECT_EQ(transport.writev(id, {&slice, 1}), 3);
  transport.close(id);
  EXPECT_TRUE(transport.gateway_closed(id));
  EXPECT_EQ(transport.open_connections(), 0u);
  EXPECT_EQ(transport.peer_take(id), bytes_of("bye"));  // test can still assert on output
  EXPECT_TRUE(poll_all(transport).empty());             // closed conns emit nothing
}

TEST(LoopbackTransport, ConnIdsNeverRecycled) {
  LoopbackTransport transport;
  const ConnId a = transport.connect(Listener::kStream);
  transport.close(a);
  const ConnId b = transport.connect(Listener::kStream);
  EXPECT_NE(a, b);
}

// --- PosixTransport on real loopback sockets --------------------------------

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(PosixTransport, BindsEphemeralPortsAndAccepts) {
  PosixTransport transport({});
  EXPECT_NE(transport.port(Listener::kIngest), 0);
  EXPECT_NE(transport.port(Listener::kStream), 0);
  EXPECT_NE(transport.port(Listener::kCache), 0);

  const int fd = connect_to(transport.port(Listener::kStream));
  ASSERT_GE(fd, 0);

  std::vector<TransportEvent> events;
  for (int spin = 0; spin < 100 && events.empty(); ++spin) transport.poll(events);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].kind, TransportEvent::Kind::kAccepted);
  EXPECT_EQ(events[0].listener, Listener::kStream);
  EXPECT_EQ(transport.open_connections(), 1u);
  ::close(fd);
}

TEST(PosixTransport, ReadWriteRoundTrip) {
  PosixTransport transport({});
  const int fd = connect_to(transport.port(Listener::kIngest));
  ASSERT_GE(fd, 0);
  std::vector<TransportEvent> events;
  for (int spin = 0; spin < 100 && events.empty(); ++spin) transport.poll(events);
  ASSERT_FALSE(events.empty());
  const ConnId id = events[0].conn;

  ASSERT_EQ(::send(fd, "ping", 4, 0), 4);
  std::byte buf[8];
  std::ptrdiff_t n = 0;
  for (int spin = 0; spin < 1000 && n == 0; ++spin) n = transport.read(id, buf);
  EXPECT_EQ(n, 4);

  const util::Bytes head = bytes_of("po");
  const util::Bytes tail = bytes_of("ng");
  const util::IoSlice slices[2] = {util::IoSlice::of(head), util::IoSlice::of(tail)};
  EXPECT_EQ(transport.writev(id, slices), 4);  // scatter-gather in one syscall
  char reply[4];
  ASSERT_EQ(::recv(fd, reply, 4, MSG_WAITALL), 4);
  EXPECT_EQ(std::string_view(reply, 4), "pong");

  ::close(fd);
  // Peer hangup eventually surfaces as readable + read() == -1.
  n = 0;
  for (int spin = 0; spin < 1000 && n == 0; ++spin) n = transport.read(id, buf);
  EXPECT_EQ(n, -1);
  transport.close(id);
  EXPECT_EQ(transport.open_connections(), 0u);
}

TEST(PosixTransport, WritevPastSixtyFourSlicesWritesShortThenTheRest) {
  // 100 one-byte slices: one call takes at most 64 of them and reports
  // a short count; the caller resumes from there, as after any short
  // write, and the peer receives every byte in order.
  PosixTransport transport({});
  const int fd = connect_to(transport.port(Listener::kStream));
  ASSERT_GE(fd, 0);
  std::vector<TransportEvent> events;
  for (int spin = 0; spin < 100 && events.empty(); ++spin) transport.poll(events);
  ASSERT_FALSE(events.empty());
  const ConnId id = events[0].conn;

  util::Bytes bytes(100);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::byte>(i);
  std::vector<util::IoSlice> slices;
  for (const std::byte& b : bytes) slices.push_back({&b, 1});
  std::size_t sent = 0;
  for (int calls = 0; sent < bytes.size() && calls < 10; ++calls) {
    const std::ptrdiff_t n =
        transport.writev(id, std::span<const util::IoSlice>(slices).subspan(sent));
    ASSERT_GT(n, 0);
    EXPECT_LE(n, 64);
    sent += static_cast<std::size_t>(n);
  }
  ASSERT_EQ(sent, bytes.size());
  std::byte got[100];
  ASSERT_EQ(::recv(fd, got, sizeof got, MSG_WAITALL), 100);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), got));
  ::close(fd);
  transport.close(id);
}

}  // namespace
}  // namespace garnet::gw
