// Workload `gw_socket`: the socket-in -> socket-out path. gw::Gateway over
// gw::PosixTransport on 127.0.0.1 ephemeral ports (loopback, not a real
// link), with no sensors. The calling thread turns the gateway crank
// (pump, then run_for a span longer than bus latency + jitter) as fast
// as it can; one client thread holds 1 ingest connection, 2 `SUB *`
// stream connections and 1 cache connection sending periodic GETs.
//
// The client is an open-loop generator: 256 B frames over 64 streams,
// each due at a fixed time on a rate ladder, sent when due (it sleeps in
// ppoll until then) and timed from that due time to its receipt on each
// stream socket. Every frame carries its index and due offset; every
// delivery is CRC-verified and compared byte for byte with what was
// sent; every GET reply must name a sequence delivered on its stream.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "core/message.hpp"
#include "garnet/runtime.hpp"
#include "gw/framing.hpp"
#include "gw/gateway.hpp"
#include "gw/transport.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using garnet::Runtime;
using garnet::util::Duration;
namespace core = garnet::core;
namespace gw = garnet::gw;

constexpr std::size_t kStreams = 64;
constexpr std::size_t kPayloadBytes = 256;
constexpr std::size_t kHeaderWords = 2;  ///< Payload prefix: [u64 index][u64 due offset ns].
constexpr std::size_t kFillerBytes = kPayloadBytes - kHeaderWords * 8;
constexpr std::size_t kFrameBytes =
    gw::kLengthPrefixBytes + core::kFixedHeaderBytes + kPayloadBytes + core::kChecksumBytes;
/// Virtual time per crank turn: covers bus latency (200 us) + jitter (100 us).
constexpr Duration kCrankSpan = Duration::micros(500);
/// p99 bound a ladder rung must meet (due time -> receipt).
constexpr double kP99LimitUs = 1000.0;
/// The open-loop ladder, climbed until a rung fails; the gap between the
/// last pass and the first failure is then bisected kBisections times.
/// The first rung is the reference rate the latency metrics report.
constexpr double kLadder[] = {20'000, 40'000, 60'000, 80'000, 100'000, 120'000, 140'000, 160'000};
constexpr int kBisections = 3;
/// A failing rung is run once more before it counts: one scheduling
/// stall of the host must not end the climb.
constexpr int kAttempts = 2;
/// Latency and closed-loop throughput are reported as the median over
/// this many consecutive sub-windows of their leg.
constexpr std::size_t kSubWindows = 10;
/// Share of a session spent on the reference rung and on each other rung.
constexpr double kReferenceShare = 0.3;
constexpr double kRungShare = 0.04;
/// Closed-loop saturation leg: frames in flight, and frames sent.
constexpr std::size_t kWindowFrames = 1024;
constexpr double kSaturationShare = 0.1;
constexpr double kSaturationRateCap = 200'000;
/// A leg whose deliveries stop arriving for this long is over; what is
/// still missing then counts as lost.
constexpr std::int64_t kDrainTimeoutNs = 2'000'000'000;
constexpr std::int64_t kGetIntervalNs = 1'000'000;
constexpr int kSetups = 21;
/// Longer runs are split into sessions of about this length (each a
/// fresh gateway and a full climb); metrics are medians over sessions.
constexpr double kSessionSeconds = 2.5;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the gateway failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

void send_all(int fd, std::string_view text) {
  while (!text.empty()) {
    const ssize_t n = ::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
    if (n > 0) {
      text.remove_prefix(static_cast<std::size_t>(n));
    } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      throw std::runtime_error("send() to the gateway failed");
    }
  }
}

/// Decorator timing the gateway's transport calls. Time is charged to
/// the current crank phase and committed only for phases that moved
/// messages, so idle polling does not count as per-message cost.
class TimedTransport final : public gw::Transport {
 public:
  TimedTransport(gw::Transport& inner, bool timed) : inner_(inner), timed_(timed) {}

  void poll(std::vector<gw::TransportEvent>& out) override {
    const std::int64_t t0 = timed_ ? now_ns() : 0;
    inner_.poll(out);
    if (timed_) pending_ns_ += now_ns() - t0;
  }
  std::ptrdiff_t read(gw::ConnId conn, std::span<std::byte> buf) override {
    const std::int64_t t0 = timed_ ? now_ns() : 0;
    const std::ptrdiff_t n = inner_.read(conn, buf);
    if (timed_) pending_ns_ += now_ns() - t0;
    return n;
  }
  std::ptrdiff_t writev(gw::ConnId conn, std::span<const garnet::util::IoSlice> slices) override {
    ++writev_calls_;
    const std::int64_t t0 = timed_ ? now_ns() : 0;
    const std::ptrdiff_t n = inner_.writev(conn, slices);
    if (timed_) pending_ns_ += now_ns() - t0;
    return n;
  }
  void want_writable(gw::ConnId conn, bool want) override { inner_.want_writable(conn, want); }
  void close(gw::ConnId conn) override { inner_.close(conn); }

  /// Transport time since the last call; the caller keeps or drops it.
  std::int64_t take_pending() { return std::exchange(pending_ns_, 0); }
  [[nodiscard]] std::uint64_t writev_calls() const noexcept { return writev_calls_; }

 private:
  gw::Transport& inner_;
  bool timed_;
  std::int64_t pending_ns_ = 0;
  std::uint64_t writev_calls_ = 0;
};

/// The first two CPUs this process may run on, or nullopt with fewer.
std::optional<std::pair<int, int>> two_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return std::nullopt;
  int found[2] = {-1, -1};
  int n = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && n < 2; ++cpu) {
    if (CPU_ISSET(cpu, &set)) found[n++] = cpu;
  }
  if (n < 2) return std::nullopt;
  return std::pair{found[0], found[1]};
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

/// One gateway with its four client connections, ready to run.
struct Session {
  std::unique_ptr<Runtime> runtime;
  std::unique_ptr<gw::PosixTransport> posix;
  std::unique_ptr<TimedTransport> transport;
  std::unique_ptr<gw::Gateway> gateway;
  int ingest = -1;
  int streams[2] = {-1, -1};
  int cache = -1;

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() {
    for (const int fd : {ingest, streams[0], streams[1], cache}) {
      if (fd >= 0) ::close(fd);
    }
  }

  /// Builds everything and waits until both subscriptions are confirmed.
  void open(bool timed) {
    runtime = std::make_unique<Runtime>();
    posix = std::make_unique<gw::PosixTransport>(gw::PosixTransport::Config{});
    transport = std::make_unique<TimedTransport>(*posix, timed);
    gateway = std::make_unique<gw::Gateway>(*runtime, *transport);
    ingest = connect_loopback(posix->port(gw::Listener::kIngest));
    for (int& fd : streams) {
      fd = connect_loopback(posix->port(gw::Listener::kStream));
      send_all(fd, "SUB *\n");
    }
    cache = connect_loopback(posix->port(gw::Listener::kCache));

    constexpr std::string_view kAck = "OK SUB */*\n";
    std::string acks[2];
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while (acks[0].size() < kAck.size() || acks[1].size() < kAck.size() ||
           gateway->connections() < 4 || runtime->scheduler().now().ns < Duration::millis(5).ns) {
      if (now_ns() > deadline) throw std::runtime_error("gateway handshake timed out");
      gateway->step(Duration::millis(1));
      for (int s = 0; s < 2; ++s) {
        char buf[64];
        const ssize_t n = ::recv(streams[s], buf, sizeof buf, 0);
        if (n > 0) acks[s].append(buf, static_cast<std::size_t>(n));
      }
    }
    if (acks[0] != kAck || acks[1] != kAck) throw std::runtime_error("unexpected SUB reply");
  }
};

/// One leg of the offered-load schedule.
struct RungPlan {
  double rate = 0;        ///< Offered msg/s; 0 for the closed-loop leg.
  std::size_t first = 0;  ///< Global index of the leg's first frame.
  std::size_t count = 0;
  std::int64_t start_ns = 0;  ///< Wall time frame `first` was due.
  [[nodiscard]] bool closed_loop() const noexcept { return rate == 0; }
  [[nodiscard]] std::int64_t due(std::size_t i) const {
    if (closed_loop()) return start_ns;
    return start_ns + static_cast<std::int64_t>(static_cast<double>(i - first) * 1e9 / rate);
  }
};

struct RungResult {
  RungPlan plan;
  Rung rung;
  TailSummary latency;
};

struct GetReply {
  std::uint32_t sensor = 0;
  std::uint32_t sequence = 0;
  bool hit = false;
  bool ok = false;  ///< Well-formed, and a hit's payload is what was sent.
};

/// Client-side receive state of one connection: a fixed buffer that
/// frames are parsed out of in place.
struct RecvBuffer {
  std::vector<std::byte> buf = std::vector<std::byte>(1 << 20);
  std::size_t head = 0;
  std::size_t tail = 0;

  /// Reads what the socket has; false on EOF or error.
  bool fill(int fd) {
    for (;;) {
      if (head > 0 && tail == buf.size()) {
        std::memmove(buf.data(), buf.data() + head, tail - head);
        tail -= head;
        head = 0;
      }
      const ssize_t n = ::recv(fd, buf.data() + tail, buf.size() - tail, 0);
      if (n > 0) {
        tail += static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }
  [[nodiscard]] std::span<const std::byte> pending() const {
    return {buf.data() + head, tail - head};
  }
  void consume(std::size_t n) {
    head += n;
    if (head == tail) head = tail = 0;
  }
};

std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The load generator. Everything it touches is its own until joined;
/// all buffers are sized in the constructor.
class Client {
 public:
  Client(Session& session, std::uint64_t seed, double seconds)
      : session_(session), seconds_(seconds) {
    garnet::util::Rng rng(seed ^ 0x6A5C0CE7ull);
    fillers_.resize(kStreams);
    for (auto& filler : fillers_) {
      filler.resize(kFillerBytes);
      for (auto& b : filler) b = static_cast<std::byte>(rng.next());
    }
    get_targets_.resize(4096);
    for (auto& t : get_targets_) t = static_cast<std::uint32_t>(1 + rng.below(kStreams));
    const std::size_t largest = count_for(kLadder[std::size(kLadder) - 1], kRungShare);
    capacity_ = count_for(kLadder[0], kReferenceShare) +
                (std::size(kLadder) + kBisections) * kAttempts * largest +
                count_for(kSaturationRateCap, kSaturationShare);
    wire_.resize(std::max(largest, count_for(kSaturationRateCap, kSaturationShare)) * kFrameBytes);
    for (auto& r : recv_ns_) r.assign(capacity_, 0);
    late_ns_.assign(capacity_, 0);
    replies_.reserve(1 << 16);
    results_.reserve((std::size(kLadder) + kBisections) * kAttempts);
  }

  /// Reference rung, ladder until the first failure, bisection, then
  /// the closed-loop saturation leg.
  void run() {
    // Sleep precisely: the default 50 us timer slack would make the
    // generator late by design.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    double pass = 0;
    double fail = 0;
    for (const double rate : kLadder) {
      const auto passed = attempt(rate, rate == kLadder[0] ? kReferenceShare : kRungShare);
      if (!passed) return;
      if (!*passed) {
        fail = rate;
        break;
      }
      pass = rate;
    }
    for (int k = 0; k < kBisections && fail > 0 && pass > 0; ++k) {
      const double mid = (pass + fail) / 2;
      const auto passed = attempt(mid, kRungShare);
      if (!passed) return;
      (*passed ? pass : fail) = mid;
    }
    RungPlan sat = next_plan(0, count_for(kSaturationRateCap, kSaturationShare));
    if (!drive(sat)) return;
    saturation_ = sat;
  }

  [[nodiscard]] const std::vector<RungResult>& results() const noexcept { return results_; }
  [[nodiscard]] const RungPlan& saturation() const noexcept { return saturation_; }
  [[nodiscard]] std::size_t total() const noexcept { return next_; }
  [[nodiscard]] std::int64_t recv_ns(int s, std::size_t i) const { return recv_ns_[s][i]; }
  [[nodiscard]] std::int64_t late_ns(std::size_t i) const { return late_ns_[i]; }
  [[nodiscard]] const std::vector<GetReply>& replies() const noexcept { return replies_; }
  [[nodiscard]] std::uint64_t corrupt() const noexcept { return corrupt_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  [[nodiscard]] std::size_t count_for(double rate, double share) const {
    return static_cast<std::size_t>(rate * share * seconds_);
  }
  RungPlan next_plan(double rate, std::size_t count) {
    RungPlan r;
    r.rate = rate;
    r.first = next_;
    r.count = std::min(count, capacity_ - next_);
    next_ += r.count;
    return r;
  }

  static core::StreamId stream_of(std::size_t i) {
    return {static_cast<core::SensorId>(1 + i % kStreams), 0};
  }
  static core::SequenceNo sequence_of(std::size_t i) {
    return static_cast<core::SequenceNo>(i / kStreams);
  }

  /// Runs `rate` up to kAttempts times; whether it passed, or nullopt
  /// when the connection failed.
  std::optional<bool> attempt(double rate, double share) {
    for (int k = 0; k < kAttempts; ++k) {
      if (!run_rung(rate, share)) return std::nullopt;
      if (rung_passes(results_.back().rung, kP99LimitUs)) return true;
    }
    return false;
  }

  /// One open-loop rung, evaluated against the limit once it drained.
  bool run_rung(double rate, double share) {
    RungPlan r = next_plan(rate, count_for(rate, share));
    if (!drive(r)) return false;
    results_.push_back(evaluate(r));
    return true;
  }

  /// Latency of one open-loop leg: the median over kSubWindows
  /// consecutive windows of each window's p50 and p99, so one host stall
  /// moves one window, not the leg. A growing backlog shows as the final
  /// window waiting past the limit.
  [[nodiscard]] RungResult evaluate(const RungPlan& r) const {
    RungResult out;
    out.plan = r;
    std::vector<double> p50s;
    std::vector<double> p99s;
    std::vector<double> latency;
    std::uint64_t lost = 0;
    const std::size_t chunk = r.count / kSubWindows;
    for (std::size_t w = 0; chunk > 0 && w < kSubWindows; ++w) {
      latency.clear();
      const std::size_t end = w + 1 == kSubWindows ? r.first + r.count : r.first + (w + 1) * chunk;
      for (std::size_t i = r.first + w * chunk; i < end; ++i) {
        for (const auto& recv : recv_ns_) {
          if (recv[i] == 0) {
            ++lost;
          } else {
            latency.push_back(static_cast<double>(recv[i] - r.due(i)));
          }
        }
      }
      const TailSummary t = summarize(latency);
      p50s.push_back(t.p50);
      p99s.push_back(t.tail);
      out.latency.tail_q = t.tail_q;
      out.latency.n = t.n;
    }
    out.latency.p50 = median(p50s);
    out.latency.tail = median(p99s);
    const bool growing = !p50s.empty() && p50s.back() * 1e-3 > kP99LimitUs;
    out.rung = {r.rate, out.latency.tail * 1e-3, lost, growing};
    return out;
  }

  /// Encodes a leg's frames before its clock starts.
  void encode(const RungPlan& r) {
    core::DataMessage msg;
    msg.payload.resize(kPayloadBytes);
    for (std::size_t k = 0; k < r.count; ++k) {
      const std::size_t i = r.first + k;
      msg.stream_id = stream_of(i);
      msg.sequence = sequence_of(i);
      const std::uint64_t words[kHeaderWords] = {
          i, static_cast<std::uint64_t>(r.due(i) - r.start_ns)};
      std::memcpy(msg.payload.data(), words, sizeof words);
      std::memcpy(msg.payload.data() + sizeof words, fillers_[i % kStreams].data(), kFillerBytes);
      const garnet::util::Bytes body = core::encode(msg);
      std::byte* out = wire_.data() + k * kFrameBytes;
      gw::put_length_prefix(static_cast<std::uint32_t>(body.size()), out);
      std::memcpy(out + gw::kLengthPrefixBytes, body.data(), body.size());
    }
  }

  /// Sends one leg and waits until every frame arrived on both stream
  /// sockets (or the drain timeout passed). Open-loop legs send each
  /// frame when due; the closed-loop leg keeps kWindowFrames in flight.
  bool drive(RungPlan& r) {
    encode(r);
    received_ = 0;
    std::size_t sent_bytes = 0;
    const std::size_t total_bytes = r.count * kFrameBytes;
    r.start_ns = now_ns() + 1'000'000;
    std::int64_t next_get = r.start_ns;
    bool get_outstanding = false;
    std::size_t progress = 0;
    std::int64_t progress_at = r.start_ns;
    pollfd fds[4] = {{session_.streams[0], POLLIN, POLLIN},
                     {session_.streams[1], POLLIN, POLLIN},
                     {session_.cache, POLLIN, POLLIN},
                     {session_.ingest, 0, 0}};
    for (;;) {
      const std::int64_t now = now_ns();
      // Send what is due (open loop) or what the window allows.
      std::size_t allowed = 0;
      if (now >= r.start_ns) {
        if (r.closed_loop()) {
          allowed = std::min(r.count, received_ / 2 + kWindowFrames);
        } else {
          allowed = std::min<std::size_t>(
              r.count,
              static_cast<std::size_t>(static_cast<double>(now - r.start_ns) * r.rate / 1e9) + 1);
        }
      }
      if (sent_bytes < allowed * kFrameBytes) {
        const ssize_t n = ::send(session_.ingest, wire_.data() + sent_bytes,
                                 allowed * kFrameBytes - sent_bytes, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          const std::size_t before = sent_bytes / kFrameBytes;
          sent_bytes += static_cast<std::size_t>(n);
          for (std::size_t k = before; k < sent_bytes / kFrameBytes; ++k) {
            late_ns_[r.first + k] = now - r.due(r.first + k);
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          error_ = "ingest send failed";
          return false;
        }
      }
      for (int s = 0; s < 2; ++s) {
        if (fds[s].revents == 0) continue;
        if (!streams_[s].fill(session_.streams[s])) {
          error_ = "stream connection closed";
          return false;
        }
        parse_deliveries(s, now_ns());
      }
      if (fds[2].revents != 0) {
        if (!cache_.fill(session_.cache)) {
          error_ = "cache connection closed";
          return false;
        }
        if (parse_replies()) get_outstanding = false;
      }
      if (!get_outstanding && now >= next_get && sent_bytes < total_bytes) {
        char text[32];
        const int len = std::snprintf(text, sizeof text, "GET %u/0\n",
                                      get_targets_[gets_++ % get_targets_.size()]);
        send_all(session_.cache, {text, static_cast<std::size_t>(len)});
        get_outstanding = true;
        next_get = now + kGetIntervalNs;
      }
      const bool all_sent = sent_bytes == total_bytes;
      if (all_sent && received_ >= 2 * r.count && !get_outstanding) return true;
      if (received_ != progress || !all_sent) {
        progress = received_;
        progress_at = now;
      }
      if (now > progress_at + kDrainTimeoutNs) return true;

      // Open loop: sleep until the next frame is due or data arrives.
      // Allowed but unsent frames mean the ingest socket is full: wait
      // for it to drain. The closed-loop leg measures the gateway's
      // capacity, so it polls without sleeping: a sleeping client would
      // add its own wake-up latency to every window turn.
      const bool blocked = sent_bytes < allowed * kFrameBytes;
      std::int64_t wake = now + 1'000'000;
      if (!all_sent && !r.closed_loop() && !blocked) {
        wake = std::min(wake, r.due(r.first + sent_bytes / kFrameBytes));
      }
      if (!get_outstanding && !all_sent) wake = std::min(wake, next_get);
      fds[3].events = blocked ? POLLOUT : 0;
      const std::int64_t wait = r.closed_loop() ? 0 : std::max<std::int64_t>(0, wake - now_ns());
      const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                        static_cast<long>(wait % 1'000'000'000)};
      for (pollfd& f : fds) f.revents = 0;
      ::ppoll(fds, 4, &ts, nullptr);
    }
  }

  void parse_deliveries(int s, std::int64_t at) {
    RecvBuffer& rb = streams_[s];
    for (;;) {
      const std::span<const std::byte> p = rb.pending();
      if (p.size() < gw::kLengthPrefixBytes) return;
      const std::size_t len = (std::to_integer<std::size_t>(p[0]) << 24) |
                              (std::to_integer<std::size_t>(p[1]) << 16) |
                              (std::to_integer<std::size_t>(p[2]) << 8) |
                              std::to_integer<std::size_t>(p[3]);
      if (len > gw::kMaxFrameBody) {
        ++corrupt_;
        error_ = "oversized delivery frame";
        rb.consume(p.size());
        return;
      }
      if (p.size() < gw::kLengthPrefixBytes + len) return;
      check_delivery(s, p.subspan(gw::kLengthPrefixBytes, len), at);
      rb.consume(gw::kLengthPrefixBytes + len);
    }
  }

  /// A delivery frame is [i64 first heard][Figure-2 message]; the message
  /// is CRC-verified and its payload compared with what was sent.
  void check_delivery(int s, std::span<const std::byte> body, std::int64_t at) {
    if (body.size() < 8) {
      ++corrupt_;
      return;
    }
    const auto decoded = core::decode_view(body.subspan(8), core::ChecksumPolicy::kVerify);
    if (!decoded.ok() || decoded.value().payload.size() != kPayloadBytes) {
      ++corrupt_;
      return;
    }
    const core::DataMessageView& m = decoded.value();
    const std::size_t i = load_u64(m.payload.data());
    if (i >= next_ || !(m.stream_id == stream_of(i)) || m.sequence != sequence_of(i) ||
        std::memcmp(m.payload.data() + kHeaderWords * 8, fillers_[i % kStreams].data(),
                    kFillerBytes) != 0) {
      ++corrupt_;
      return;
    }
    if (recv_ns_[s][i] != 0) {
      ++duplicates_;
      return;
    }
    recv_ns_[s][i] = at;
    ++received_;
  }

  /// Parses complete cache replies; true when one finished.
  bool parse_replies() {
    bool finished = false;
    for (;;) {
      const std::span<const std::byte> p = cache_.pending();
      const auto* text = reinterpret_cast<const char*>(p.data());
      const auto* nl = static_cast<const char*>(std::memchr(text, '\n', p.size()));
      if (nl == nullptr) return finished;
      const auto head_len = static_cast<std::size_t>(nl - text);
      char head[128] = {};
      std::memcpy(head, text, std::min(head_len, sizeof head - 1));
      std::size_t used = head_len + 1;
      GetReply reply;
      unsigned sensor = 0;
      unsigned stream = 0;
      unsigned long long seq = 0;
      long long age = 0;
      std::size_t len = 0;
      if (std::sscanf(head, "VALUE %u/%u %llu %lld %zu", &sensor, &stream, &seq, &age, &len) == 5) {
        if (p.size() < used + len + 1) return finished;
        const std::byte* payload = p.data() + used;
        const std::size_t i = seq * kStreams + (sensor - 1);
        reply.hit = true;
        reply.sensor = sensor;
        reply.sequence = static_cast<std::uint32_t>(seq);
        reply.ok = stream == 0 && len == kPayloadBytes && sensor >= 1 && sensor <= kStreams &&
                   load_u64(payload) == i &&
                   std::memcmp(payload + kHeaderWords * 8, fillers_[i % kStreams].data(),
                               kFillerBytes) == 0;
        used += len + 1;
      } else if (std::sscanf(head, "MISS %u/%u", &sensor, &stream) == 2) {
        reply.sensor = sensor;
        reply.ok = true;
      }
      if (replies_.size() < replies_.capacity()) replies_.push_back(reply);
      cache_.consume(used);
      finished = true;
    }
  }

  Session& session_;
  double seconds_;
  std::vector<garnet::util::Bytes> fillers_;
  std::vector<std::uint32_t> get_targets_;
  std::size_t gets_ = 0;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;  ///< Frames allotted to legs so far.
  std::vector<std::byte> wire_;
  std::vector<std::int64_t> recv_ns_[2];
  std::vector<std::int64_t> late_ns_;
  std::vector<GetReply> replies_;
  std::vector<RungResult> results_;
  RungPlan saturation_;
  RecvBuffer streams_[2];
  RecvBuffer cache_;
  std::size_t received_ = 0;
  std::uint64_t corrupt_ = 0;
  std::uint64_t duplicates_ = 0;
  std::string error_;
};

/// Everything one session measured.
struct SessionResult {
  std::vector<double> setup_s;  ///< One per gateway built.
  double speed = 1;             ///< host_speed() around the session.
  std::vector<RungResult> rungs;
  double saturated_rate = 0;
  std::vector<double> reference_late_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::uint64_t frames = 0;
  std::vector<std::string> problems;
  // Timed sessions only.
  std::int64_t pump_ns = 0;
  std::int64_t run_ns = 0;
  std::int64_t transport_pump_ns = 0;
  std::int64_t transport_run_ns = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t egress_frames = 0;
  CounterTotals counters;
};

SessionResult run_session(const Options& options, double seconds, bool timed) {
  SessionResult out;
  const double speed_before = host_speed();
  std::unique_ptr<Session> session;
  for (int k = 0; k < kSetups; ++k) {
    session.reset();
    const std::int64_t t0 = now_ns();
    session = std::make_unique<Session>();
    session->open(timed);
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Client client(*session, options.seed, seconds);
  Runtime& runtime = *session->runtime;
  gw::Gateway& gateway = *session->gateway;
  TimedTransport& transport = *session->transport;
  obs::MetricsRegistry& registry = runtime.telemetry().registry;
  const Counters before = Counters::read(registry, runtime.scheduler().executed());
  const std::uint64_t writev0 = transport.writev_calls();
  const std::uint64_t egress0 = gateway.stats().egress_frames;

  // The crank and the client each get a CPU of their own, so the two
  // busy threads never queue behind each other.
  const auto cpus = two_cpus();
  cpu_set_t saved;
  ::sched_getaffinity(0, sizeof saved, &saved);
  if (cpus) pin_to(cpus->first);
  std::atomic<bool> done{false};
  std::string client_exception;
  std::jthread thread([&] {
    if (cpus) pin_to(cpus->second);
    try {
      client.run();
    } catch (const std::exception& e) {
      client_exception = e.what();
    }
    done.store(true, std::memory_order_release);
  });
  // The crank. Timed sessions keep only the turns that moved messages.
  (void)transport.take_pending();
  while (!done.load(std::memory_order_acquire)) {
    if (!timed) {
      gateway.pump();
      runtime.run_for(kCrankSpan);
      continue;
    }
    const std::int64_t t0 = now_ns();
    const std::size_t events = gateway.pump();
    const std::int64_t t1 = now_ns();
    const std::int64_t pump_transport = transport.take_pending();
    const std::uint64_t received = gateway.consumer().received();
    runtime.run_for(kCrankSpan);
    const std::int64_t t2 = now_ns();
    const std::int64_t run_transport = transport.take_pending();
    if (events > 0) {
      out.pump_ns += t1 - t0;
      out.transport_pump_ns += pump_transport;
    }
    if (gateway.consumer().received() != received) {
      out.run_ns += t2 - t1;
      out.transport_run_ns += run_transport;
    }
  }
  thread.join();
  ::sched_setaffinity(0, sizeof saved, &saved);
  out.speed = (speed_before + host_speed()) / 2;
  out.counters.add(before, Counters::read(registry, runtime.scheduler().executed()));
  out.writev_calls = transport.writev_calls() - writev0;
  out.egress_frames = gateway.stats().egress_frames - egress0;
  out.frames = gateway.stats().ingest_frames;
  out.rungs = client.results();
  if (!client.error().empty()) out.problems.push_back("gw_socket: " + client.error());
  if (!client_exception.empty()) out.problems.push_back("gw_socket: " + client_exception);

  // Every frame sent must have arrived once on each stream socket. The
  // digest covers the reference rung: the only leg both sessions of a
  // traced run offer identically (the climb adapts to what passed).
  std::uint64_t missing = 0;
  const std::size_t ref_end = out.rungs.empty() ? 0 : out.rungs.front().plan.count;
  for (std::size_t i = 0; i < client.total(); ++i) {
    for (int s = 0; s < 2; ++s) {
      if (client.recv_ns(s, i) == 0) {
        ++missing;
      } else if (i < ref_end) {
        out.digest += mix64(i * 2 + static_cast<std::size_t>(s));
      }
    }
  }
  // Closed-loop throughput: the median over sub-windows of the time the
  // last copy of each window's frames arrived.
  const RungPlan& sat = client.saturation();
  std::vector<double> window_rates;
  std::int64_t window_start = sat.start_ns;
  const std::size_t per_window = sat.count / kSubWindows;
  for (std::size_t w = 0; per_window > 0 && w < kSubWindows; ++w) {
    std::int64_t last = 0;
    for (std::size_t i = sat.first + w * per_window; i < sat.first + (w + 1) * per_window; ++i) {
      last = std::max({last, client.recv_ns(0, i), client.recv_ns(1, i)});
    }
    if (last > window_start) {
      window_rates.push_back(static_cast<double>(per_window) /
                             (static_cast<double>(last - window_start) * 1e-9));
    }
    window_start = std::max(window_start, last);
  }
  out.saturated_rate = median(window_rates);
  if (!out.rungs.empty()) {
    const RungPlan& ref = out.rungs.front().plan;
    for (std::size_t i = ref.first; i < ref.first + ref.count; ++i) {
      out.reference_late_ns.push_back(static_cast<double>(client.late_ns(i)));
    }
  }

  // GET replies must name a sequence delivered on that stream.
  std::uint64_t bad_gets = 0;
  for (const GetReply& g : client.replies()) {
    if (!g.ok) {
      ++bad_gets;
    } else if (g.hit) {
      const std::size_t i = static_cast<std::size_t>(g.sequence) * kStreams + (g.sensor - 1);
      if (i >= client.total() || (client.recv_ns(0, i) == 0 && client.recv_ns(1, i) == 0)) {
        ++bad_gets;
      }
    }
  }
  const gw::GatewayStats& stats = gateway.stats();
  const std::uint64_t shed = stats.shed.data_total() + stats.shed.control_total();
  out.attempted = 2 * client.total() + client.replies().size();
  out.failed = missing + client.corrupt() + client.duplicates() + bad_gets + shed;
  if (out.failed != 0) {
    out.problems.push_back(line(
        "gw_socket: %llu missing, %llu corrupt, %llu duplicate, %llu bad GET replies, %llu shed",
        static_cast<unsigned long long>(missing), static_cast<unsigned long long>(client.corrupt()),
        static_cast<unsigned long long>(client.duplicates()),
        static_cast<unsigned long long>(bad_gets), static_cast<unsigned long long>(shed)));
  }
  return out;
}

}  // namespace

Result run_gw_socket(const Options& options) {
  Result result;
  // --trace 1 runs one untraced and one traced session; both offer the
  // same reference rung, so their delivery digests must match.
  const int count =
      options.trace ? 1 : std::max(1, static_cast<int>(options.seconds / kSessionSeconds));
  const double length = std::min(options.seconds / (options.trace ? 2 : count), 10.0);
  std::vector<SessionResult> sessions;
  for (int k = 0; k < count; ++k) sessions.push_back(run_session(options, length, false));
  SessionResult traced;
  if (options.trace) traced = run_session(options, length, true);
  const auto account = [&result](const SessionResult& s) {
    result.attempted += s.attempted;
    result.failed += s.failed;
    for (const std::string& p : s.problems) result.fail(p);
  };
  for (const SessionResult& plain : sessions) account(plain);
  if (options.trace) account(traced);

  result.table.push_back(line("gw_socket: %zu streams x %zu B, p99 limit %.0f us, %d session(s) of "
                              "%.1f s, seed %llu; latency = median over %zu windows (n = samples "
                              "per window)",
                              kStreams, kPayloadBytes, kP99LimitUs, count, length,
                              static_cast<unsigned long long>(options.seed), kSubWindows));
  std::vector<double> saturated;
  std::vector<double> max_rate;
  for (const SessionResult& plain : sessions) {
    if (plain.rungs.empty()) {
      result.fail("gw_socket: the reference rung did not run");
      return result;
    }
    std::vector<Rung> rungs;
    for (const RungResult& rr : plain.rungs) rungs.push_back(rr.rung);
    saturated.push_back(plain.saturated_rate);
    max_rate.push_back(max_sustained_rate(rungs, kP99LimitUs).value_or(0.0));

    result.table.push_back(
        line("  session: setup %.6f s (median of %d)", median(plain.setup_s), kSetups));
    for (const RungResult& rr : plain.rungs) {
      result.table.push_back(line(
          "  %7.0f msg/s: p50 %9.1f us, p%g %9.1f us (n=%zu), lost %llu%s%s", rr.rung.rate,
          rr.latency.p50 * 1e-3, rr.latency.tail_q * 100, rr.latency.tail * 1e-3, rr.latency.n,
          static_cast<unsigned long long>(rr.rung.lost),
          rr.rung.backlog_growing ? ", backlog growing" : "",
          rung_passes(rr.rung, kP99LimitUs) ? "" : "  [fails]"));
    }
    result.table.push_back(line("  closed loop (%zu in flight): %.0f msg/s; max sustained %.0f "
                                "msg/s",
                                kWindowFrames, plain.saturated_rate, max_rate.back()));
  }

  // Every time is scaled to an undisturbed host: multiplied by the
  // session's host speed (rates divided by it).
  std::vector<double> setup_s;
  std::vector<double> rate;
  std::vector<double> sustained;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> speed;
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    const SessionResult& plain = sessions[k];
    for (const double s : plain.setup_s) setup_s.push_back(s * plain.speed);
    rate.push_back(saturated[k] / plain.speed);
    sustained.push_back(max_rate[k] / plain.speed);
    p50.push_back(plain.rungs.front().latency.p50 * plain.speed);
    p99.push_back(plain.rungs.front().latency.tail * plain.speed);
    speed.push_back(plain.speed);
  }
  result.table.push_back(line("  as measured, median over sessions: %.0f msg/s closed loop, max "
                              "sustained %.0f msg/s; host speed %.2f",
                              median(saturated), median(max_rate), median(speed)));
  result.table.push_back(line("  at host speed 1: %.0f msg/s closed loop, max sustained %.0f "
                              "msg/s, reference p50 %.1f us, p99 %.1f us",
                              median(rate), median(sustained), median(p50) * 1e-3,
                              median(p99) * 1e-3));

  auto& m = result.metrics;
  if (!options.trace) {
    m["setup_s"] = median(setup_s);
    m["msgs_per_s"] = median(rate);
    m["latency_p50_us"] = median(p50) * 1e-3;
    m["latency_p99_us"] = median(p99) * 1e-3;
    m["max_rate_msgs_per_s"] = median(sustained);
    m["peak_rss_mb"] = peak_rss_mb();
    return result;
  }

  const SessionResult& plain = sessions.front();
  if (traced.digest != plain.digest) {
    result.fail(line("gw_socket: traced digest %016llx != untraced %016llx",
                     static_cast<unsigned long long>(traced.digest),
                     static_cast<unsigned long long>(plain.digest)));
  }
  const auto frames = static_cast<double>(traced.frames);
  traced.counters.report(m, frames);
  m["gw.transport_ns_per_msg"] =
      static_cast<double>(traced.transport_pump_ns + traced.transport_run_ns) / frames;
  m["gw.pump_self_ns_per_msg"] =
      static_cast<double>(traced.pump_ns - traced.transport_pump_ns) / frames;
  m["gw.run_self_ns_per_msg"] =
      static_cast<double>(traced.run_ns - traced.transport_run_ns) / frames;
  m["gw.frames_per_writev"] =
      static_cast<double>(traced.egress_frames) / static_cast<double>(traced.writev_calls);
  m["bench.trace_overhead_pct"] = trace_overhead_pct(plain.saturated_rate / plain.speed,
                                                     traced.saturated_rate / traced.speed);
  std::vector<double> late = plain.reference_late_ns;
  const TailSummary gen = summarize(late);
  m["gen.late_p99_us"] = gen.tail * 1e-3;
  m["gen.late_max_us"] = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()) * 1e-3;
  return result;
}

}  // namespace perfbench
