#include "gw/gateway.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/export.hpp"

namespace garnet::gw {

namespace {

/// Longest accepted text-protocol line; a peer exceeding it is cut.
constexpr std::size_t kMaxLineBytes = 512;
/// Transport read chunk.
constexpr std::size_t kReadChunk = 16 * 1024;

constexpr std::string_view kSubPrefix = "SUB ";
constexpr std::string_view kGetPrefix = "GET ";

util::Bytes text_bytes(std::string_view text) {
  util::Bytes out(text.size());
  std::transform(text.begin(), text.end(), out.begin(),
                 [](char c) { return static_cast<std::byte>(c); });
  return out;
}

std::string_view trim_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace

std::optional<core::StreamPattern> parse_stream_pattern(std::string_view spec) {
  if (spec == "*") return core::StreamPattern::everything();
  const auto slash = spec.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  std::string_view sensor_field = spec.substr(0, slash);
  std::string_view stream_field = spec.substr(slash + 1);
  core::StreamPattern pattern = core::StreamPattern::everything();
  if (sensor_field != "*") {
    const auto sensor = detail::parse_decimal(sensor_field, core::kMaxSensorId);
    if (!sensor || !sensor_field.empty()) return std::nullopt;
    pattern.sensor = *sensor;
  }
  if (stream_field != "*") {
    const auto stream = detail::parse_decimal(stream_field, 0xFF);
    if (!stream || !stream_field.empty()) return std::nullopt;
    pattern.stream = static_cast<core::InternalStreamId>(*stream);
  }
  return pattern;
}

std::string pattern_uri(const core::StreamPattern& pattern) {
  std::string out = pattern.sensor ? std::to_string(*pattern.sensor) : std::string("*");
  out += '/';
  out += pattern.stream ? std::to_string(*pattern.stream) : std::string("*");
  return out;
}

Gateway::Gateway(Runtime& runtime, Transport& transport, GatewayConfig config)
    : runtime_(runtime),
      transport_(transport),
      config_(std::move(config)),
      consumer_(runtime.bus(), config_.endpoint_name) {
  scratch_.resize(kReadChunk);
  runtime_.provision(consumer_, config_.consumer_name);
  consumer_.set_data_handler([this](const core::DeliveryView& d) { on_delivery(d); });
  consumer_.subscribe(core::StreamPattern::everything());

  auto& registry = runtime_.telemetry().registry;
  ingest_frame_bytes_ =
      &registry.histogram("garnet.gw.ingest.frame_bytes", obs::Histogram::Layout::bytes());
  egress_frame_bytes_ =
      &registry.histogram("garnet.gw.egress.frame_bytes", obs::Histogram::Layout::bytes());
  delivery_latency_ = &registry.histogram("garnet.gw.delivery_latency_ns",
                                          obs::Histogram::Layout::latency_ns());
  collector_id_ = registry.add_collector([this](obs::SnapshotBuilder& out) { collect(out); });
}

Gateway::~Gateway() { runtime_.telemetry().registry.remove_collector(collector_id_); }

std::size_t Gateway::pump() {
  // What the scheduler queued since the last round goes out before any
  // new request is read, so replies keep their place behind it.
  std::size_t work = flush_pending();
  events_.clear();
  transport_.poll(events_);
  for (const TransportEvent& event : events_) on_event(event);
  work += events_.size() + flush_pending();
  reap();
  return work;
}

void Gateway::step(util::Duration span) {
  pump();
  runtime_.run_for(span);
  pump();
}

std::size_t Gateway::connections(Listener listener) const {
  std::size_t n = 0;
  for (const auto& [id, conn] : conns_) {
    if (!conn.dead && conn.listener == listener) ++n;
  }
  return n;
}

std::size_t Gateway::subscribers() const {
  std::size_t n = 0;
  for (const auto& [id, conn] : conns_) {
    if (!conn.dead && conn.listener == Listener::kStream && conn.subscription) ++n;
  }
  return n;
}

void Gateway::on_event(const TransportEvent& event) {
  if (event.kind == TransportEvent::Kind::kAccepted) {
    if (conns_.size() >= config_.max_connections) {
      ++stats_.rejected_capacity;
      transport_.close(event.conn);
      return;
    }
    ++stats_.accepted;
    Conn& conn = conns_[event.conn];
    conn.id = event.conn;
    conn.listener = event.listener;
    return;
  }
  const auto it = conns_.find(event.conn);
  if (it == conns_.end() || it->second.dead) return;
  if (event.kind == TransportEvent::Kind::kReadable) {
    on_readable(it->second);
  } else {  // kWritable
    it->second.blocked = false;
    flush(it->second);
  }
}

void Gateway::on_readable(Conn& conn) {
  for (;;) {
    const std::ptrdiff_t n = transport_.read(conn.id, scratch_);
    if (n == 0) return;  // drained for now
    if (n < 0) {         // EOF or error
      close_conn(conn);
      return;
    }
    const util::BytesView chunk(scratch_.data(), static_cast<std::size_t>(n));
    if (conn.listener == Listener::kIngest) {
      on_ingest_chunk(conn, chunk);
    } else {
      on_text_chunk(conn, chunk);
    }
    if (conn.dead) return;
  }
}

void Gateway::on_ingest_chunk(Conn& conn, util::BytesView chunk) {
  stats_.ingest_bytes += chunk.size();
  if (!conn.frames.push(chunk)) {
    // A declared length past the frame bound: the stream cannot be
    // resynchronised, so the producer is cut, not skipped past.
    ++stats_.ingest_oversized;
    close_conn(conn);
    return;
  }
  while (const auto body = conn.frames.frame()) {
    // Frames crossed a real network: verify the CRC trailer, unlike the
    // trusted in-process delivery path.
    const auto decoded = core::decode_view(*body, core::ChecksumPolicy::kVerify);
    if (decoded.ok()) {
      ++stats_.ingest_frames;
      ingest_frame_bytes_->observe(static_cast<double>(body->size()));
      runtime_.inject_external(decoded.value());
    } else {
      // One bad frame does not poison the stream — the length prefix
      // was sane, so the next frame boundary is still trustworthy.
      ++stats_.ingest_malformed;
    }
    conn.frames.pop();
  }
}

void Gateway::on_text_chunk(Conn& conn, util::BytesView chunk) {
  for (const std::byte b : chunk) {
    const char c = static_cast<char>(b);
    if (c == '\n') {
      const std::string line = std::move(conn.line);
      conn.line.clear();
      if (conn.listener == Listener::kStream) {
        on_stream_line(conn, trim_cr(line));
      } else {
        on_cache_line(conn, trim_cr(line));
      }
      if (conn.dead || conn.close_when_drained) return;
      continue;
    }
    if (conn.line.size() >= kMaxLineBytes) {
      ++stats_.bad_requests;
      close_conn(conn);
      return;
    }
    conn.line.push_back(c);
  }
}

void Gateway::on_stream_line(Conn& conn, std::string_view line) {
  if (line.empty()) return;
  if (line.rfind(kSubPrefix, 0) == 0) {
    const auto pattern = parse_stream_pattern(line.substr(kSubPrefix.size()));
    if (!pattern) {
      ++stats_.bad_requests;
      send_control(conn, "ERR bad pattern\n");
      return;
    }
    conn.subscription = *pattern;
    send_control(conn, "OK SUB " + pattern_uri(*pattern) + "\n");
    return;
  }
  if (line == "UNSUB") {
    conn.subscription.reset();
    send_control(conn, "OK UNSUB\n");
    return;
  }
  ++stats_.bad_requests;
  send_control(conn, "ERR unknown command\n");
}

void Gateway::on_cache_line(Conn& conn, std::string_view line) {
  if (line.empty()) return;
  const util::SimTime now = runtime_.scheduler().now();
  if (line.rfind(kGetPrefix, 0) == 0) {
    ++stats_.cache_requests;
    const std::string_view uri_text = line.substr(kGetPrefix.size());
    const auto id = parse_stream_uri(uri_text);
    if (!id) {
      ++stats_.bad_requests;
      send_control(conn, "ERR bad uri\n");
      return;
    }
    const LastValueCache::Entry* entry = cache_.get(*id);
    if (entry == nullptr) {
      send_control(conn, std::string("MISS ") + stream_uri(*id) + "\n");
      return;
    }
    const std::int64_t age_ms = (now.ns - entry->updated_at.ns) / 1'000'000;
    std::string head = "VALUE " + stream_uri(*id) + " " + std::to_string(entry->sequence) + " " +
                       std::to_string(age_ms) + " " + std::to_string(entry->payload.size()) + "\n";
    // The payload rides as the cached SharedBytes view: GET serves the
    // same allocation every stream subscriber aliased, copy-free.
    send_control(conn, head, entry->payload);
    send_control(conn, "\n");
    return;
  }
  if (line == "LIST") {
    ++stats_.cache_requests;
    std::string reply = "STREAMS " + std::to_string(cache_.size()) + "\n";
    for (const auto& [packed, entry] : cache_.entries()) {
      reply += stream_uri(core::StreamId::from_packed(packed)) + " " +
               std::to_string(entry.sequence) + " " + std::to_string(entry.payload.size()) + "\n";
    }
    send_control(conn, reply);
    return;
  }
  if (line == "METRICS") {
    ++stats_.cache_requests;
    const std::string text = obs::render_prometheus(
        runtime_.telemetry().registry.snapshot(static_cast<std::uint64_t>(now.ns)));
    send_control(conn, "METRICS " + std::to_string(text.size()) + "\n" + text);
    return;
  }
  if (line == "QUIT") {
    conn.close_when_drained = true;
    send_control(conn, "BYE\n");
    return;
  }
  ++stats_.bad_requests;
  send_control(conn, "ERR unknown command\n");
}

void Gateway::on_delivery(const core::DeliveryView& d) {
  const util::SimTime now = runtime_.scheduler().now();
  delivery_latency_->observe(static_cast<double>(now.ns - d.first_heard.ns));

  // The shared delivery frame every subscriber socket will alias. A
  // wire-less view (owned-delivery replay paths) is re-framed once.
  const util::SharedBytes frame =
      d.wire.empty() ? core::encode_delivery(d.message, d.first_heard) : d.wire;

  util::SharedBytes payload;
  if (!d.message.payload.empty()) {
    // Payload offset inside the frame: aliased directly when the view
    // points into it, recomputed from the layout when re-framed.
    std::size_t offset = 8 + core::kFixedHeaderBytes +
                         (d.message.ack_request_id ? core::kAckExtensionBytes : 0);
    if (!d.wire.empty()) {
      offset = static_cast<std::size_t>(d.message.payload.data() - frame.data());
    }
    payload = frame.view(offset, d.message.payload.size());
  }
  cache_.update(d.message.stream_id, d.message.sequence, d.message.header.flags, now,
                std::move(payload));

  std::array<std::byte, kLengthPrefixBytes> prefix;
  put_length_prefix(static_cast<std::uint32_t>(frame.size()), prefix.data());
  for (auto& [id, conn] : conns_) {
    if (conn.dead || conn.listener != Listener::kStream || !conn.subscription ||
        !conn.subscription->matches(d.message.stream_id)) {
      continue;
    }
    OutFrame out;
    out.prefix = prefix;
    out.body = frame;  // refcount bump, no bytes copied
    out.cls = net::TrafficClass::kData;
    enqueue_data(conn, std::move(out));
  }
  reap();
}

void Gateway::send_control(Conn& conn, std::string_view text, util::SharedBytes body) {
  OutFrame frame;
  frame.text = text_bytes(text);
  frame.body = std::move(body);
  frame.cls = net::TrafficClass::kControl;
  // Control jumps the data queue but never preempts a frame already
  // partially on the wire, and keeps FIFO order among control frames.
  std::size_t idx = (conn.head_offset > 0 && !conn.outbox.empty()) ? 1 : 0;
  while (idx < conn.outbox.size() && conn.outbox[idx].cls == net::TrafficClass::kControl) ++idx;
  conn.outbox.insert(conn.outbox.begin() + static_cast<std::ptrdiff_t>(idx), std::move(frame));
  if (!conn.blocked) flush(conn);
}

std::size_t Gateway::effective_outbox_frames() {
  net::AdmissionGate* gate = runtime_.admission();
  if (gate == nullptr || config_.outbox_frames_per_ticket == 0) return config_.outbox_frames;
  const std::size_t derived =
      static_cast<std::size_t>(gate->data_pool_size()) * config_.outbox_frames_per_ticket;
  return std::clamp<std::size_t>(derived, 1, config_.outbox_frames);
}

void Gateway::enqueue_data(Conn& conn, OutFrame frame) {
  const std::size_t bound = effective_outbox_frames();
  // Shed only once a flush has found the peer blocked: a burst past the
  // bound that a fast reader can take is written, not dropped.
  if (conn.data_frames >= bound && !conn.blocked) {
    flush(conn);
    if (conn.dead) return;
  }
  if (conn.data_frames >= bound) {
    ++stats_.shed.data_drop_newest;
    return;
  }
  conn.outbox.push_back(std::move(frame));
  ++conn.data_frames;
  // A blocked peer resumes on its kWritable event; otherwise the frame
  // waits for pump() unless it fills the writev slice array.
  if (!conn.blocked && conn.outbox.size() >= kBatchFrames) flush(conn);
}

std::size_t Gateway::flush_pending() {
  // Control flushes at once, so an unblocked connection with a queued
  // frame holds data that has not been tried yet.
  std::size_t n = 0;
  for (auto& [id, conn] : conns_) {
    if (conn.dead || conn.blocked || conn.outbox.empty()) continue;
    ++n;
    flush(conn);
  }
  return n;
}

void Gateway::flush(Conn& conn) {
  if (conn.dead) return;
  while (!conn.outbox.empty()) {
    // Gather as many queued frames as fit one writev: heads and shared
    // bodies interleave without ever being copied into a staging buffer.
    std::array<util::IoSlice, kMaxSlices> slices;
    std::size_t nslices = 0;
    std::size_t total = 0;
    std::size_t first_offset = conn.head_offset;
    for (const OutFrame& frame : conn.outbox) {
      if (nslices + 2 > slices.size()) break;
      std::size_t off = first_offset;
      first_offset = 0;
      const util::BytesView head = frame.head();
      if (off < head.size()) {
        slices[nslices++] = {head.data() + off, head.size() - off};
        total += head.size() - off;
        off = 0;
      } else {
        off -= head.size();
      }
      if (off < frame.body.size()) {
        slices[nslices++] = {frame.body.data() + off, frame.body.size() - off};
        total += frame.body.size() - off;
      }
    }
    const std::ptrdiff_t n = transport_.writev(conn.id, {slices.data(), nslices});
    if (n < 0) {
      close_conn(conn);
      return;
    }
    if (n == 0) {
      conn.blocked = true;
      transport_.want_writable(conn.id, true);
      return;
    }
    stats_.egress_bytes += static_cast<std::uint64_t>(n);
    advance_outbox(conn, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < total) {
      ++stats_.partial_writes;
      conn.blocked = true;
      transport_.want_writable(conn.id, true);
      return;
    }
  }
  conn.blocked = false;
  transport_.want_writable(conn.id, false);
  if (conn.close_when_drained) close_conn(conn);
}

void Gateway::advance_outbox(Conn& conn, std::size_t written) {
  while (written > 0) {
    OutFrame& frame = conn.outbox.front();
    const std::size_t remaining = frame.size() - conn.head_offset;
    const std::size_t take = std::min(written, remaining);
    conn.head_offset += take;
    written -= take;
    if (conn.head_offset < frame.size()) break;
    if (frame.cls == net::TrafficClass::kData) {
      ++stats_.egress_frames;
      --conn.data_frames;
      egress_frame_bytes_->observe(static_cast<double>(frame.size()));
    }
    conn.outbox.pop_front();
    conn.head_offset = 0;
  }
}

void Gateway::close_conn(Conn& conn) {
  if (conn.dead) return;
  conn.dead = true;
  ++stats_.closed;
  transport_.close(conn.id);
}

void Gateway::reap() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    it = it->second.dead ? conns_.erase(it) : std::next(it);
  }
}

void Gateway::collect(obs::SnapshotBuilder& out) const {
  out.counter("garnet.gw.accepted", stats_.accepted);
  out.counter("garnet.gw.closed", stats_.closed);
  out.counter("garnet.gw.rejected_capacity", stats_.rejected_capacity);
  out.counter("garnet.gw.ingest.frames", stats_.ingest_frames);
  out.counter("garnet.gw.ingest.bytes", stats_.ingest_bytes);
  out.counter("garnet.gw.ingest.malformed", stats_.ingest_malformed);
  out.counter("garnet.gw.ingest.oversized", stats_.ingest_oversized);
  out.counter("garnet.gw.egress.frames", stats_.egress_frames);
  out.counter("garnet.gw.egress.bytes", stats_.egress_bytes);
  out.counter("garnet.gw.partial_writes", stats_.partial_writes);
  out.counter("garnet.gw.bad_requests", stats_.bad_requests);
  out.counter("garnet.gw.cache.requests", stats_.cache_requests);
  out.counter("garnet.gw.cache.updates", cache_.stats().updates);
  out.counter("garnet.gw.cache.hits", cache_.stats().hits);
  out.counter("garnet.gw.cache.misses", cache_.stats().misses);
  out.gauge("garnet.gw.cache.entries", static_cast<double>(cache_.size()));
  out.gauge("garnet.gw.subscribers", static_cast<double>(subscribers()));
  for (const Listener listener : {Listener::kIngest, Listener::kStream, Listener::kCache}) {
    out.gauge("garnet.gw.connections", static_cast<double>(connections(listener)),
              {{"listener", std::string(to_string(listener))}});
  }
  // Shed split by (class, policy). The control rows are emitted even
  // though the gateway never sheds control frames: a zero that is
  // *present* is the checkable form of the invariant (ci gates on it).
  const net::ShedStats& shed = stats_.shed;
  out.counter("garnet.gw.shed", shed.data_drop_newest,
              {{"class", "data"}, {"policy", "drop_newest"}});
  out.counter("garnet.gw.shed", shed.data_drop_oldest,
              {{"class", "data"}, {"policy", "drop_oldest"}});
  out.counter("garnet.gw.shed", shed.control_drop_newest,
              {{"class", "control"}, {"policy", "drop_newest"}});
  out.counter("garnet.gw.shed", shed.control_drop_oldest,
              {{"class", "control"}, {"policy", "drop_oldest"}});
}

}  // namespace garnet::gw
