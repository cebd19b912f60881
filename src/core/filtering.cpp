#include "core/filtering.hpp"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "util/log.hpp"

namespace garnet::core {

FilteringService::FilteringService(sim::Scheduler& scheduler, Config config)
    : scheduler_(scheduler), config_(config) {
  assert(config_.dedup_window < 0x8000 && "dedup window must be below half the sequence space");
}

void FilteringService::ingest(const wireless::ReceptionReport& report) {
  ++stats_.copies_in;

  // Zero-copy parse: most copies are duplicates the dedup below will
  // drop, so the payload is not copied out of the radio frame here.
  const auto decoded = decode_view(report.frame);
  if (!decoded.ok()) {
    ++stats_.malformed;
    return;
  }
  const DataMessageView& message = decoded.value();

  // Relayed copies (paper §8) carry another node's radio signature: the
  // receiver heard the *relay*, not the source, so they must not feed
  // location inference. The header tag makes that decision possible —
  // "initial support has been provided by tagging the message header to
  // reflect multi-hop and relayed data messages to facilitate intelligent
  // processing decisions."
  if (reception_sink_ && !message.header.has(HeaderFlag::kRelayed)) {
    reception_sink_(ReceptionEvent{message.stream_id.sensor, report.receiver, report.rssi_dbm,
                                   report.received_at});
  } else if (message.header.has(HeaderFlag::kRelayed)) {
    ++stats_.relayed_copies;
  }

  auto [state, inserted] = streams_.try_emplace(StreamKey{message.stream_id});
  if (inserted) ++stats_.streams_seen;
  accept(*state, message, report.received_at);
}

void FilteringService::reset() {
  streams_.for_each([this](StreamKey, StreamState& state) { scheduler_.cancel(state.gap_timer); });
  streams_.clear();
}

void FilteringService::encode_stream(util::ByteWriter& w, std::uint32_t packed,
                                     const StreamState& state) {
  w.u32(packed);
  w.u8(state.started ? 1 : 0);
  w.u16(state.newest);
  w.u16(state.next_release);
  w.u64(state.accepted);
  w.u64(state.total_advance);
  // The seen list is written in ascending raw sequence order. Distance d
  // is sequence newest - d: distances newest..0 give the ascending run
  // up to `newest`, and larger distances wrap to the top of the 16-bit
  // space, so they follow, again largest distance first.
  const std::uint32_t newest = state.newest;
  w.u16(static_cast<std::uint16_t>(state.seen.count()));
  const auto put = [&w, newest](std::uint32_t d) { w.u16(static_cast<SequenceNo>(newest - d)); };
  state.seen.for_each_descending(0, newest, put);
  state.seen.for_each_descending(newest + 1, 0xFFFF, put);
}

FilteringService::StreamState FilteringService::decode_stream(util::ByteReader& r) const {
  StreamState s;
  s.started = r.u8() != 0;
  s.newest = r.u16();
  s.next_release = r.u16();
  s.accepted = r.u64();
  s.total_advance = r.u64();
  const std::uint16_t seen_count = r.u16();
  for (std::uint16_t j = 0; j < seen_count && r.ok(); ++j) {
    // Only sequences inside this service's window are kept. A live
    // service never holds any other (each advance prunes them), so only
    // a frame from a wider-window peer or a damaged one has them; as in
    // a live window, they are simply not "seen". A stream that never
    // started has no newest sequence to anchor its list to.
    const auto back = static_cast<std::uint16_t>(s.newest - r.u16());
    if (s.started && back <= config_.dedup_window) s.seen.set(back, config_.dedup_window);
  }
  return s;
}

util::Bytes FilteringService::capture_state() const {
  util::ByteWriter w(16 + streams_.size() * 32);
  w.u32(static_cast<std::uint32_t>(streams_.size()));
  streams_.for_each_sorted([&w](StreamKey key, const StreamState& state) {
    encode_stream(w, key.pack(), state);
  });
  return std::move(w).take();
}

util::Bytes FilteringService::capture_full() {
  util::Bytes state = capture_state();
  streams_.clear_dirty();
  return state;
}

util::Bytes FilteringService::capture_delta() {
  const std::vector<std::uint32_t> removed = streams_.removed_keys();
  const std::vector<std::uint32_t> dirty = streams_.dirty_keys();
  util::ByteWriter w(16 + removed.size() * 4 + dirty.size() * 32);
  w.u32(static_cast<std::uint32_t>(removed.size()));
  for (const std::uint32_t key : removed) w.u32(key);
  w.u32(static_cast<std::uint32_t>(dirty.size()));
  for (const std::uint32_t raw : dirty) {
    encode_stream(w, raw, *streams_.find(StreamKey::from_packed(raw)));
  }
  streams_.clear_dirty();
  return std::move(w).take();
}

util::Status<util::DecodeError> FilteringService::apply_delta(util::BytesView delta) {
  util::ByteReader r(delta);
  std::vector<StreamKey> removed;
  const std::uint32_t removed_count = r.u32();
  for (std::uint32_t i = 0; i < removed_count && r.ok(); ++i) {
    removed.push_back(StreamKey::from_packed(r.u32()));
  }
  std::vector<std::pair<StreamKey, StreamState>> upserts;
  const std::uint32_t dirty_count = r.u32();
  for (std::uint32_t i = 0; i < dirty_count && r.ok(); ++i) {
    const StreamKey key = StreamKey::from_packed(r.u32());
    StreamState s = decode_stream(r);
    if (r.ok()) upserts.emplace_back(key, std::move(s));
  }
  if (!r.ok() || r.remaining() != 0) return util::Err{util::DecodeError::kTruncated};

  for (const StreamKey key : removed) {
    if (StreamState* gone = streams_.mutate(key)) scheduler_.cancel(gone->gap_timer);
    streams_.erase(key);
  }
  for (auto& [key, s] : upserts) {
    StreamState& entry = streams_.upsert(key);
    // A replaced stream's in-flight reorder state dies with the primary:
    // the delta carries dedup state only.
    scheduler_.cancel(entry.gap_timer);
    entry = std::move(s);
  }
  streams_.clear_dirty();
  return {};
}

util::Status<util::DecodeError> FilteringService::restore_state(util::BytesView state) {
  util::ByteReader r(state);
  std::vector<std::pair<StreamKey, StreamState>> parsed;
  const std::uint32_t declared = r.u32();
  for (std::uint32_t i = 0; i < declared && r.ok(); ++i) {
    const StreamKey key = StreamKey::from_packed(r.u32());
    StreamState s = decode_stream(r);
    if (r.ok()) parsed.emplace_back(key, std::move(s));
  }
  if (!r.ok() || r.remaining() != 0) return util::Err{util::DecodeError::kTruncated};

  reset();  // cancels gap timers before the wholesale swap
  for (auto& [key, s] : parsed) streams_.upsert(key) = std::move(s);
  streams_.clear_dirty();
  return {};
}

void FilteringService::note_seen(StreamId id, SequenceNo seq) {
  auto [entry, inserted] = streams_.try_emplace(StreamKey{id});
  if (inserted) ++stats_.streams_seen;
  const Mark mark = mark_seen(*entry, seq);
  // Unlike accept(), the message was already forwarded by the (dead)
  // primary, so the release cursor points past it.
  if (mark == Mark::kFirst || mark == Mark::kAdvanced) {
    entry->next_release = static_cast<SequenceNo>(seq + 1);
  }
}

FilteringService::Mark FilteringService::mark_seen(StreamState& state, SequenceNo seq) {
  const std::uint16_t window = config_.dedup_window;
  if (!state.started) {
    state.started = true;
    state.newest = seq;
    state.seen.set(0, window);
    state.accepted = 1;
    return Mark::kFirst;
  }
  const auto backward = static_cast<std::uint16_t>(state.newest - seq);
  if (state.seen.test(backward)) return Mark::kDuplicate;
  Mark mark = Mark::kFilled;
  if (seq_newer(seq, state.newest)) {
    const auto step = static_cast<std::uint16_t>(seq - state.newest);
    state.total_advance += step;
    state.newest = seq;
    state.seen.advance(step, window);  // drops what fell out of the window
    mark = Mark::kAdvanced;
  } else if (backward > window) {
    // Too old to distinguish a late copy from a wrapped sequence; the
    // paper's 64K sequence space makes this a rare pathological case.
    return Mark::kStale;
  } else {
    state.seen.set(backward, window);
  }
  ++state.accepted;
  return mark;
}

std::size_t FilteringService::memory_bytes() const noexcept {
  std::size_t bytes = streams_.memory_bytes();
  streams_.for_each(
      [&bytes](StreamKey, const StreamState& state) { bytes += state.seen.heap_bytes(); });
  return bytes;
}

std::vector<FilteringService::StreamReport> FilteringService::stream_reports() const {
  std::vector<StreamReport> out;
  out.reserve(streams_.size());
  streams_.for_each([&out](StreamKey key, const StreamState& state) {
    if (!state.started) return;
    StreamReport report;
    report.id = key.id();
    report.accepted = state.accepted;
    // The stream spanned total_advance+1 sequence slots; anything we
    // never accepted inside that span is a presumed-lost frame.
    report.estimated_lost = state.total_advance + 1 - state.accepted;
    report.newest = state.newest;
    out.push_back(report);
  });
  return out;
}

void FilteringService::accept(StreamState& state, const DataMessageView& message,
                              util::SimTime heard_at) {
  const SequenceNo seq = message.sequence;
  const StreamId id = message.stream_id;

  switch (mark_seen(state, seq)) {
    case Mark::kDuplicate:
      ++stats_.duplicates_dropped;
      return;
    case Mark::kStale:
      ++stats_.stale_dropped;
      return;
    case Mark::kFirst:
      state.next_release = seq;
      break;
    case Mark::kAdvanced:
    case Mark::kFilled:
      break;
  }

  // A new unique message: the radio hop ends at its first valid receipt
  // and filtering's own work (dedup + optional reordering) begins.
  if (tracer_ != nullptr) {
    const obs::TraceKey trace_key{id.packed(), seq};
    tracer_->end_span(trace_key, "radio", heard_at.ns);
    tracer_->begin_span(trace_key, "filter", heard_at.ns);
  }

  if (config_.reorder_depth == 0) {
    ++stats_.messages_out;
    if (tracer_ != nullptr) {
      tracer_->end_span({id.packed(), seq}, "filter", scheduler_.now().ns);
    }
    if (message_sink_) message_sink_(message.to_owned(), heard_at);
    return;
  }

  if (seq != state.next_release) ++stats_.reordered;
  state.held.emplace(seq, PendingMessage{message.to_owned(), heard_at});
  release_ready(id, state);

  // Overflow: don't hold more than reorder_depth; skip the gap to the
  // earliest held message (in wrap order from next_release).
  if (state.held.size() > config_.reorder_depth) {
    flush_gap(id);
  } else if (!state.held.empty()) {
    arm_gap_timer(id, state);
  }
}

void FilteringService::release_ready(StreamId id, StreamState& state) {
  auto it = state.held.find(state.next_release);
  while (it != state.held.end()) {
    ++stats_.messages_out;
    if (tracer_ != nullptr) {
      tracer_->end_span({id.packed(), it->second.message.sequence}, "filter",
                        scheduler_.now().ns);
    }
    if (message_sink_) message_sink_(it->second.message, it->second.first_heard);
    state.held.erase(it);
    state.next_release = static_cast<SequenceNo>(state.next_release + 1);
    it = state.held.find(state.next_release);
  }
  if (state.held.empty() && state.gap_timer.valid()) {
    scheduler_.cancel(state.gap_timer);
    state.gap_timer = sim::EventId{};
  }
}

void FilteringService::flush_gap(StreamId id) {
  StreamState* found = streams_.mutate(StreamKey{id});
  if (found == nullptr) return;
  StreamState& state = *found;
  if (state.held.empty()) return;

  // Find the held sequence closest ahead of next_release (wrap order).
  SequenceNo best = 0;
  std::uint16_t best_dist = 0xFFFF;
  for (const auto& [seq, pending] : state.held) {
    const auto dist = static_cast<std::uint16_t>(seq - state.next_release);
    if (dist <= best_dist) {
      best_dist = dist;
      best = seq;
    }
  }
  state.next_release = best;
  release_ready(id, state);
  if (!state.held.empty()) arm_gap_timer(id, state);
}

void FilteringService::arm_gap_timer(StreamId id, StreamState& state) {
  if (state.gap_timer.valid()) return;  // already armed
  state.gap_timer = scheduler_.schedule_after(config_.reorder_timeout, [this, id] {
    StreamState* found = streams_.mutate(StreamKey{id});
    if (found == nullptr) return;
    found->gap_timer = sim::EventId{};
    flush_gap(id);
  });
}

}  // namespace garnet::core
