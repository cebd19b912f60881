#include "core/catalog.hpp"

#include <cassert>
#include <utility>

namespace garnet::core {

void StreamCatalog::advertise(StreamId id, std::string name, std::string stream_class,
                              bool derived) {
  StreamInfo& info = streams_.upsert(StreamKey{id});
  info.id = id;
  info.name = std::move(name);
  info.stream_class = std::move(stream_class);
  info.advertised = true;
  info.derived = derived;
}

void StreamCatalog::note_message(StreamId id, util::SimTime now) {
  auto [info, inserted] = streams_.try_emplace(StreamKey{id});
  if (inserted) {
    info->id = id;
    info->first_seen = now;
    info->derived = id.sensor >= kDerivedSensorBase;
  }
  info->last_seen = now;
  ++info->messages;
}

const StreamInfo* StreamCatalog::find(StreamId id) const {
  return streams_.find(StreamKey{id});
}

std::vector<StreamInfo> StreamCatalog::discover(const Query& query) const {
  std::vector<StreamInfo> out;
  // Snapshot order: results come back sorted by packed id, so discovery
  // replies are deterministic across identically-populated catalogs.
  streams_.for_each_sorted([&](StreamKey key, const StreamInfo& info) {
    if (query.sensor && *query.sensor != key.sensor()) return;
    if (!query.stream_class.empty() && query.stream_class != info.stream_class) return;
    if (!query.include_unadvertised && !info.advertised) return;
    out.push_back(info);
  });
  return out;
}

void StreamCatalog::encode_info(util::ByteWriter& w, const StreamInfo& info) {
  w.str(info.name);
  w.str(info.stream_class);
  w.u8(info.advertised ? 1 : 0);
  w.u8(info.derived ? 1 : 0);
  w.i64(info.first_seen.ns);
  w.i64(info.last_seen.ns);
  w.u64(info.messages);
}

StreamInfo StreamCatalog::decode_info(StreamKey key, util::ByteReader& r) {
  StreamInfo info;
  info.id = key.id();
  info.name = r.str();
  info.stream_class = r.str();
  info.advertised = r.u8() != 0;
  info.derived = r.u8() != 0;
  info.first_seen = util::SimTime{r.i64()};
  info.last_seen = util::SimTime{r.i64()};
  info.messages = r.u64();
  return info;
}

util::Bytes StreamCatalog::capture_state() const {
  util::ByteWriter w(16 + streams_.size() * 48);
  streams_.write_full(w, encode_info);
  w.u32(next_derived_sensor_);
  w.u8(next_derived_stream_);
  return std::move(w).take();
}

util::Bytes StreamCatalog::capture_full() {
  util::Bytes state = capture_state();
  streams_.clear_dirty();
  return state;
}

util::Bytes StreamCatalog::capture_delta() {
  util::ByteWriter w;
  streams_.write_delta(w, encode_info, 48);
  w.u32(next_derived_sensor_);
  w.u8(next_derived_stream_);
  streams_.clear_dirty();
  return std::move(w).take();
}

util::Status<util::DecodeError> StreamCatalog::apply_delta(util::BytesView delta) {
  return load(delta, /*delta=*/true);
}

util::Status<util::DecodeError> StreamCatalog::restore_state(util::BytesView state) {
  return load(state, /*delta=*/false);
}

util::Status<util::DecodeError> StreamCatalog::load(util::BytesView bytes, bool delta) {
  util::ByteReader r(bytes);
  auto section = delta ? Table::read_delta(r, decode_info) : Table::read_full(r, decode_info);
  const SensorId next_sensor = r.u32();
  const auto next_stream = static_cast<InternalStreamId>(r.u8());
  if (!r.ok() || r.remaining() != 0) return util::Err{util::DecodeError::kTruncated};

  streams_.apply(std::move(section));
  next_derived_sensor_ = next_sensor;
  next_derived_stream_ = next_stream;
  return {};
}

void StreamCatalog::clear() {
  streams_.clear();
  next_derived_sensor_ = kDerivedSensorBase;
  next_derived_stream_ = 0;
}

StreamId StreamCatalog::allocate_derived() {
  const StreamId id{next_derived_sensor_, next_derived_stream_};
  assert(next_derived_sensor_ <= kMaxSensorId && "derived stream id space exhausted");
  if (next_derived_stream_ == 0xFF) {
    next_derived_stream_ = 0;
    ++next_derived_sensor_;
  } else {
    ++next_derived_stream_;
  }
  return id;
}

}  // namespace garnet::core
