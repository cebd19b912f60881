#include "core/pubsub.hpp"

#include <algorithm>

namespace garnet::core {

std::uint64_t StreamPattern::packed() const {
  const std::uint64_t s = sensor ? *sensor : 0xFFFFFFFFull;
  const std::uint64_t t = stream ? *stream : 0x100ull;
  return (s << 16) | t;
}

StreamPattern StreamPattern::from_packed(std::uint64_t v) {
  StreamPattern p;
  const auto s = static_cast<std::uint32_t>(v >> 16);
  const auto t = static_cast<std::uint16_t>(v & 0xFFFF);
  if (s != 0xFFFFFFFFu) p.sensor = s;
  if (t != 0x100u) p.stream = static_cast<InternalStreamId>(t);
  return p;
}

namespace {

/// Erases the entries `drop` selects from every bucket of `buckets`, and
/// the buckets it empties; returns how many entries went.
template <typename Buckets, typename Drop>
std::size_t erase_where(Buckets& buckets, Drop drop) {
  std::size_t removed = 0;
  for (auto it = buckets.begin(); it != buckets.end();) {
    removed += std::erase_if(it->second, drop);
    it = it->second.empty() ? buckets.erase(it) : std::next(it);
  }
  return removed;
}

/// Erases the entries `drop` selects from the bucket at `key`, and the
/// bucket if that empties it.
template <typename Buckets, typename Key, typename Drop>
void erase_from(Buckets& buckets, const Key& key, Drop drop) {
  const auto bucket = buckets.find(key);
  if (bucket == buckets.end()) return;
  std::erase_if(bucket->second, drop);
  if (bucket->second.empty()) buckets.erase(bucket);
}

}  // namespace

void SubscriptionTable::place(const Entry& entry) {
  const StreamPattern& pattern = entry.pattern;
  if (pattern.is_exact()) {
    exact_[StreamId{*pattern.sensor, *pattern.stream}].push_back(entry);
  } else if (pattern.sensor) {
    by_sensor_[*pattern.sensor].push_back(entry);
  } else {
    wildcards_.push_back(entry);
  }
  index_.emplace(entry.id, pattern);
  ++count_;
}

SubscriptionId SubscriptionTable::add(net::Address consumer, StreamPattern pattern,
                                      SubscribeOptions qos) {
  const SubscriptionId id = next_id_++;
  place(Entry{id, consumer, pattern, qos, util::SimTime{-1}});
  return id;
}

bool SubscriptionTable::remove(SubscriptionId id) {
  const auto where = index_.find(id);
  if (where == index_.end()) return false;

  const StreamPattern& pattern = where->second;
  const auto drop = [id](const Entry& e) { return e.id == id; };
  if (pattern.is_exact()) {
    erase_from(exact_, StreamId{*pattern.sensor, *pattern.stream}, drop);
  } else if (pattern.sensor) {
    erase_from(by_sensor_, *pattern.sensor, drop);
  } else {
    std::erase_if(wildcards_, drop);
  }
  index_.erase(where);
  --count_;
  return true;
}

std::size_t SubscriptionTable::remove_consumer(net::Address consumer) {
  const auto drop = [this, consumer](const Entry& e) {
    if (e.consumer != consumer) return false;
    index_.erase(e.id);
    return true;
  };
  const std::size_t removed =
      erase_where(exact_, drop) + erase_where(by_sensor_, drop) + std::erase_if(wildcards_, drop);
  count_ -= removed;
  return removed;
}

bool SubscriptionTable::qos_admits(Entry& entry, const DeliveryContext& context) {
  if (entry.qos.max_age_ms != 0) {
    const auto age = context.now - context.first_heard;
    if (age > util::Duration::millis(entry.qos.max_age_ms)) {
      ++qos_stats_.suppressed_stale;
      return false;
    }
  }
  if (entry.qos.min_interval_ms != 0 && entry.last_delivery.ns >= 0) {
    const auto since = context.now - entry.last_delivery;
    if (since < util::Duration::millis(entry.qos.min_interval_ms)) {
      ++qos_stats_.suppressed_rate;
      return false;
    }
  }
  entry.last_delivery = context.now;
  return true;
}

void SubscriptionTable::collect(StreamId id, const DeliveryContext& context,
                                std::vector<net::Address>& out) {
  const std::size_t start = out.size();
  const auto admit = [&](Entry& e) {
    if (qos_admits(e, context)) out.push_back(e.consumer);
  };
  if (const auto it = exact_.find(id); it != exact_.end()) {
    for (Entry& e : it->second) admit(e);
  }
  if (const auto it = by_sensor_.find(id.sensor); it != by_sensor_.end()) {
    for (Entry& e : it->second) admit(e);
  }
  for (Entry& e : wildcards_) {
    if (e.pattern.matches(id)) admit(e);
  }
  // Deduplicate newly appended addresses (consumer may match twice).
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
  out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(start), out.end()), out.end());
}

void SubscriptionTable::collect(StreamId id, std::vector<net::Address>& out) {
  const std::size_t start = out.size();
  if (const auto it = exact_.find(id); it != exact_.end()) {
    for (const Entry& e : it->second) out.push_back(e.consumer);
  }
  if (const auto it = by_sensor_.find(id.sensor); it != by_sensor_.end()) {
    for (const Entry& e : it->second) out.push_back(e.consumer);
  }
  for (const Entry& e : wildcards_) {
    if (e.pattern.matches(id)) out.push_back(e.consumer);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end());
  out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(start), out.end()), out.end());
}

void SubscriptionTable::capture(util::ByteWriter& w) const {
  std::vector<const Entry*> entries;
  entries.reserve(count_);
  for (const auto& [stream, bucket] : exact_) {
    for (const Entry& e : bucket) entries.push_back(&e);
  }
  for (const auto& [sensor, bucket] : by_sensor_) {
    for (const Entry& e : bucket) entries.push_back(&e);
  }
  for (const Entry& e : wildcards_) entries.push_back(&e);
  // Sorted by id so two replicas capture byte-identical tables.
  std::sort(entries.begin(), entries.end(),
            [](const Entry* a, const Entry* b) { return a->id < b->id; });

  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Entry* e : entries) {
    w.u64(e->id);
    w.u32(e->consumer.value);
    w.u64(e->pattern.packed());
    w.u32(e->qos.min_interval_ms);
    w.u32(e->qos.max_age_ms);
  }
  w.u64(next_id_);
}

util::Status<util::DecodeError> SubscriptionTable::restore(util::ByteReader& r) {
  struct Parsed {
    SubscriptionId id;
    net::Address consumer;
    StreamPattern pattern;
    SubscribeOptions qos;
  };
  const std::uint32_t declared = r.u32();
  std::vector<Parsed> parsed;
  for (std::uint32_t i = 0; i < declared && r.ok(); ++i) {
    Parsed p;
    p.id = r.u64();
    p.consumer = net::Address{r.u32()};
    p.pattern = StreamPattern::from_packed(r.u64());
    p.qos.min_interval_ms = r.u32();
    p.qos.max_age_ms = r.u32();
    if (r.ok()) parsed.push_back(p);
  }
  const std::uint64_t next_id = r.u64();
  if (!r.ok()) return util::Err{util::DecodeError::kTruncated};

  exact_.clear();
  by_sensor_.clear();
  wildcards_.clear();
  index_.clear();
  count_ = 0;
  next_id_ = 1;
  for (const Parsed& p : parsed) restore_entry(p.id, p.consumer, p.pattern, p.qos);
  if (next_id > next_id_) next_id_ = next_id;
  return {};
}

void SubscriptionTable::restore_entry(SubscriptionId id, net::Address consumer,
                                      StreamPattern pattern, SubscribeOptions qos) {
  if (index_.contains(id)) return;
  place(Entry{id, consumer, pattern, qos, util::SimTime{-1}});
  if (id >= next_id_) next_id_ = id + 1;
}

bool SubscriptionTable::anyone_wants(StreamId id) const {
  if (exact_.contains(id) || by_sensor_.contains(id.sensor)) return true;
  return std::any_of(wildcards_.begin(), wildcards_.end(),
                     [id](const Entry& e) { return e.pattern.matches(id); });
}

bool SubscriptionTable::subscribes(net::Address consumer, StreamId id) const {
  const auto held = [consumer](const std::vector<Entry>& bucket) {
    return std::any_of(bucket.begin(), bucket.end(),
                       [consumer](const Entry& e) { return e.consumer == consumer; });
  };
  if (const auto it = exact_.find(id); it != exact_.end() && held(it->second)) return true;
  if (const auto it = by_sensor_.find(id.sensor); it != by_sensor_.end() && held(it->second)) {
    return true;
  }
  return std::any_of(wildcards_.begin(), wildcards_.end(), [&](const Entry& entry) {
    return entry.consumer == consumer && entry.pattern.matches(id);
  });
}

std::size_t SubscriptionTable::size() const noexcept { return count_; }

}  // namespace garnet::core
