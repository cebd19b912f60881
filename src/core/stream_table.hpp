// Flat, checkpoint-aware stream-state storage.
//
// The paper sizes Garnet at 2^24 sensors with 256 streams each; holding
// that many live streams rules out one heap node per stream. Every
// hot-path service used to key std::map / std::unordered_map by an
// ad-hoc packed uint32_t — cache-hostile, alloc-per-insert, and
// O(total streams) to snapshot. This header replaces both halves:
//
//   * StreamKey (and its siblings SensorKey / ConsumerKey) is a strong
//     type around the packed 24+8-bit composite StreamID, so a sensor
//     address can no longer be passed where a stream key is expected.
//   * StreamTable<T, Key> is an open-addressing hash table over a
//     chunked arena of values: the index is a flat power-of-two slot
//     array (8 bytes/slot, linear probing), values live in fixed-size
//     chunks that never move (references remain stable across growth),
//     and erased slots are free-listed for reuse.
//
// Checkpoint support is built in rather than bolted on:
//
//   * for_each_sorted() walks entries in ascending key order, giving
//     byte-deterministic snapshots without the per-service "collect
//     keys, sort, look each up again" boilerplate — and *byte-identical*
//     frames to the old sorted-std::map captures.
//   * Every mutating accessor marks its entry dirty and erase() records
//     the removed key, so a service can capture an *incremental* delta
//     (dirty entries + removals since the last capture) instead of
//     stalling the plane to walk 10^6 entries (core/checkpoint.hpp's
//     delta frames). clear_dirty() rebases after any capture.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/message.hpp"

namespace garnet::core {

/// Strong key wrapping the packed 32-bit composite StreamID (24-bit
/// sensor, 8-bit internal stream tag). Constructed explicitly from a
/// StreamId or from raw packed bits, never implicitly from an integer —
/// the point is that a SensorId or a net::Address no longer converts
/// into a stream key by accident.
class StreamKey {
 public:
  constexpr StreamKey() = default;
  constexpr explicit StreamKey(StreamId id) : raw_(id.packed()) {}
  constexpr StreamKey(SensorId sensor, InternalStreamId tag)
      : raw_((sensor << 8) | tag) {}

  [[nodiscard]] static constexpr StreamKey from_packed(std::uint32_t raw) {
    StreamKey k;
    k.raw_ = raw;
    return k;
  }

  /// The Figure-2 wire form: (sensor << 8) | tag.
  [[nodiscard]] constexpr std::uint32_t pack() const noexcept { return raw_; }
  [[nodiscard]] constexpr SensorId sensor() const noexcept { return raw_ >> 8; }
  [[nodiscard]] constexpr InternalStreamId tag() const noexcept {
    return static_cast<InternalStreamId>(raw_ & 0xFF);
  }
  [[nodiscard]] constexpr StreamId id() const noexcept {
    return StreamId::from_packed(raw_);
  }

  constexpr auto operator<=>(const StreamKey&) const = default;

 private:
  std::uint32_t raw_ = 0;
};

/// Strong key over a bare 24-bit sensor identity (location tracks).
class SensorKey {
 public:
  constexpr SensorKey() = default;
  constexpr explicit SensorKey(SensorId sensor) : raw_(sensor) {}

  [[nodiscard]] static constexpr SensorKey from_packed(std::uint32_t raw) {
    return SensorKey{raw};
  }
  [[nodiscard]] constexpr std::uint32_t pack() const noexcept { return raw_; }
  [[nodiscard]] constexpr SensorId sensor() const noexcept { return raw_; }

  constexpr auto operator<=>(const SensorKey&) const = default;

 private:
  std::uint32_t raw_ = 0;
};

/// Strong key over a consumer's bus address (dispatch flow state).
class ConsumerKey {
 public:
  constexpr ConsumerKey() = default;
  constexpr explicit ConsumerKey(std::uint32_t address) : raw_(address) {}

  [[nodiscard]] static constexpr ConsumerKey from_packed(std::uint32_t raw) {
    return ConsumerKey{raw};
  }
  [[nodiscard]] constexpr std::uint32_t pack() const noexcept { return raw_; }

  constexpr auto operator<=>(const ConsumerKey&) const = default;

 private:
  std::uint32_t raw_ = 0;
};

/// Lookup cost of a StreamTable's index: how many slots a successful
/// lookup inspects (1 = the key sits in its home slot). Summable, so a
/// service can report one figure across several tables.
struct ProbeStats {
  std::uint64_t entries = 0;
  std::uint64_t total_probes = 0;
  std::uint32_t max_probes = 0;

  [[nodiscard]] double mean() const noexcept {
    return entries == 0 ? 0.0 : static_cast<double>(total_probes) / static_cast<double>(entries);
  }
  ProbeStats& operator+=(const ProbeStats& other) noexcept {
    entries += other.entries;
    total_probes += other.total_probes;
    max_probes = std::max(max_probes, other.max_probes);
    return *this;
  }
};

/// Open-addressing hash table with arena-allocated values and built-in
/// dirty tracking. Key is any of the strong key types above (anything
/// with pack()/from_packed and ordering). Not a general-purpose map:
/// iteration is either arena order (for_each) or ascending key order
/// (for_each_sorted — the snapshot iterator); there are no STL
/// iterators to invalidate.
template <typename T, typename Key = StreamKey>
class StreamTable {
 public:
  StreamTable() = default;

  StreamTable(StreamTable&&) noexcept = default;
  StreamTable& operator=(StreamTable&&) noexcept = default;
  StreamTable(const StreamTable&) = delete;
  StreamTable& operator=(const StreamTable&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Find-or-insert; marks the entry dirty and returns a reference that
  /// stays valid until the entry is erased (values never move).
  T& upsert(Key key) {
    auto [entry, inserted] = emplace(key);
    entry->dirty = true;
    return entry->value;
  }

  /// Like upsert, but also reports whether the entry is new.
  std::pair<T*, bool> try_emplace(Key key) {
    auto [entry, inserted] = emplace(key);
    entry->dirty = true;
    return {&entry->value, inserted};
  }

  /// Read-only lookup; never touches dirty state.
  [[nodiscard]] const T* find(Key key) const {
    const std::uint32_t slot = locate(key);
    return slot == kNoSlot ? nullptr : &arena_at(slots_[slot].ref)->value;
  }

  /// Mutating lookup: marks the entry dirty (the caller is assumed to
  /// change it — that is what distinguishes mutate from find).
  [[nodiscard]] T* mutate(Key key) {
    const std::uint32_t slot = locate(key);
    if (slot == kNoSlot) return nullptr;
    Entry* entry = arena_at(slots_[slot].ref);
    entry->dirty = true;
    return &entry->value;
  }

  [[nodiscard]] bool contains(Key key) const { return locate(key) != kNoSlot; }

  /// Erases the entry, free-listing its arena slot and recording the
  /// key in the removal journal for the next delta capture.
  bool erase(Key key) {
    const std::uint32_t slot = locate(key);
    if (slot == kNoSlot) return false;
    const std::uint32_t index = slots_[slot].ref;
    Entry* entry = arena_at(index);
    entry->value = T{};  // release the value's own heap state now
    entry->alive = false;
    entry->dirty = false;
    slots_[slot].ref = kTombstone;
    ++tombstone_slots_;
    free_.push_back(index);
    removed_.push_back(key.pack());
    --size_;
    return true;
  }

  /// Drops every entry and all dirty/removal bookkeeping.
  void clear() {
    slots_.clear();
    chunks_.clear();
    free_.clear();
    removed_.clear();
    size_ = 0;
    arena_used_ = 0;
    tombstone_slots_ = 0;
  }

  /// Arena-order iteration (fast, order not deterministic across
  /// identical logical states built differently). fn(Key, T&) / (Key, const T&).
  template <typename F>
  void for_each(F&& fn) {
    for (std::uint32_t i = 0; i < arena_used_; ++i) {
      Entry* entry = arena_at(i);
      if (entry->alive) fn(Key::from_packed(entry->key), entry->value);
    }
  }
  template <typename F>
  void for_each(F&& fn) const {
    for (std::uint32_t i = 0; i < arena_used_; ++i) {
      const Entry* entry = arena_at(i);
      if (entry->alive) fn(Key::from_packed(entry->key), entry->value);
    }
  }

  /// Snapshot iterator: visits entries in ascending key order, the
  /// deterministic order every checkpoint frame is written in. This is
  /// the one sorted-keys helper; services must not re-implement it.
  template <typename F>
  void for_each_sorted(F&& fn) const {
    std::vector<std::uint32_t> keys = sorted_keys();
    for (const std::uint32_t raw : keys) {
      const Key key = Key::from_packed(raw);
      fn(key, *find(key));
    }
  }
  template <typename F>
  void for_each_sorted(F&& fn) {
    std::vector<std::uint32_t> keys = sorted_keys();
    for (const std::uint32_t raw : keys) {
      const Key key = Key::from_packed(raw);
      const std::uint32_t slot = locate(key);
      fn(key, arena_at(slots_[slot].ref)->value);
    }
  }

  /// Ascending packed keys of every live entry.
  [[nodiscard]] std::vector<std::uint32_t> sorted_keys() const {
    std::vector<std::uint32_t> keys;
    keys.reserve(size_);
    for (std::uint32_t i = 0; i < arena_used_; ++i) {
      const Entry* entry = arena_at(i);
      if (entry->alive) keys.push_back(entry->key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  // --- incremental-checkpoint surface ---------------------------------

  /// Ascending packed keys of entries dirtied since the last
  /// clear_dirty(). O(live entries) to collect but O(dirty) to encode —
  /// the encode (and any value serialisation) is what stalls a capture.
  [[nodiscard]] std::vector<std::uint32_t> dirty_keys() const {
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < arena_used_; ++i) {
      const Entry* entry = arena_at(i);
      if (entry->alive && entry->dirty) keys.push_back(entry->key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Ascending packed keys erased since the last clear_dirty(),
  /// deduplicated. A key both erased and re-inserted appears in both
  /// journals; delta apply handles removals before upserts.
  [[nodiscard]] std::vector<std::uint32_t> removed_keys() const {
    std::vector<std::uint32_t> keys = removed_;
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
  }

  [[nodiscard]] std::size_t dirty_count() const {
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < arena_used_; ++i) {
      const Entry* entry = arena_at(i);
      if (entry->alive && entry->dirty) ++n;
    }
    return n;
  }

  /// Rebases the delta baseline: every entry becomes clean and the
  /// removal journal is dropped. Call after any capture (full or delta).
  void clear_dirty() {
    for (std::uint32_t i = 0; i < arena_used_; ++i) arena_at(i)->dirty = false;
    removed_.clear();
  }

  /// Marks every live entry dirty (restore paths that rebuild wholesale
  /// and want the next delta to carry everything).
  void mark_all_dirty() {
    for (std::uint32_t i = 0; i < arena_used_; ++i) {
      Entry* entry = arena_at(i);
      if (entry->alive) entry->dirty = true;
    }
  }

  /// Bytes held by the index and arena (not counting heap owned by the
  /// values themselves) — the bytes/stream numerator in bench_scale.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot) + chunks_.size() * sizeof(Entry) * kChunkEntries +
           free_.capacity() * sizeof(std::uint32_t) + removed_.capacity() * sizeof(std::uint32_t);
  }

  /// Cold diagnostic: walks the index and reports the probe length of
  /// every live key. Costs O(slots); nothing on the lookup path counts.
  [[nodiscard]] ProbeStats probe_stats() const {
    ProbeStats stats;
    const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      const Slot& s = slots_[slot];
      if (s.ref == kEmpty || s.ref == kTombstone) continue;
      const std::uint32_t probes = ((slot - home(s.key)) & mask) + 1;
      ++stats.entries;
      stats.total_probes += probes;
      stats.max_probes = std::max(stats.max_probes, probes);
    }
    return stats;
  }

  /// Pre-sizes the index for `n` entries (bench warm-up; optional).
  void reserve(std::size_t n) {
    std::size_t want = 16;
    while (want * 3 < n * 4) want <<= 1;  // keep load below 0.75
    if (want > slots_.size()) rehash(want);
  }

 private:
  // 1024 entries per chunk: large enough to amortise the allocation,
  // small enough that a sparse table does not overshoot wildly.
  static constexpr std::size_t kChunkEntries = 1024;
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFF;
  static constexpr std::uint32_t kTombstone = 0xFFFFFFFE;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFF;

  struct Entry {
    std::uint32_t key = 0;
    bool alive = false;
    bool dirty = false;
    T value{};
  };

  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t ref = kEmpty;  ///< Arena index, kEmpty, or kTombstone.
  };

  struct Chunk {
    Entry entries[kChunkEntries];
  };

  [[nodiscard]] Entry* arena_at(std::uint32_t index) {
    return &chunks_[index / kChunkEntries]->entries[index % kChunkEntries];
  }
  [[nodiscard]] const Entry* arena_at(std::uint32_t index) const {
    return &chunks_[index / kChunkEntries]->entries[index % kChunkEntries];
  }

  /// Home slot of a packed key: Fibonacci hashing, i.e. multiply by
  /// 2^64/phi and keep the top log2(slots) bits. Packed stream ids carry
  /// the tag in the low byte (0 on most sensors), so the low bits of any
  /// product of them are nearly constant; the top bits depend on every
  /// key bit and spread arithmetic runs of sensors evenly.
  [[nodiscard]] std::uint32_t home(std::uint32_t key) const noexcept {
    return static_cast<std::uint32_t>((std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Probe for a live entry; kNoSlot when absent.
  [[nodiscard]] std::uint32_t locate(Key key) const {
    if (slots_.empty()) return kNoSlot;
    const std::uint32_t raw = key.pack();
    const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
    std::uint32_t slot = home(raw);
    while (true) {
      const Slot& s = slots_[slot];
      if (s.ref == kEmpty) return kNoSlot;
      if (s.ref != kTombstone && s.key == raw) return slot;
      slot = (slot + 1) & mask;
    }
  }

  std::pair<Entry*, bool> emplace(Key key) {
    if (slots_.empty() || (size_ + tombstones()) * 4 >= slots_.size() * 3) {
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    const std::uint32_t raw = key.pack();
    const std::uint32_t mask = static_cast<std::uint32_t>(slots_.size()) - 1;
    std::uint32_t slot = home(raw);
    std::uint32_t first_tombstone = kNoSlot;
    while (true) {
      Slot& s = slots_[slot];
      if (s.ref == kEmpty) break;
      if (s.ref == kTombstone) {
        if (first_tombstone == kNoSlot) first_tombstone = slot;
      } else if (s.key == raw) {
        return {arena_at(s.ref), false};
      }
      slot = (slot + 1) & mask;
    }
    if (first_tombstone != kNoSlot) {
      slot = first_tombstone;
      --tombstone_slots_;
    }

    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      if (arena_used_ == chunks_.size() * kChunkEntries) {
        chunks_.push_back(std::make_unique<Chunk>());
      }
      index = arena_used_++;
    }
    Entry* entry = arena_at(index);
    entry->key = raw;
    entry->alive = true;
    entry->dirty = false;
    entry->value = T{};
    slots_[slot] = Slot{raw, index};
    ++size_;
    return {entry, true};
  }

  [[nodiscard]] std::size_t tombstones() const noexcept { return tombstone_slots_; }

  void rehash(std::size_t new_size) {
    assert((new_size & (new_size - 1)) == 0 && "slot count must stay a power of two");
    std::vector<Slot> next(new_size);
    const std::uint32_t mask = static_cast<std::uint32_t>(new_size) - 1;
    shift_ = static_cast<std::uint8_t>(64 - std::countr_zero(new_size));
    for (std::uint32_t i = 0; i < arena_used_; ++i) {
      const Entry* entry = arena_at(i);
      if (!entry->alive) continue;
      std::uint32_t slot = home(entry->key);
      while (next[slot].ref != kEmpty) slot = (slot + 1) & mask;
      next[slot] = Slot{entry->key, i};
    }
    slots_ = std::move(next);
    tombstone_slots_ = 0;
  }

  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_;     ///< Reusable arena indices.
  std::vector<std::uint32_t> removed_;  ///< Keys erased since clear_dirty().
  std::size_t size_ = 0;
  std::uint32_t arena_used_ = 0;        ///< High-water arena index.
  std::size_t tombstone_slots_ = 0;     ///< Live tombstones in slots_.
  std::uint8_t shift_ = 64;             ///< 64 - log2(slots_.size()); see home().
};

}  // namespace garnet::core

template <>
struct std::hash<garnet::core::StreamKey> {
  std::size_t operator()(const garnet::core::StreamKey& key) const noexcept {
    return std::hash<std::uint32_t>{}(key.pack());
  }
};
