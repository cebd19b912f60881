// Duplicate-detection window of one reconstructed stream (paper §4.2).
//
// The Filtering Service must tell a repeated copy from a new message
// for every sequence within `dedup_window` of the newest one it has
// accepted. SeenWindow holds that set as a bitmap indexed by distance
// back from the newest sequence: bit d stands for sequence newest - d
// (mod 2^16). Lookup is one bit test; advancing `newest` by d shifts
// the map by d, which drops exactly the sequences that leave the window.
//
// Invariant: no bit beyond the window is ever set. The caller passes
// the window on every mutation, so a bit at distance > window never
// exists and test() needs no window argument.
//
// Storage is sized to the set's span (highest set distance + 1), not to
// the window: a span of at most 64 lives in one inline word, with no
// heap. A wider span moves to a heap array that grows geometrically up
// to ceil((window + 1) / 64) words and returns to the inline word once
// everything past distance 63 has left the window.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

namespace garnet::core {

class SeenWindow {
 public:
  SeenWindow() = default;
  ~SeenWindow() { release(); }

  SeenWindow(SeenWindow&& other) noexcept : words_(other.words_) {
    storage_ = other.storage_;
    other.words_ = 1;
    other.storage_.inline_bits = 0;
  }
  SeenWindow& operator=(SeenWindow&& other) noexcept {
    if (this != &other) {
      release();
      words_ = other.words_;
      storage_ = other.storage_;
      other.words_ = 1;
      other.storage_.inline_bits = 0;
    }
    return *this;
  }
  SeenWindow(const SeenWindow&) = delete;
  SeenWindow& operator=(const SeenWindow&) = delete;

  /// True when the sequence `distance` behind the newest was seen.
  [[nodiscard]] bool test(std::uint32_t distance) const noexcept {
    if (distance >= capacity_bits()) return false;
    return ((word(distance / 64) >> (distance % 64)) & 1) != 0;
  }

  /// Records the sequence `distance` behind the newest; distance must
  /// be within the window.
  void set(std::uint32_t distance, std::uint16_t window) {
    assert(distance <= window && "only sequences inside the window are stored");
    reserve_bits(distance + 1, window);
    word(distance / 64) |= std::uint64_t{1} << (distance % 64);
  }

  /// The newest sequence moved `step` (> 0) ahead: every seen sequence
  /// is now `step` further back, those past `window` are dropped, and
  /// the new newest is marked seen.
  void advance(std::uint32_t step, std::uint16_t window) {
    if (step > window) {  // the whole window turned over
      release();
      storage_.inline_bits = 1;
      return;
    }
    const std::uint32_t top = highest();
    if (top != kNone) reserve_bits(std::min<std::uint32_t>(top + step, window) + 1, window);
    shift_left(step);
    // Clear what the shift pushed past the window (only the last word
    // can hold distances beyond it).
    const std::uint32_t limit = std::uint32_t{window} + 1;
    if (limit < capacity_bits()) {
      data()[limit / 64] &= (std::uint64_t{1} << (limit % 64)) - 1;
    }
    data()[0] |= 1;
    if (words_ > 1 && highest() < 64) shrink_to_inline();
  }

  /// Number of sequences in the set.
  [[nodiscard]] std::uint32_t count() const noexcept {
    std::uint32_t n = 0;
    for (std::uint32_t w = 0; w < words_; ++w) n += std::popcount(data()[w]);
    return n;
  }

  /// Visits the seen distances in [lo, hi] from the largest down.
  template <typename F>
  void for_each_descending(std::uint32_t lo, std::uint32_t hi, F&& fn) const {
    hi = std::min(hi, capacity_bits() - 1);
    if (lo > hi) return;
    for (std::uint32_t w = hi / 64 + 1; w-- > lo / 64;) {
      std::uint64_t bits = data()[w];
      if (w == hi / 64 && hi % 64 != 63) bits &= (std::uint64_t{1} << (hi % 64 + 1)) - 1;
      if (w == lo / 64) bits &= ~std::uint64_t{0} << (lo % 64);
      while (bits != 0) {
        const int bit = 63 - std::countl_zero(bits);
        fn(w * 64 + static_cast<std::uint32_t>(bit));
        bits &= ~(std::uint64_t{1} << bit);
      }
    }
  }

  /// Heap bytes beyond the inline word (FilteringService::memory_bytes).
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return words_ > 1 ? std::size_t{words_} * sizeof(std::uint64_t) : 0;
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFF;

  [[nodiscard]] std::uint32_t capacity_bits() const noexcept { return std::uint32_t{words_} * 64; }
  [[nodiscard]] std::uint64_t* data() noexcept {
    return words_ == 1 ? &storage_.inline_bits : storage_.heap;
  }
  [[nodiscard]] const std::uint64_t* data() const noexcept {
    return words_ == 1 ? &storage_.inline_bits : storage_.heap;
  }
  /// Word `index` (< words_) of the map.
  [[nodiscard]] std::uint64_t& word(std::uint32_t index) noexcept {
    return words_ == 1 ? storage_.inline_bits : storage_.heap[index];
  }
  [[nodiscard]] std::uint64_t word(std::uint32_t index) const noexcept {
    return words_ == 1 ? storage_.inline_bits : storage_.heap[index];
  }

  /// Largest set distance, or kNone for an empty set.
  [[nodiscard]] std::uint32_t highest() const noexcept {
    for (std::uint32_t w = words_; w-- > 0;) {
      const std::uint64_t bits = data()[w];
      if (bits != 0) return w * 64 + 63 - static_cast<std::uint32_t>(std::countl_zero(bits));
    }
    return kNone;
  }

  /// Grows the storage to hold `bits` distances: doubling, capped at the
  /// window's own size so a full window costs ceil((window + 1) / 64) words.
  void reserve_bits(std::uint32_t bits, std::uint16_t window) {
    if (bits <= capacity_bits()) return;
    const std::uint32_t cap = (std::uint32_t{window} + 64) / 64;
    const std::uint32_t want = std::min(std::max((bits + 63) / 64, 2 * std::uint32_t{words_}), cap);
    auto* grown = new std::uint64_t[want]();
    std::memcpy(grown, data(), std::size_t{words_} * sizeof(std::uint64_t));
    release();
    storage_.heap = grown;
    words_ = static_cast<std::uint16_t>(want);
  }

  /// Moves every bit `step` distances further back; bits shifted past
  /// the storage are gone (the caller reserved room for the live ones).
  void shift_left(std::uint32_t step) noexcept {
    std::uint64_t* bits = data();
    const std::uint32_t word_shift = step / 64;
    const std::uint32_t bit_shift = step % 64;
    for (std::uint32_t w = words_; w-- > 0;) {
      std::uint64_t v = 0;
      if (w >= word_shift) {
        v = bits[w - word_shift] << bit_shift;
        if (bit_shift != 0 && w > word_shift) v |= bits[w - word_shift - 1] >> (64 - bit_shift);
      }
      bits[w] = v;
    }
  }

  void shrink_to_inline() noexcept {
    const std::uint64_t low = storage_.heap[0];
    release();
    storage_.inline_bits = low;
  }

  void release() noexcept {
    if (words_ > 1) delete[] storage_.heap;
    words_ = 1;
  }

  union Storage {
    std::uint64_t inline_bits = 0;  ///< words_ == 1: distances 0..63.
    std::uint64_t* heap;            ///< words_ > 1: words_ words.
  } storage_;
  std::uint16_t words_ = 1;
};

}  // namespace garnet::core
