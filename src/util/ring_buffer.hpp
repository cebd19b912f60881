// Fixed-capacity ring buffer.
//
// Used by the Orphanage for bounded retention of unclaimed data, by the
// tracer's flight recorder and by the sensors' and relays' recent-id
// windows. Storage fills lazily: a buffer that never reaches its capacity
// never holds (or default-constructs) more slots than it has seen pushes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace garnet::util {

/// FIFO of bounded capacity; pushing into a full buffer evicts the oldest
/// element. Not thread-safe (the simulation is single-threaded).
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) { assert(capacity > 0); }

  /// Returns true if an element was evicted to make room.
  bool push(T value) {
    if (size_ == slots_.size() && size_ < capacity_) {
      // Still filling: grow the storage (at most to capacity) instead of
      // wrapping. Rotating the live elements to the front keeps them
      // oldest-first once the storage grows.
      std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                  slots_.end());
      head_ = 0;
      if (slots_.size() == slots_.capacity()) {
        slots_.reserve(std::min(capacity_, std::max<std::size_t>(8, 2 * slots_.size())));
      }
      slots_.push_back(std::move(value));
      ++size_;
      return false;
    }
    const bool evicted = size_ == slots_.size();
    if (evicted) head_ = (head_ + 1) % slots_.size();
    slots_[(head_ + size_ - (evicted ? 1 : 0)) % slots_.size()] = std::move(value);
    if (!evicted) ++size_;
    return evicted;
  }

  /// Precondition: !empty().
  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }

  void pop() {
    assert(size_ > 0);
    head_ = (head_ + 1) % slots_.size();
    --size_;
  }

  /// Element i positions from the oldest. Precondition: i < size().
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) % slots_.size()];
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }
  /// Forgets every element; the storage is kept for reuse.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<T> slots_;  ///< The ring; grows to capacity_ as pushes arrive.
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace garnet::util
