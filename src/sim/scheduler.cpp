#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace garnet::sim {
namespace {

/// Heap order: `a` runs after `b` (std heaps put the greatest on top).
constexpr auto kLater = [](const auto& a, const auto& b) noexcept {
  if (a.at != b.at) return a.at > b.at;
  return a.seq > b.seq;
};

}  // namespace

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

EventId Scheduler::schedule_at(util::SimTime at, EventFn fn) {
  assert(fn);
  const util::SimTime when = std::max(at, now_);
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t index = acquire_slot();
  Slot& s = slot(index);
  s.fn = std::move(fn);
  s.seq = seq;
  ++live_;
  heap_.push_back(HeapEntry{when, seq, index});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
  return EventId{seq, index};
}

EventId Scheduler::schedule_after(util::Duration delay, EventFn fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid() || id.slot >= slot_count_) return false;
  Slot& s = slot(id.slot);
  if (s.seq != id.value) return false;
  s.seq = 0;
  s.fn.reset();
  free_slots_.push_back(id.slot);
  --live_;
  return true;  // its heap entry is discarded when it reaches the head
}

bool Scheduler::settle_head() {
  while (!heap_.empty() && slot(heap_.front().slot).seq != heap_.front().seq) {
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    heap_.pop_back();  // cancelled entry
  }
  return !heap_.empty();
}

void Scheduler::pop_and_run() {
  const HeapEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  heap_.pop_back();
  Slot& s = slot(top.slot);
  s.seq = 0;  // no longer cancellable, even from inside itself
  --live_;
  now_ = top.at;
  ++executed_;
  s.fn();
  // The slot stays off the free list while it runs, so nothing the event
  // schedules can overwrite the closure executing above.
  s.fn.reset();
  free_slots_.push_back(top.slot);
}

std::optional<util::SimTime> Scheduler::next_event_time() {
  if (!settle_head()) return std::nullopt;
  return heap_.front().at;
}

std::size_t Scheduler::run(std::size_t limit) {
  std::size_t count = 0;
  while (count < limit && settle_head()) {
    pop_and_run();
    ++count;
  }
  return count;
}

std::size_t Scheduler::run_until(util::SimTime deadline) {
  std::size_t count = 0;
  while (settle_head() && heap_.front().at <= deadline) {
    pop_and_run();
    ++count;
  }
  now_ = std::max(now_, deadline);
  return count;
}

}  // namespace garnet::sim
