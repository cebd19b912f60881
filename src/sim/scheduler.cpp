#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace garnet::sim {

void Scheduler::Ring::mark(std::int64_t bucket) noexcept {
  const auto index = static_cast<std::uint32_t>(bucket & (kBuckets - 1));
  bits_[index >> 6] |= std::uint64_t{1} << (index & 63);
  summary_[index >> 12] |= std::uint64_t{1} << ((index >> 6) & 63);
}

void Scheduler::Ring::unmark(std::int64_t bucket) noexcept {
  const auto index = static_cast<std::uint32_t>(bucket & (kBuckets - 1));
  std::uint64_t& word = bits_[index >> 6];
  word &= ~(std::uint64_t{1} << (index & 63));
  if (word == 0) summary_[index >> 12] &= ~(std::uint64_t{1} << ((index >> 6) & 63));
}

std::uint32_t Scheduler::Ring::next_from(std::uint32_t index) const noexcept {
  std::uint32_t word = index >> 6;
  const std::uint64_t bits = bits_[word] & (~std::uint64_t{0} << (index & 63));
  if (bits != 0) return (word << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
  ++word;
  for (std::uint32_t s = word >> 6; s < summary_.size(); ++s) {
    const std::uint64_t mask = s == (word >> 6) ? ~std::uint64_t{0} << (word & 63) : ~std::uint64_t{0};
    const std::uint64_t words = summary_[s] & mask;
    if (words != 0) {
      const std::uint32_t hit = (s << 6) | static_cast<std::uint32_t>(std::countr_zero(words));
      return (hit << 6) | static_cast<std::uint32_t>(std::countr_zero(bits_[hit]));
    }
  }
  return static_cast<std::uint32_t>(kBuckets);
}

std::int64_t Scheduler::Ring::first(std::int64_t from, std::int64_t span) const noexcept {
  const auto start = static_cast<std::uint32_t>(from & (kBuckets - 1));
  std::uint32_t hit = next_from(start);
  std::int64_t distance = static_cast<std::int64_t>(hit) - start;
  if (hit == kBuckets) {  // wrap around the ring
    hit = next_from(0);
    if (hit == kBuckets) return -1;
    distance = kBuckets - start + hit;
  }
  return distance < span ? from + distance : -1;
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
  }
  nodes_.emplace_back();
  return slot_count_++;
}

void Scheduler::link_before(std::uint32_t pos, std::uint32_t index) noexcept {
  Node& node = nodes_[index];
  Node& after = nodes_[pos];
  node.next = pos;
  node.prev = after.prev;
  nodes_[after.prev].next = index;
  after.prev = index;
}

void Scheduler::link_tail(std::uint32_t& head, std::uint32_t index) noexcept {
  if (head == kNone) {
    nodes_[index].next = nodes_[index].prev = index;
    head = index;
  } else {
    link_before(head, index);  // before the head of a circular list = at its tail
  }
}

void Scheduler::unlink(std::uint32_t& head, std::uint32_t index) noexcept {
  const Node& node = nodes_[index];
  if (node.next == index) {
    head = kNone;
    return;
  }
  nodes_[node.prev].next = node.next;
  nodes_[node.next].prev = node.prev;
  if (head == index) head = node.next;
}

void Scheduler::insert(std::uint32_t index) {
  const std::int64_t at = nodes_[index].at;
  const std::int64_t far = at >> kFarShift;
  if (far < edge_) {
    insert_near(index);
  } else if (far < edge_ + kBuckets) {
    std::uint32_t& head = far_.head(far);
    if (head == kNone) far_.mark(far);
    link_tail(head, index);
  } else {
    link_tail(overflow_, index);
    overflow_min_ = std::min(overflow_min_, at);
  }
}

void Scheduler::insert_near(std::uint32_t index) {
  const std::int64_t bucket = nodes_[index].at >> kNearShift;
  std::uint32_t& head = near_.head(bucket);
  if (head == kNone) {
    near_.mark(bucket);
    link_tail(head, index);
    return;
  }
  // Walk back from the tail past every entry that runs later.
  std::uint32_t pos = nodes_[head].prev;
  while (pos != head && later(pos, index)) pos = nodes_[pos].prev;
  if (later(pos, index)) {  // runs before everything in the bucket
    link_before(head, index);
    head = index;
  } else {
    link_before(nodes_[pos].next, index);
  }
}

void Scheduler::remove(std::uint32_t index) {
  const std::int64_t at = nodes_[index].at;
  const std::int64_t far = at >> kFarShift;
  if (far < edge_) {
    std::uint32_t& head = near_.head(at >> kNearShift);
    unlink(head, index);
    if (head == kNone) near_.unmark(at >> kNearShift);
  } else if (far < edge_ + kBuckets) {
    std::uint32_t& head = far_.head(far);
    unlink(head, index);
    if (head == kNone) far_.unmark(far);
  } else {
    unlink(overflow_, index);  // overflow_min_ stays a lower bound
    if (overflow_ == kNone) overflow_min_ = INT64_MAX;
  }
}

void Scheduler::advance_cursor(std::int64_t cursor) {
  cursor_ = cursor;
  const std::int64_t target = (cursor_ + kBuckets) >> kStepShift;
  if (target <= edge_) return;
  while (edge_ < target) {
    const std::int64_t next = far_.first(edge_, std::min(target - edge_, kBuckets));
    if (next < 0) {
      edge_ = target;
      break;
    }
    edge_ = next + 1;  // the bucket's events now fall before the edge
    std::uint32_t& head = far_.head(next);
    const std::uint32_t list = head;
    head = kNone;
    far_.unmark(next);
    refile(list);
  }
  if (overflow_ != kNone && (overflow_min_ >> kFarShift) < edge_ + kBuckets) {
    const std::uint32_t list = overflow_;
    overflow_ = kNone;
    overflow_min_ = INT64_MAX;
    refile(list);
  }
}

void Scheduler::refile(std::uint32_t list) {
  std::uint32_t index = list;
  do {
    const std::uint32_t next = nodes_[index].next;
    insert(index);
    index = next;
  } while (index != list);
}

EventId Scheduler::schedule_at(util::SimTime at, EventFn fn) {
  assert(fn);
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t index = acquire_slot();
  closure(index) = std::move(fn);
  Node& node = nodes_[index];
  node.at = std::max(at, now_).ns;
  node.seq = seq;
  ++live_;
  insert(index);
  return EventId{seq, index};
}

EventId Scheduler::schedule_after(util::Duration delay, EventFn fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid() || id.slot >= slot_count_) return false;
  Node& node = nodes_[id.slot];
  if (node.seq != id.value) return false;
  remove(id.slot);
  node.seq = 0;
  closure(id.slot).reset();
  free_slots_.push_back(id.slot);
  --live_;
  return true;
}

std::uint32_t Scheduler::front(std::int64_t horizon) {
  for (;;) {
    const std::int64_t bucket = near_.first(cursor_, (edge_ << kStepShift) - cursor_);
    if (bucket >= 0) return near_.head(bucket);
    // The near ring is empty: nothing is due before the first occupied far
    // bucket (or the overflow's earliest time). Move the cursor up to where
    // that bucket comes into reach, but not past the horizon.
    std::int64_t far = far_.first(edge_, kBuckets);
    if (far < 0) {
      if (overflow_ == kNone) return kNone;
      far = overflow_min_ >> kFarShift;
    }
    const std::int64_t reach = std::min((far - 1) << kStepShift, horizon >> kNearShift);
    if (reach <= cursor_) return kNone;  // the earliest event is due after the horizon
    advance_cursor(reach);
  }
}

void Scheduler::pop_and_run(std::uint32_t index) {
  Node& node = nodes_[index];
  const std::int64_t at = node.at;
  std::uint32_t& head = near_.head(at >> kNearShift);
  unlink(head, index);
  if (head == kNone) near_.unmark(at >> kNearShift);
  node.seq = 0;  // no longer cancellable, even from inside itself
  --live_;
  now_ = util::SimTime{at};
  advance_cursor(at >> kNearShift);
  ++executed_;
  EventFn& fn = closure(index);
  fn();
  // The slot stays off the free list while it runs, so nothing the event
  // schedules can overwrite the closure executing above.
  fn.reset();
  free_slots_.push_back(index);
}

std::optional<util::SimTime> Scheduler::next_event_time() {
  if (live_ == 0) return std::nullopt;
  const std::uint32_t head = front(now_.ns);
  if (head != kNone) return util::SimTime{nodes_[head].at};
  // The earliest event lies beyond the near ring's reach: it is the
  // earliest entry of the first occupied far bucket, else of the overflow.
  const std::int64_t far = far_.first(edge_, kBuckets);
  const std::uint32_t list = far >= 0 ? far_.head(far) : overflow_;
  std::int64_t earliest = nodes_[list].at;
  for (std::uint32_t index = nodes_[list].next; index != list; index = nodes_[index].next) {
    earliest = std::min(earliest, nodes_[index].at);
  }
  return util::SimTime{earliest};
}

std::size_t Scheduler::run(std::size_t limit) {
  std::size_t count = 0;
  while (count < limit) {
    const std::uint32_t index = front(INT64_MAX);
    if (index == kNone) break;
    pop_and_run(index);
    ++count;
  }
  return count;
}

std::size_t Scheduler::run_until(util::SimTime deadline) {
  std::size_t count = 0;
  for (;;) {
    const std::uint32_t index = front(deadline.ns);
    if (index == kNone || nodes_[index].at > deadline.ns) break;
    pop_and_run(index);
    ++count;
  }
  now_ = std::max(now_, deadline);
  advance_cursor(now_.ns >> kNearShift);
  return count;
}

}  // namespace garnet::sim
