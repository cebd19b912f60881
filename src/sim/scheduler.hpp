// Deterministic discrete-event scheduler.
//
// Everything in the reproduction — radio propagation delays, fixed-network
// message latency, sensor sampling timers, service timeouts — runs as
// events on one virtual clock. Ties are broken by insertion order, so a
// given seed always replays identically.
//
// Events live in a slab of slots with stable addresses; a binary heap of
// plain {at, seq, slot} entries orders them. Scheduling reuses a free slot
// and stores the closure inline (EventFn), so the steady state allocates
// nothing; cancel() is one slot compare.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/event_fn.hpp"
#include "util/time.hpp"

namespace garnet::sim {

/// Handle for cancelling a scheduled event: the event's insertion
/// sequence number plus the slot it occupies. A handle whose slot has
/// since been reused by a later event no longer matches and cancels
/// nothing.
struct EventId {
  std::uint64_t value = 0;  ///< Insertion sequence; 0 = no event.
  std::uint32_t slot = 0;
  [[nodiscard]] bool valid() const noexcept { return value != 0; }
};

class Scheduler {
 public:
  /// Current virtual time.
  [[nodiscard]] util::SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `at` (clamped to now if in the past).
  EventId schedule_at(util::SimTime at, EventFn fn);

  /// Schedules `fn` after `delay` from now.
  EventId schedule_after(util::Duration delay, EventFn fn);

  /// Cancels a pending event. Returns false if it already ran or was
  /// cancelled before.
  bool cancel(EventId id);

  /// Runs events until the queue drains or `limit` is reached. Returns
  /// the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs all events with time <= deadline, then advances the clock to
  /// the deadline.
  std::size_t run_until(util::SimTime deadline);

  /// Runs for `span` of virtual time from now.
  std::size_t run_for(util::Duration span) { return run_until(now_ + span); }

  /// Advances the clock to `at` without expecting any work: the shard
  /// plane's merge barrier re-aligns every per-shard virtual clock to
  /// the round's maximum with this. Events due at or before `at` (there
  /// normally are none — shards drain before merging) still run, so
  /// time never jumps over pending work. Returns the events executed.
  std::size_t advance_to(util::SimTime at) { return run_until(at); }

  [[nodiscard]] bool idle() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Time of the next live event, if any (real-time drivers sleep until
  /// it). Non-const: discards cancelled entries at the head.
  [[nodiscard]] std::optional<util::SimTime> next_event_time();

 private:
  /// A pending event's closure. `seq` is 0 while the slot is free (or its
  /// event is running), so a cancelled or executed event's heap entry and
  /// handle stop matching.
  struct Slot {
    EventFn fn;
    std::uint64_t seq = 0;
  };

  struct HeapEntry {
    util::SimTime at;
    std::uint64_t seq;  // insertion order breaks ties
    std::uint32_t slot;
  };

  /// Slots come in fixed chunks so a running event's closure never moves
  /// when the event schedules more.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  std::uint32_t acquire_slot();

  /// Discards cancelled entries at the head; returns whether a live event
  /// remains on top.
  bool settle_head();
  void pop_and_run();

  std::vector<HeapEntry> heap_;  // min-heap on (at, seq)
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slot_count_ = 0;
  std::size_t live_ = 0;
  util::SimTime now_ = util::SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace garnet::sim
