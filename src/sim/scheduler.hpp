// Deterministic discrete-event scheduler.
//
// Everything in the reproduction — radio propagation delays, fixed-network
// message latency, sensor sampling timers, service timeouts — runs as
// events on one virtual clock. Ties are broken by insertion order, so a
// given seed always replays identically.
//
// Events live in a slab of slots with stable addresses. Scheduling reuses
// a free slot and stores the closure inline (EventFn), so the steady state
// allocates nothing. Pending events are kept in a bucketed time queue (a
// calendar queue in the sense of R. Brown, CACM 1988, with fixed widths)
// of three tiers, each slot linked into exactly one list:
//
//   near      8192 buckets of 64 ns, a ring that slides with the clock.
//             Each bucket is a list sorted on (at, seq). It holds every
//             event due before `edge_`, which stays 262-524 us ahead of
//             the clock, so bus hops and radio copies land here directly.
//   far       8192 unsorted buckets of 262.144 us, a 2.1 s horizon that
//             covers the sensors' 1 s timers. A far bucket moves into the
//             near ring once the clock is within 262 us of its start.
//   overflow  one unsorted list of events due past the far horizon. They
//             move into the far ring when the horizon reaches the earliest.
//
// Every bucket has an occupancy bit, with a summary bit per 64 buckets, so
// finding the next event skips empty buckets a word at a time. A pop takes
// the head of the first occupied near bucket, so events run in exactly the
// (at, seq) order. A new event carries the largest seq yet, so its sorted
// insert walks back from the bucket's tail and stops at once unless later
// events share its 64 ns. cancel() unlinks the slot in O(1) and frees it.
// The queue's cursor never passes the clock, so an event scheduled after
// a run_until() or next_event_time() peek stopped short of the next one
// still lands in its own bucket.
#pragma once

#include <array>
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

  /// Time of the next pending event, if any (real-time drivers sleep
  /// until it). Non-const: it may pull far buckets into the near ring, but
  /// never moves the queue's cursor past now.
  [[nodiscard]] std::optional<util::SimTime> next_event_time();

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// A slot's place in the queue. `seq` is 0 while the slot is free (or
  /// its event is running), so an executed or cancelled event's handle
  /// stops matching. Lists are circular: a bucket's head's `prev` is its
  /// tail.
  struct Node {
    std::int64_t at = 0;
    std::uint64_t seq = 0;
    std::uint32_t next = kNone;
    std::uint32_t prev = kNone;
  };

  /// Tier geometry: 2^6 ns near buckets, 2^18 ns far buckets, 8192 of each.
  /// An edge step of one far bucket covers half the near ring.
  static constexpr int kNearShift = 6;
  static constexpr int kFarShift = 18;
  static constexpr int kStepShift = kFarShift - kNearShift;
  static constexpr std::int64_t kBuckets = 8192;

  /// A ring of kBuckets list heads with an occupancy bit per bucket and a
  /// summary bit per 64 buckets. Buckets are named by absolute number and
  /// stored at that number modulo kBuckets.
  class Ring {
   public:
    [[nodiscard]] std::uint32_t& head(std::int64_t bucket) noexcept {
      return heads_[static_cast<std::size_t>(bucket & (kBuckets - 1))];
    }
    void mark(std::int64_t bucket) noexcept;
    void unmark(std::int64_t bucket) noexcept;
    /// The first occupied bucket in [from, from + span), span <= kBuckets,
    /// or -1.
    [[nodiscard]] std::int64_t first(std::int64_t from, std::int64_t span) const noexcept;

   private:
    [[nodiscard]] std::uint32_t next_from(std::uint32_t index) const noexcept;

    std::vector<std::uint32_t> heads_ = std::vector<std::uint32_t>(kBuckets, kNone);
    std::array<std::uint64_t, kBuckets / 64> bits_{};
    std::array<std::uint64_t, kBuckets / 4096> summary_{};
  };

  /// Slots come in fixed chunks so a running event's closure never moves
  /// when the event schedules more.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  [[nodiscard]] EventFn& closure(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  std::uint32_t acquire_slot();

  /// Whether `a` runs after `b`.
  [[nodiscard]] bool later(std::uint32_t a, std::uint32_t b) const noexcept {
    const Node& x = nodes_[a];
    const Node& y = nodes_[b];
    return x.at != y.at ? x.at > y.at : x.seq > y.seq;
  }
  void link_before(std::uint32_t pos, std::uint32_t index) noexcept;
  void link_tail(std::uint32_t& head, std::uint32_t index) noexcept;
  void unlink(std::uint32_t& head, std::uint32_t index) noexcept;

  /// Files a slot in the tier its time belongs to.
  void insert(std::uint32_t index);
  void insert_near(std::uint32_t index);
  void remove(std::uint32_t index);

  /// Moves the cursor to near bucket `cursor`, then pulls every far bucket
  /// (and overflow entry) the new position brings into reach.
  void advance_cursor(std::int64_t cursor);
  /// Files every entry of a detached circular list anew.
  void refile(std::uint32_t list);

  /// The slot of the earliest pending event, moving the cursor over empty
  /// buckets but never past `horizon`'s bucket. kNone if the queue is
  /// empty or the earliest event is out of the near ring's reach from
  /// there (it is then due after `horizon`); a slot returned may still be
  /// due after `horizon`.
  std::uint32_t front(std::int64_t horizon);
  void pop_and_run(std::uint32_t index);

  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<Node> nodes_;  // one per slot
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slot_count_ = 0;
  Ring near_;
  Ring far_;
  std::uint32_t overflow_ = kNone;
  /// Lower bound on the overflow list's times (exact after a refill).
  std::int64_t overflow_min_ = INT64_MAX;
  /// Near bucket the scans start from; never past now_'s bucket while an
  /// event or the caller runs.
  std::int64_t cursor_ = 0;
  /// Far bucket number: events due before it are in the near ring, and
  /// (edge_ << kStepShift) <= cursor_ + kBuckets keeps them in one lap.
  std::int64_t edge_ = kBuckets >> kStepShift;
  std::size_t live_ = 0;
  util::SimTime now_ = util::SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace garnet::sim
