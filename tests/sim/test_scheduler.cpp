#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace garnet::sim {
namespace {

using util::Duration;
using util::SimTime;

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), SimTime::zero());
  EXPECT_TRUE(s.idle());
}

TEST(Scheduler, RunsEventAtScheduledTime) {
  Scheduler s;
  SimTime observed{-1};
  s.schedule_after(Duration::millis(5), [&] { observed = s.now(); });
  s.run();
  EXPECT_EQ(observed.ns, 5'000'000);
  EXPECT_TRUE(s.idle());
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_after(Duration::millis(30), [&] { order.push_back(3); });
  s.schedule_after(Duration::millis(10), [&] { order.push_back(1); });
  s.schedule_after(Duration::millis(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_after(Duration::millis(1), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  s.schedule_after(Duration::millis(10), [] {});
  s.run();
  bool ran = false;
  s.schedule_at(SimTime{1}, [&] { ran = true; });  // in the past now
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now().ns, 10'000'000);  // clock did not go backwards
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_after(Duration::millis(1), [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(s.idle());
}

TEST(Scheduler, CancelTwiceFails) {
  Scheduler s;
  const EventId id = s.schedule_after(Duration::millis(1), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, CancelAfterExecutionFails) {
  Scheduler s;
  const EventId id = s.schedule_after(Duration::millis(1), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, CancelInvalidIdFails) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(EventId{}));
  EXPECT_FALSE(s.cancel(EventId{9999}));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_after(Duration::millis(i * 10), [&] { ++count; });
  }
  const std::size_t ran = s.run_until(SimTime{} + Duration::millis(45));
  EXPECT_EQ(ran, 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(s.now().ns, Duration::millis(45).ns);  // advances to deadline
  EXPECT_EQ(s.pending(), 6u);
}

TEST(Scheduler, RunUntilInclusiveOfDeadline) {
  Scheduler s;
  bool ran = false;
  s.schedule_after(Duration::millis(50), [&] { ran = true; });
  s.run_until(SimTime{} + Duration::millis(50));
  EXPECT_TRUE(ran);
}

TEST(Scheduler, EventsMayScheduleEvents) {
  Scheduler s;
  std::vector<std::int64_t> times;
  std::function<void()> chain = [&] {
    times.push_back(s.now().ns);
    if (times.size() < 5) s.schedule_after(Duration::millis(10), chain);
  };
  s.schedule_after(Duration::millis(10), chain);
  s.run();
  ASSERT_EQ(times.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(times[i], Duration::millis(10 * (static_cast<std::int64_t>(i) + 1)).ns);
  }
}

TEST(Scheduler, RunWithLimitStopsEarly) {
  Scheduler s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.schedule_after(Duration::millis(i), [&] { ++count; });
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending(), 7u);
}

TEST(Scheduler, ExecutedCounter) {
  Scheduler s;
  for (int i = 0; i < 4; ++i) s.schedule_after(Duration::millis(1), [] {});
  s.run();
  EXPECT_EQ(s.executed(), 4u);
}

TEST(Scheduler, CancelInsideEventOfLaterEvent) {
  Scheduler s;
  bool second_ran = false;
  EventId second{};
  second = s.schedule_after(Duration::millis(20), [&] { second_ran = true; });
  s.schedule_after(Duration::millis(10), [&] { EXPECT_TRUE(s.cancel(second)); });
  s.run();
  EXPECT_FALSE(second_ran);
}

TEST(Scheduler, StaleIdAfterSlotReuseCancelsNothing) {
  Scheduler s;
  const EventId ran = s.schedule_after(Duration::millis(1), [] {});
  const EventId cancelled = s.schedule_after(Duration::millis(1), [] {});
  EXPECT_TRUE(s.cancel(cancelled));
  s.run();

  // Both handles' slots get reused; neither may touch the new occupant.
  int fired = 0;
  const EventId a = s.schedule_after(Duration::millis(1), [&] { ++fired; });
  const EventId b = s.schedule_after(Duration::millis(1), [&] { ++fired; });
  EXPECT_TRUE(a.slot == ran.slot || a.slot == cancelled.slot);
  EXPECT_TRUE(b.slot == ran.slot || b.slot == cancelled.slot);
  EXPECT_FALSE(s.cancel(ran));
  EXPECT_FALSE(s.cancel(cancelled));
  EXPECT_EQ(s.pending(), 2u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, LargeCaptureFallsBackToHeap) {
  struct Big {
    std::array<std::uint64_t, 16> words{};  // 128 B: twice the inline buffer
  };
  static_assert(!EventFn::fits_inline<Big>);
  Big big;
  for (std::size_t i = 0; i < big.words.size(); ++i) big.words[i] = i + 1;
  const auto token = std::make_shared<int>(0);
  std::uint64_t total = 0;
  EventFn fn = [big, token, &total] {
    for (const std::uint64_t w : big.words) total += w;
  };
  EXPECT_TRUE(fn.heap_allocated());
  EXPECT_EQ(token.use_count(), 2);

  Scheduler s;
  s.schedule_after(Duration::millis(1), std::move(fn));
  const EventId dropped = s.schedule_after(Duration::millis(2), [big, token] { FAIL(); });
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_TRUE(s.cancel(dropped));
  EXPECT_EQ(token.use_count(), 2) << "cancel releases the closure at once";
  s.run();
  EXPECT_EQ(total, 16u * 17u / 2u);
  EXPECT_EQ(token.use_count(), 1) << "an executed closure is destroyed";
}

TEST(Scheduler, InlineBufferBoundary) {
  struct Fits {
    std::array<std::byte, EventFn::kInlineBytes> bytes{};
    void operator()() const {}
  };
  struct TooBig {
    std::array<std::byte, EventFn::kInlineBytes + 1> bytes{};
    void operator()() const {}
  };
  static_assert(EventFn::fits_inline<Fits>);
  static_assert(!EventFn::fits_inline<TooBig>);
  EXPECT_FALSE(EventFn(Fits{}).heap_allocated());
  EXPECT_TRUE(EventFn(TooBig{}).heap_allocated());
  EXPECT_FALSE(EventFn{});
}

TEST(Scheduler, MoveOnlyCapture) {
  Scheduler s;
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  s.schedule_after(Duration::millis(1), [p = std::move(owned), &seen] { seen = *p + 1; });
  s.run();
  EXPECT_EQ(seen, 42);
}

TEST(Scheduler, CancelHeadInsideRunningEvent) {
  // The event tied at the same instant sits at the heap head while the
  // first one runs; cancelling it from there must stick.
  Scheduler s;
  std::vector<int> order;
  EventId head{};
  s.schedule_after(Duration::millis(10), [&] {
    order.push_back(1);
    EXPECT_TRUE(s.cancel(head));
    EXPECT_FALSE(s.cancel(head));
    EXPECT_EQ(s.next_event_time()->ns, Duration::millis(20).ns);
  });
  head = s.schedule_after(Duration::millis(10), [&] { order.push_back(2); });
  s.schedule_after(Duration::millis(20), [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.executed(), 2u);
}

TEST(Scheduler, RunningEventCannotCancelItself) {
  Scheduler s;
  EventId self{};
  bool cancelled = true;
  self = s.schedule_after(Duration::millis(1), [&] { cancelled = s.cancel(self); });
  s.run();
  EXPECT_FALSE(cancelled);
}

// Differential property: random interleavings of schedule, cancel, run,
// run_until, advance_to and next_event_time() run every live event exactly
// once, in exactly the order a reference std::priority_queue on (at, seq)
// gives. The reference is driven in lock-step: each event, as it fires,
// must be the least live entry the reference holds at that moment.
class SchedulerStress : public ::testing::TestWithParam<std::uint64_t> {};

/// How far ahead events are scheduled.
enum class Shape {
  kUniform,    // 0-500 us
  kTies,       // a few distinct delays, zero among them: many equal times
  kWide,       // log-uniform from 1 ns to 10 minutes
  kClustered,  // bus-like 200-300 us hops, 1 s timers and zero delays
};

class OrderHarness {
 public:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (at, seq)

  OrderHarness(std::uint64_t seed, Shape shape) : rng_(seed), shape_(shape) {}

  void run_steps(int steps) {
    for (int step = 0; step < steps; ++step) {
      const auto action = rng_.below(100);
      if (action < 40) {
        schedule(s_.now() + delay());
      } else if (action < 44) {
        schedule(SimTime{static_cast<std::int64_t>(rng_.below(
            static_cast<std::uint64_t>(s_.now().ns) + 1))});  // clamps to now
      } else if (action < 58) {
        cancel_one();
      } else if (action < 68) {
        const std::size_t limit = rng_.below(20);
        const std::size_t ran = s_.run(limit);
        EXPECT_LE(ran, limit);
        if (ran < limit) {
          EXPECT_FALSE(head().has_value()) << "run() stopped with work left";
        }
      } else if (action < 78) {
        run_until_then_push_early();
      } else if (action < 86) {
        peek_then_push_early();
      } else if (action < 92) {
        check_run_until(s_.now() + delay(), /*advance=*/true);
      } else {
        check_run_until(s_.now() + delay(), /*advance=*/false);
      }
      ASSERT_EQ(s_.pending(), pending_.size());
    }
    s_.run();
    EXPECT_TRUE(s_.idle());
    EXPECT_FALSE(head().has_value());
    EXPECT_EQ(executed_, expected_);
    EXPECT_EQ(s_.executed(), executed_.size());
    EXPECT_EQ(executed_.size(), scheduled_ - cancelled_);
  }

 private:
  Duration delay() {
    switch (shape_) {
      case Shape::kUniform:
        return Duration::micros(static_cast<std::int64_t>(rng_.below(500)));
      case Shape::kTies: {
        static constexpr std::array<std::int64_t, 4> kDelays{0, 0, 1'000, 250'000};
        return Duration::nanos(kDelays[rng_.below(kDelays.size())]);
      }
      case Shape::kWide: {
        const std::uint64_t span = std::uint64_t{1} << rng_.below(40);
        return Duration::nanos(std::min<std::int64_t>(
            static_cast<std::int64_t>(1 + rng_.below(span)), Duration::seconds(600).ns));
      }
      case Shape::kClustered: {
        const auto pick = rng_.below(10);
        if (pick < 7) return Duration::micros(200 + static_cast<std::int64_t>(rng_.below(101)));
        if (pick < 9) return Duration::seconds(1) + Duration::micros(static_cast<std::int64_t>(rng_.below(5'000)));
        return Duration::nanos(0);
      }
    }
    return Duration::nanos(0);
  }

  void schedule(SimTime at) {
    const std::size_t token = seqs_.size();
    seqs_.push_back(0);
    const EventId id = s_.schedule_at(at, [this, token] { fire(token); });
    seqs_[token] = id.value;
    const std::int64_t when = std::max(at, s_.now()).ns;
    reference_.emplace(when, id.value);
    pending_.emplace(id.value, std::make_pair(id, when));
    ++scheduled_;
  }

  void fire(std::size_t token) {
    const Key ran{s_.now().ns, seqs_[token]};
    executed_.push_back(ran);
    const auto expected = head();
    ASSERT_TRUE(expected.has_value()) << "an event ran that the reference does not hold";
    expected_.push_back(*expected);
    reference_.pop();
    pending_.erase(expected->second);
    // Events schedule events, some of them at now: pushes at the cursor.
    if (scheduled_ < 6000 && rng_.below(4) == 0) {
      const auto children = 1 + rng_.below(2);
      for (std::uint64_t i = 0; i < children; ++i) schedule(s_.now() + delay());
    }
  }

  /// The least live (at, seq) in the reference; drops cancelled entries.
  std::optional<Key> head() {
    while (!reference_.empty() && !pending_.contains(reference_.top().second)) reference_.pop();
    if (reference_.empty()) return std::nullopt;
    return reference_.top();
  }

  /// Cancels a random entry, the head, the farthest entry, or an entry
  /// due close to the head (the queue's current bucket).
  void cancel_one() {
    if (pending_.empty()) return;
    std::uint64_t victim = 0;
    const auto mode = rng_.below(4);
    if (mode == 1) {
      victim = head()->second;
    } else if (mode == 2) {
      std::int64_t farthest = -1;
      for (const auto& [seq, entry] : pending_) {
        if (entry.second > farthest) {
          farthest = entry.second;
          victim = seq;
        }
      }
    } else if (mode == 3) {
      const std::int64_t near = head()->first + 64'000;
      std::vector<std::uint64_t> close;
      for (const auto& [seq, entry] : pending_) {
        if (entry.second <= near) close.push_back(seq);
      }
      victim = close[rng_.below(close.size())];
    } else {
      auto it = pending_.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng_.below(pending_.size())));
      victim = it->first;
    }
    const EventId id = pending_.at(victim).first;
    EXPECT_TRUE(s_.cancel(id));
    EXPECT_FALSE(s_.cancel(id)) << "cancelled twice";
    pending_.erase(victim);
    ++cancelled_;
  }

  void check_run_until(SimTime deadline, bool advance) {
    const SimTime before = s_.now();
    if (advance) {
      s_.advance_to(deadline);
    } else {
      s_.run_until(deadline);
    }
    EXPECT_EQ(s_.now(), std::max(before, deadline));
    const auto next = head();
    if (next) {
      EXPECT_GT(next->first, deadline.ns) << "run_until left due work";
    }
  }

  /// run_until stops short of the next event, so a queue that peeked at
  /// the head may sit ahead of now; the pushes that follow land earlier
  /// than that head.
  void run_until_then_push_early() {
    const auto next = head();
    if (!next || next->first <= s_.now().ns) {
      check_run_until(s_.now() + delay(), false);
      return;
    }
    const auto gap = static_cast<std::uint64_t>(next->first - s_.now().ns);
    check_run_until(s_.now() + Duration::nanos(static_cast<std::int64_t>(rng_.below(gap))), false);
    push_before(next->first);
  }

  /// next_event_time() must report the reference head; then push earlier.
  void peek_then_push_early() {
    const auto peeked = s_.next_event_time();
    const auto next = head();
    ASSERT_EQ(peeked.has_value(), next.has_value());
    if (!next) return;
    EXPECT_EQ(peeked->ns, next->first);
    push_before(next->first);
  }

  void push_before(std::int64_t at) {
    const auto pushes = 1 + rng_.below(3);
    for (std::uint64_t i = 0; i < pushes; ++i) {
      const auto room = static_cast<std::uint64_t>(std::max<std::int64_t>(at - s_.now().ns, 1));
      schedule(s_.now() + Duration::nanos(static_cast<std::int64_t>(rng_.below(room))));
    }
  }

  util::Rng rng_;
  Shape shape_;
  Scheduler s_;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> reference_;
  std::map<std::uint64_t, std::pair<EventId, std::int64_t>> pending_;  // seq -> (id, at)
  std::vector<std::uint64_t> seqs_;  // token -> seq
  std::vector<Key> executed_;
  std::vector<Key> expected_;
  std::size_t scheduled_ = 0;
  std::size_t cancelled_ = 0;
};

TEST_P(SchedulerStress, RandomScheduleCancelRun) {
  for (const Shape shape : {Shape::kUniform, Shape::kTies, Shape::kWide, Shape::kClustered}) {
    SCOPED_TRACE(static_cast<int>(shape));
    OrderHarness harness(GetParam() * 4 + static_cast<std::uint64_t>(shape), shape);
    harness.run_steps(3000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStress,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(Scheduler, NextEventTimePeeks) {
  Scheduler s;
  EXPECT_FALSE(s.next_event_time().has_value());
  s.schedule_after(Duration::millis(30), [] {});
  const EventId early = s.schedule_after(Duration::millis(10), [] {});
  ASSERT_TRUE(s.next_event_time().has_value());
  EXPECT_EQ(s.next_event_time()->ns, Duration::millis(10).ns);
  // Cancelling the head exposes the next live event.
  s.cancel(early);
  EXPECT_EQ(s.next_event_time()->ns, Duration::millis(30).ns);
  s.run();
  EXPECT_FALSE(s.next_event_time().has_value());
}

TEST(Scheduler, DeterministicReplay) {
  const auto run_once = [] {
    Scheduler s;
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      s.schedule_after(Duration::micros((i * 37) % 100), [&trace, &s] {
        trace.push_back(s.now().ns);
      });
    }
    s.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace garnet::sim
