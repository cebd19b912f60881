#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
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

// Stress property: random interleavings of schedule/cancel/run never
// fire a cancelled event, never fire out of time order, and drain fully.
class SchedulerStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerStress, RandomScheduleCancelRun) {
  util::Rng rng(GetParam());
  Scheduler s;
  std::vector<std::pair<std::uint64_t, EventId>> live;  // token -> handle
  std::set<std::uint64_t> cancelled_tokens;
  std::uint64_t next_token = 1;
  std::int64_t last_fire_time = -1;
  std::size_t fired = 0;
  std::size_t scheduled = 0;

  for (int step = 0; step < 3000; ++step) {
    const auto action = rng.below(100);
    if (action < 60) {
      const std::uint64_t token = next_token++;
      const EventId id = s.schedule_after(
          Duration::micros(static_cast<std::int64_t>(rng.below(500))), [&, token] {
            EXPECT_FALSE(cancelled_tokens.contains(token)) << "cancelled event fired";
            EXPECT_GE(s.now().ns, last_fire_time) << "time went backwards";
            last_fire_time = s.now().ns;
            ++fired;
          });
      ++scheduled;
      live.emplace_back(token, id);
    } else if (action < 80 && !live.empty()) {
      const std::size_t pick = rng.below(live.size());
      if (s.cancel(live[pick].second)) cancelled_tokens.insert(live[pick].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      s.run(rng.below(20));
    }
  }
  s.run();
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(fired, scheduled - cancelled_tokens.size());
  EXPECT_EQ(s.executed(), fired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStress, ::testing::Values(1u, 2u, 3u, 4u, 5u));

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
