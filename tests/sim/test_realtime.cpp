#include "sim/realtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

namespace garnet::sim {
namespace {

using util::Duration;

TEST(RealtimeDriver, ExecutesAllEventsInSpan) {
  Scheduler scheduler;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) {
    scheduler.schedule_after(Duration::millis(i), [&] { ++fired; });
  }
  // 1000x speed: 5 virtual ms of work in ~5 wall microseconds.
  RealtimeDriver driver(scheduler, 1000.0);
  driver.run_for(Duration::millis(10));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(scheduler.now().ns, Duration::millis(10).ns);
}

TEST(RealtimeDriver, WallTimeTracksVirtualTime) {
  Scheduler scheduler;
  scheduler.schedule_after(Duration::millis(500), [] {});
  // 10x speed: 600 virtual ms should take ~60 wall ms.
  RealtimeDriver driver(scheduler, 10.0);
  const auto start = std::chrono::steady_clock::now();
  driver.run_for(Duration::millis(600));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 50);
  EXPECT_LT(elapsed.count(), 500);  // generous ceiling for slow CI hosts
}

TEST(RealtimeDriver, EmptyScheduleStillAdvancesClock) {
  Scheduler scheduler;
  RealtimeDriver driver(scheduler, 100000.0);
  driver.run_for(Duration::seconds(10));
  EXPECT_EQ(scheduler.now().to_seconds(), 10.0);
}

TEST(RealtimeDriver, EventsMaySpawnEvents) {
  Scheduler scheduler;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 4) scheduler.schedule_after(Duration::millis(1), next);
  };
  scheduler.schedule_after(Duration::millis(1), next);
  RealtimeDriver driver(scheduler, 1000.0);
  driver.run_for(Duration::millis(10));
  EXPECT_EQ(chain, 4);
}

TEST(RealtimeDriver, BeforeSleepRunsAfterEveryBatch) {
  // Events 20 ms apart at real speed. The hook runs on entry and after
  // every batch of events, so none is left unserviced before a sleep or
  // the return. A host stall may merge events into one batch (the
  // driver fell behind and did not sleep between them); the log's shape
  // below holds either way.
  Scheduler scheduler;
  std::string log;
  for (int i = 1; i <= 3; ++i) {
    scheduler.schedule_after(Duration::millis(20 * i), [&] { log += 'E'; });
  }
  RealtimeDriver driver(scheduler, 1.0);
  driver.run_for(Duration::millis(80), [&] { log += 'H'; });
  EXPECT_EQ(std::count(log.begin(), log.end(), 'E'), 3) << log;
  EXPECT_EQ(log.front(), 'H') << log;
  EXPECT_EQ(log.back(), 'H') << log;
  EXPECT_EQ(log.find("HH"), std::string::npos) << log;
  EXPECT_EQ(scheduler.now().ns, Duration::millis(80).ns);
}

TEST(RealtimeDriver, BeforeSleepRunsWhenTheDriverNeverSleeps) {
  // 100 ms of events replayed a million times faster than real time: the
  // driver is behind the wall clock at every turn and never sleeps, and
  // still services the hook after running what was due.
  Scheduler scheduler;
  int ran = 0;
  for (int i = 1; i <= 100; ++i) scheduler.schedule_after(Duration::millis(i), [&] { ++ran; });
  std::vector<int> ran_at_hook;
  RealtimeDriver driver(scheduler, 1e6);
  driver.run_for(Duration::millis(100), [&] { ran_at_hook.push_back(ran); });
  EXPECT_EQ(ran, 100);
  ASSERT_GE(ran_at_hook.size(), 2u);
  EXPECT_EQ(ran_at_hook.front(), 0);
  EXPECT_EQ(ran_at_hook.back(), 100);
}

TEST(RealtimeDriver, WorkScheduledByTheHookRunsBeforeTheSleepEnds) {
  // The hook schedules an event 5 ms out while the driver was about to
  // sleep 200 ms to its deadline; the driver re-plans and runs the event
  // on time instead of after the sleep.
  Scheduler scheduler;
  bool scheduled = false;
  std::optional<std::chrono::steady_clock::duration> ran_after;
  RealtimeDriver driver(scheduler, 1.0);
  const auto start = std::chrono::steady_clock::now();
  driver.run_for(Duration::millis(200), [&] {
    if (scheduled) return;
    scheduled = true;
    scheduler.schedule_after(Duration::millis(5),
                             [&] { ran_after = std::chrono::steady_clock::now() - start; });
  });
  ASSERT_TRUE(ran_after.has_value());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(*ran_after).count(), 100);
}

}  // namespace
}  // namespace garnet::sim
