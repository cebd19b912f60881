// Real-time pacing for the discrete-event scheduler.
//
// The simulation itself is virtual-time-only (and deterministic); this
// driver maps virtual time onto the wall clock so interactive runs feel
// live — the paper's own prototype ran against real 802.11b hardware,
// and a deployment of this library would, too. `speed` accelerates
// (e.g. 60.0 replays an hour per minute); events that fall behind the
// wall clock run immediately, so slow hosts degrade to as-fast-as-
// possible rather than drifting.
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "sim/scheduler.hpp"

namespace garnet::sim {

class RealtimeDriver {
 public:
  explicit RealtimeDriver(Scheduler& scheduler, double speed = 1.0)
      : scheduler_(scheduler), speed_(speed) {}

  /// Runs events for `span` of virtual time, sleeping between events so
  /// virtual time tracks wall time / speed. Returns events executed.
  /// `before_sleep`, when set, is how the embedder services its I/O
  /// (e.g. Gateway::pump): it runs on entry and after every batch of
  /// events, so before each sleep, before returning, and between batches
  /// when the driver has fallen behind the wall clock and never sleeps.
  /// Work it schedules is picked up by the next batch.
  std::size_t run_for(util::Duration span, const std::function<void()>& before_sleep = {}) {
    const util::SimTime deadline = scheduler_.now() + span;
    const auto wall_start = std::chrono::steady_clock::now();
    const util::SimTime virtual_start = scheduler_.now();
    std::size_t executed = 0;

    for (;;) {
      if (before_sleep) before_sleep();
      const auto next = scheduler_.next_event_time();
      const bool due = next && *next <= deadline;
      const util::SimTime target = due ? *next : deadline;

      // Sleep until the wall clock catches up with the target instant.
      const auto virtual_elapsed = target - virtual_start;
      const auto wall_target =
          wall_start + std::chrono::nanoseconds(
                           static_cast<std::int64_t>(static_cast<double>(virtual_elapsed.ns) /
                                                     speed_));
      const auto now = std::chrono::steady_clock::now();
      if (wall_target > now) std::this_thread::sleep_for(wall_target - now);

      if (!due) break;
      util::SimTime until = target;
      if (wall_target <= now) {
        // Behind the wall clock: run everything already due in one batch.
        const auto wall_elapsed =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - wall_start).count();
        const double caught_up_ns = std::min(static_cast<double>(wall_elapsed) * speed_,
                                             static_cast<double>((deadline - virtual_start).ns));
        until = std::max(target, virtual_start + util::Duration::nanos(
                                                     static_cast<std::int64_t>(caught_up_ns)));
      }
      executed += scheduler_.run_until(until);
    }
    scheduler_.run_until(deadline);
    return executed;
  }

 private:
  Scheduler& scheduler_;
  double speed_;
};

}  // namespace garnet::sim
