// Stream recording and timing-preserving replay.
//
// The Orphanage gives bounded retention for *unclaimed* data; a recorder
// is the consumer-side complement — an application that archives the
// streams it subscribes to and can replay them later at original (or
// scaled) cadence. Replay re-enters the middleware as a derived stream,
// so downstream consumers cannot tell archived data from live data
// except by the kDerived/kFused header flags — the stream abstraction
// the paper argues for (§5) is what makes this composition free.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/consumer.hpp"
#include "core/wire_types.hpp"
#include "sim/scheduler.hpp"

namespace garnet::core {

/// An in-memory archive of deliveries, ordered by capture time. Each
/// entry is a view retaining its dispatch-time wire buffer (as in the
/// Orphanage ring), so archiving copies no payload bytes and the entries
/// outlive the runtime that delivered them.
class Recording {
 public:
  void append(DeliveryView delivery) { entries_.push_back(std::move(delivery)); }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const DeliveryView& at(std::size_t i) const { return entries_.at(i); }

  /// Deliveries of one stream, in capture order.
  [[nodiscard]] std::vector<DeliveryView> stream(StreamId id) const;

  /// Distinct streams present.
  [[nodiscard]] std::vector<StreamId> streams() const;

  /// Capture-time span between first and last entry.
  [[nodiscard]] util::Duration span() const;

 private:
  std::vector<DeliveryView> entries_;
};

/// Attaches to a Consumer and archives everything it receives, while
/// passing deliveries through to the consumer's previous handler.
class StreamRecorder {
 public:
  explicit StreamRecorder(Consumer& consumer);

  [[nodiscard]] const Recording& recording() const noexcept { return recording_; }
  [[nodiscard]] Recording take() && { return std::move(recording_); }

 private:
  Recording recording_;
};

/// Replays a recording through a callback with original inter-message
/// gaps (scaled by `speed`; 2.0 = twice as fast). Returns the virtual
/// time at which the last message will fire.
util::SimTime replay(sim::Scheduler& scheduler, const Recording& recording,
                     std::function<void(const DeliveryView&)> sink, double speed = 1.0);

/// Replays a recording as a derived stream through a consumer: each
/// archived message is re-published on `output` with fresh sequence
/// numbers and the kDerived|kFused flags set.
util::SimTime replay_as_stream(sim::Scheduler& scheduler, const Recording& recording,
                               Consumer& publisher, StreamId output, double speed = 1.0);

}  // namespace garnet::core
