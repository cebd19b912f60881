// Declarative multi-level consumer stages.
//
// Paper §4.2: "Consumer processes may generate further derived data
// streams by performing additional processing on received data. By
// supporting multi-level data consumption where each layer offers
// increasingly enhanced services to successive levels, an arbitrarily
// rich application infrastructure can be assembled."
//
// DerivedStage packages the recurring pattern: subscribe to inputs,
// transform, re-publish on an advertised derived stream. Stages chain
// by subscribing to each other's outputs, building the consumer graph
// the paper describes with a few lines per level:
//
//   DerivedStage smooth(runtime, "smooth", {StreamPattern::all_of(1)},
//                       windowed_mean(8), "smoothed");
//   DerivedStage alarm(runtime, "alarm",
//                      {StreamPattern::exact(smooth.output())},
//                      threshold_alert(25.0), "alert");
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/consumer.hpp"

namespace garnet {

class Runtime;

/// Transform applied to each input delivery. Returning an empty optional
/// publishes nothing for this input (aggregating transforms emit only
/// when their window closes). The delivery is a zero-copy view: its
/// payload aliases the wire buffer, which a copy of the view retains.
using StageTransform = std::function<std::optional<util::Bytes>(const core::DeliveryView&)>;

class DerivedStage {
 public:
  /// Creates the stage's consumer, allocates + advertises its output
  /// stream, subscribes to every input pattern, and wires the transform.
  DerivedStage(Runtime& runtime, const std::string& name,
               std::vector<core::StreamPattern> inputs, StageTransform transform,
               const std::string& output_class, core::SubscribeOptions qos = {});

  [[nodiscard]] core::StreamId output() const noexcept { return output_; }
  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumer_.received(); }
  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }
  [[nodiscard]] core::Consumer& consumer() noexcept { return consumer_; }

 private:
  core::Consumer consumer_;
  core::StreamId output_;
  StageTransform transform_;
  std::uint64_t published_ = 0;
};

// --- stock transforms --------------------------------------------------------

/// Mean of every `window` consecutive f64 readings.
[[nodiscard]] StageTransform windowed_mean(std::size_t window);

/// Emits the reading when it crosses `threshold` (rising edge only).
[[nodiscard]] StageTransform threshold_alert(double threshold);

/// Emits min/max/mean over each `window` readings as 3 packed f64s.
[[nodiscard]] StageTransform windowed_minmaxmean(std::size_t window);

}  // namespace garnet
