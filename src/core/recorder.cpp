#include "core/recorder.hpp"

#include <algorithm>
#include <cassert>

namespace garnet::core {

std::vector<DeliveryView> Recording::stream(StreamId id) const {
  std::vector<DeliveryView> out;
  for (const DeliveryView& d : entries_) {
    if (d.message.stream_id == id) out.push_back(d);
  }
  return out;
}

std::vector<StreamId> Recording::streams() const {
  std::vector<StreamId> out;
  for (const DeliveryView& d : entries_) {
    if (std::find(out.begin(), out.end(), d.message.stream_id) == out.end()) {
      out.push_back(d.message.stream_id);
    }
  }
  return out;
}

util::Duration Recording::span() const {
  if (entries_.size() < 2) return {};
  return entries_.back().first_heard - entries_.front().first_heard;
}

StreamRecorder::StreamRecorder(Consumer& consumer) {
  // Chain in front of whatever handler the consumer already has; the
  // recorder is transparent to the application.
  consumer.set_data_handler(
      [this, previous = consumer.data_handler()](const DeliveryView& delivery) {
        // The archived view retains the wire buffer: no payload copy.
        recording_.append(delivery);
        if (previous) previous(delivery);
      });
}

util::SimTime replay(sim::Scheduler& scheduler, const Recording& recording,
                     std::function<void(const DeliveryView&)> sink, double speed) {
  assert(speed > 0);
  if (recording.empty()) return scheduler.now();

  const util::SimTime base = recording.at(0).first_heard;
  util::SimTime last = scheduler.now();
  auto shared_sink = std::make_shared<std::function<void(const DeliveryView&)>>(std::move(sink));
  for (std::size_t i = 0; i < recording.size(); ++i) {
    const DeliveryView& delivery = recording.at(i);
    const auto offset_ns =
        static_cast<std::int64_t>(static_cast<double>((delivery.first_heard - base).ns) / speed);
    const util::SimTime at = scheduler.now() + util::Duration::nanos(offset_ns);
    last = std::max(last, at);
    scheduler.schedule_at(at, [shared_sink, delivery] { (*shared_sink)(delivery); });
  }
  return last;
}

util::SimTime replay_as_stream(sim::Scheduler& scheduler, const Recording& recording,
                               Consumer& publisher, StreamId output, double speed) {
  return replay(
      scheduler, recording,
      [&publisher, output](const DeliveryView& delivery) {
        publisher.publish_derived(output, delivery.message.payload,
                                  static_cast<std::uint8_t>(HeaderFlag::kFused));
      },
      speed);
}

}  // namespace garnet::core
