#include "wireless/radio.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace garnet::wireless {
namespace {

/// Conservative early-out before the exact hypot test: true only when `a`
/// is certainly farther than `range` from `b`. The 1e-9 slack exceeds the
/// rounding of the squared sum, so whatever this rejects the exact test
/// rejects too; everything else still takes the exact test, and in-range
/// decisions are unchanged.
bool surely_out_of_range(sim::Vec2 a, sim::Vec2 b, double range) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy > range * range * (1.0 + 1e-9);
}

}  // namespace

// --- EndpointTable ------------------------------------------------------------

template <typename Endpoint>
void RadioMedium::EndpointTable<Endpoint>::add(Endpoint endpoint) {
  if (!first_.try_emplace(endpoint.key, slots_.size()).second) duplicate_keys_ = true;
  slots_.push_back(Slot{std::move(endpoint)});
}

template <typename Endpoint>
void RadioMedium::EndpointTable<Endpoint>::remove(std::uint32_t key) {
  const auto it = first_.find(key);
  if (it == first_.end()) return;
  if (duplicate_keys_) {
    for (std::size_t i = it->second; i < slots_.size(); ++i) {
      if (slots_[i].live && slots_[i].endpoint.key == key) {
        slots_[i].live = false;
        ++dead_;
      }
    }
  } else {
    slots_[it->second].live = false;
    ++dead_;
  }
  first_.erase(it);
  if (calling_ == 0 && dead_ * 2 > slots_.size()) compact();
}

template <typename Endpoint>
void RadioMedium::EndpointTable<Endpoint>::compact() {
  std::erase_if(slots_, [](const Slot& slot) { return !slot.live; });
  dead_ = 0;
  duplicate_keys_ = false;
  first_.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!first_.try_emplace(slots_[i].endpoint.key, i).second) duplicate_keys_ = true;
  }
}

// --- RadioMedium --------------------------------------------------------------

RadioMedium::RadioMedium(sim::Scheduler& scheduler, Config config, util::Rng rng)
    : scheduler_(scheduler), config_(config), rng_(rng) {}

RadioMedium::~RadioMedium() {
  // The collector captures `this`; standalone tests may tear the medium
  // down before the registry, so deregister eagerly.
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
}

void RadioMedium::add_receiver(Receiver receiver) {
  receivers_.push_back(receiver);
  grid_.stale = true;
}

void RadioMedium::set_uplink_sink(std::function<void(const ReceptionReport&)> sink) {
  uplink_sink_ = std::move(sink);
}

void RadioMedium::add_transmitter(Transmitter transmitter) {
  transmitters_.push_back(transmitter);
}

void RadioMedium::add_downlink_endpoint(DownlinkEndpoint endpoint) {
  assert(endpoint.position && endpoint.deliver);
  endpoints_.add(std::move(endpoint));
}

void RadioMedium::remove_downlink_endpoint(std::uint32_t key) { endpoints_.remove(key); }

void RadioMedium::add_overhear_endpoint(OverhearEndpoint endpoint) {
  assert(endpoint.position && endpoint.deliver);
  overhearers_.add(std::move(endpoint));
}

void RadioMedium::remove_overhear_endpoint(std::uint32_t key) { overhearers_.remove(key); }

void RadioMedium::rebuild_grid() {
  ReceiverGrid& g = grid_;
  g.stale = false;
  g.cell = 0.0;
  g.offsets.clear();
  g.candidates.clear();
  const std::size_t n = receivers_.size();
  g.everyone.resize(n);
  for (std::size_t i = 0; i < n; ++i) g.everyone[i] = static_cast<std::uint32_t>(i);
  if (n == 0) return;

  double max_range = 0.0;
  sim::Vec2 lo = receivers_.front().position;
  sim::Vec2 hi = lo;
  for (const Receiver& rx : receivers_) {
    // A non-finite position or range has no cell: keep the plain scan.
    if (!std::isfinite(rx.position.x) || !std::isfinite(rx.position.y) ||
        !std::isfinite(rx.range_m)) {
      return;
    }
    max_range = std::max(max_range, rx.range_m);
    lo = {std::min(lo.x, rx.position.x), std::min(lo.y, rx.position.y)};
    hi = {std::max(hi.x, rx.position.x), std::max(hi.y, rx.position.y)};
  }
  if (max_range <= 0.0 || !std::isfinite(hi.x - lo.x) || !std::isfinite(hi.y - lo.y)) return;

  // The slack keeps "in range" => "at most one cell apart" true under
  // rounding; coarser cells stay correct, so cap the cell count at a few
  // per receiver for sparse layouts.
  double cell = max_range * (1.0 + 1e-6);
  const auto cells_along = [&](double extent) { return std::floor(extent / cell) + 1.0; };
  const double max_cells = 4.0 * static_cast<double>(n) + 64.0;
  while (cells_along(hi.x - lo.x) * cells_along(hi.y - lo.y) > max_cells) cell *= 2.0;
  g.origin = lo;
  g.cell = cell;
  g.columns = static_cast<std::size_t>(cells_along(hi.x - lo.x));
  g.rows = static_cast<std::size_t>(cells_along(hi.y - lo.y));

  // Two passes: count each cell's neighbourhood, then fill it. Receivers
  // go in ascending index order, so every cell's list is ascending.
  const auto for_each_neighbour_cell = [&](const Receiver& rx, auto&& visit) {
    const auto cx = static_cast<std::size_t>(std::floor((rx.position.x - lo.x) / cell));
    const auto cy = static_cast<std::size_t>(std::floor((rx.position.y - lo.y) / cell));
    for (std::size_t y = cy == 0 ? 0 : cy - 1; y <= std::min(cy + 1, g.rows - 1); ++y) {
      for (std::size_t x = cx == 0 ? 0 : cx - 1; x <= std::min(cx + 1, g.columns - 1); ++x) {
        visit(y * g.columns + x);
      }
    }
  };
  g.offsets.assign(g.columns * g.rows + 1, 0);
  for (const Receiver& rx : receivers_) {
    for_each_neighbour_cell(rx, [&](std::size_t c) { ++g.offsets[c + 1]; });
  }
  for (std::size_t c = 0; c + 1 < g.offsets.size(); ++c) g.offsets[c + 1] += g.offsets[c];
  g.candidates.resize(g.offsets.back());
  std::vector<std::uint32_t> fill(g.offsets.begin(), g.offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for_each_neighbour_cell(receivers_[i], [&](std::size_t c) {
      g.candidates[fill[c]++] = static_cast<std::uint32_t>(i);
    });
  }
}

std::span<const std::uint32_t> RadioMedium::candidates_near(sim::Vec2 from) {
  if (grid_.stale) rebuild_grid();
  const ReceiverGrid& g = grid_;
  if (g.cell == 0.0 || !std::isfinite(from.x) || !std::isfinite(from.y)) return g.everyone;
  // A sender off the grid is clamped to the border cell: its neighbourhood
  // still holds every receiver that can be in range.
  const auto clamp_cell = [&](double offset, std::size_t count) -> std::size_t {
    const double c = std::floor(offset / g.cell);
    if (c <= 0.0) return 0;
    return c >= static_cast<double>(count - 1) ? count - 1 : static_cast<std::size_t>(c);
  };
  const std::size_t cell = clamp_cell(from.y - g.origin.y, g.rows) * g.columns +
                           clamp_cell(from.x - g.origin.x, g.columns);
  return std::span<const std::uint32_t>(g.candidates)
      .subspan(g.offsets[cell], g.offsets[cell + 1] - g.offsets[cell]);
}

bool RadioMedium::copy_survives(double dist, double range) {
  const double frac = range > 0 ? std::min(dist / range, 1.0) : 1.0;
  const double loss = config_.base_loss + config_.edge_loss * frac * frac;
  return !rng_.chance(loss);
}

double RadioMedium::rssi_for(double dist) {
  const double d = std::max(dist, 1.0);
  return kTxPowerDbm - 10.0 * kPathLossExponent * std::log10(d) +
         rng_.normal(0.0, kRssiNoiseStddev);
}

util::Duration RadioMedium::delivery_delay() {
  const auto jitter_ns = static_cast<std::int64_t>(
      rng_.uniform() * static_cast<double>(config_.max_jitter.ns));
  return kHopLatency + util::Duration::nanos(jitter_ns);
}

void RadioMedium::set_metrics(obs::MetricsRegistry& registry) {
  hop_delay_histogram_ = &registry.histogram("garnet.radio.hop_delay_ns");
  frame_size_histogram_ =
      &registry.histogram("garnet.radio.frame_bytes", obs::Histogram::Layout::bytes());
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
  metrics_ = &registry;
  collector_id_ = registry.add_collector([this](obs::SnapshotBuilder& out) {
    out.counter("garnet.radio.uplink_frames", stats_.uplink_frames);
    out.counter("garnet.radio.uplink_deliveries", stats_.uplink_deliveries);
    out.counter("garnet.radio.uplink_duplicates", stats_.uplink_duplicates);
    out.counter("garnet.radio.uplink_unheard", stats_.uplink_unheard);
    out.counter("garnet.radio.uplink_bytes_sent", stats_.uplink_bytes_sent);
    out.counter("garnet.radio.downlink_broadcasts", stats_.downlink_broadcasts);
    out.counter("garnet.radio.downlink_deliveries", stats_.downlink_deliveries);
    out.counter("garnet.radio.downlink_bytes_sent", stats_.downlink_bytes_sent);
    out.counter("garnet.radio.overheard", stats_.overheard);
  });
}

void RadioMedium::uplink(sim::Vec2 from, util::Bytes frame, std::uint32_t sender_key) {
  ++stats_.uplink_frames;
  stats_.uplink_bytes_sent += frame.size();
  if (frame_size_histogram_ != nullptr) {
    frame_size_histogram_->observe(static_cast<double>(frame.size()));
  }

  // Peer overhearing (multi-hop substrate): nearby relay-capable nodes
  // may hear the transmission too, subject to the same loss model.
  overhearers_.for_each([&](const OverhearEndpoint& peer) {
    if (sender_key != 0 && peer.key == sender_key) return;  // not own frames
    const sim::Vec2 at = peer.position();
    if (surely_out_of_range(from, at, peer.range_m)) return;
    const double dist = sim::distance(from, at);
    if (dist > peer.range_m) return;
    if (!copy_survives(dist, peer.range_m)) return;
    ++stats_.overheard;
    const std::uint32_t key = peer.key;
    const double rssi = rssi_for(dist);
    auto deliver = [this, key, frame, rssi]() {
      overhearers_.with(key, [&](const OverhearEndpoint& e) { e.deliver(frame, rssi); });
    };
    static_assert(sim::EventFn::fits_inline<decltype(deliver)>, "one overheard copy, no allocation");
    scheduler_.schedule_after(delivery_delay(), std::move(deliver));
  });

  // Receivers in ascending insertion order, exactly as a full scan would
  // visit the ones in range, so the RNG draws are unchanged.
  std::size_t copies = 0;
  for (const std::uint32_t index : candidates_near(from)) {
    const Receiver& rx = receivers_[index];
    if (surely_out_of_range(from, rx.position, rx.range_m)) continue;
    const double dist = sim::distance(from, rx.position);
    if (dist > rx.range_m) continue;
    if (!copy_survives(dist, rx.range_m)) continue;

    ++copies;
    ++stats_.uplink_deliveries;
    if (copies > 1) ++stats_.uplink_duplicates;

    ReceptionReport report{rx.id, rssi_for(dist), {}, frame};
    const util::Duration delay = delivery_delay();
    if (hop_delay_histogram_ != nullptr) {
      hop_delay_histogram_->observe(static_cast<double>(delay.ns));
    }
    auto deliver = [this, report = std::move(report)]() mutable {
      if (!uplink_sink_) return;
      report.received_at = scheduler_.now();
      uplink_sink_(report);
    };
    static_assert(sim::EventFn::fits_inline<decltype(deliver)>, "one receiver copy, no allocation");
    scheduler_.schedule_after(delay, std::move(deliver));
  }
  if (copies == 0) ++stats_.uplink_unheard;
}

std::size_t RadioMedium::downlink(TransmitterId tx, util::Bytes frame) {
  const auto it = std::find_if(transmitters_.begin(), transmitters_.end(),
                               [tx](const Transmitter& t) { return t.id == tx; });
  assert(it != transmitters_.end() && "unknown transmitter");

  ++stats_.downlink_broadcasts;
  stats_.downlink_bytes_sent += frame.size();

  std::size_t scheduled = 0;
  endpoints_.for_each([&](const DownlinkEndpoint& endpoint) {
    const sim::Vec2 at = endpoint.position();
    if (surely_out_of_range(it->position, at, it->range_m)) return;
    const double dist = sim::distance(it->position, at);
    if (dist > it->range_m) return;
    if (!copy_survives(dist, it->range_m)) return;

    ++scheduled;
    ++stats_.downlink_deliveries;
    const util::Duration delay = delivery_delay();
    // Capture by key, not reference: the endpoint may deregister (sensor
    // death) before delivery fires.
    const std::uint32_t key = endpoint.key;
    scheduler_.schedule_after(delay, [this, key, frame]() {
      endpoints_.with(key, [&](const DownlinkEndpoint& e) { e.deliver(frame); });
    });
  });
  return scheduled;
}

}  // namespace garnet::wireless
