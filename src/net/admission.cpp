#include "net/admission.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace garnet::net {

std::string_view to_string(ProbeDecision decision) {
  switch (decision) {
    case ProbeDecision::kHold: return "hold";
    case ProbeDecision::kProbeUp: return "probe-up";
    case ProbeDecision::kProbeDown: return "probe-down";
    case ProbeDecision::kAccept: return "accept";
    case ProbeDecision::kBackoff: return "backoff";
  }
  return "?";
}

AdmissionStats& AdmissionStats::operator+=(const AdmissionStats& other) noexcept {
  data_admitted += other.data_admitted;
  data_rejected += other.data_rejected;
  probes += other.probes;
  resizes += other.resizes;
  return *this;
}

std::string render_probe_record(const ProbeRecord& record) {
  std::ostringstream out;
  out << record.at.ns << " probe " << to_string(record.decision) << ' ' << record.from_size
      << "->" << record.to_size << " goodput=" << record.goodput
      << " ewma_milli=" << record.ewma_milli << '\n';
  return out.str();
}

// ---------------------------------------------------------------------------
// TicketPool

void TicketPool::push_lease(util::SimTime expiry) {
  // Leases usually expire in acquisition order (constant lease length),
  // so the common case is a push_back; equal-lease reordering cannot
  // happen because insertion keeps the deque ascending.
  if (leases_.empty() || leases_.back() <= expiry) {
    leases_.push_back(expiry);
    return;
  }
  auto it = std::upper_bound(leases_.begin(), leases_.end(), expiry);
  leases_.insert(it, expiry);
}

bool TicketPool::try_acquire(util::SimTime now, util::Duration lease) {
  release_expired(now);
  if (leases_.size() >= size_) {
    saturated_ = true;
    return false;
  }
  push_lease(now + lease);
  if (leases_.size() >= size_) saturated_ = true;
  return true;
}

std::size_t TicketPool::release_expired(util::SimTime now) {
  std::size_t released = 0;
  while (!leases_.empty() && leases_.front() <= now) {
    leases_.pop_front();
    ++released;
  }
  return released;
}

// ---------------------------------------------------------------------------
// ThroughputProbe

namespace {

std::uint32_t clamp_size(std::uint32_t size, const ProbeConfig& config) {
  return std::clamp(size, config.min_concurrency, std::max(config.min_concurrency,
                                                           config.max_concurrency));
}

}  // namespace

ThroughputProbe::ThroughputProbe(const ProbeConfig& config)
    : config_(config),
      size_(clamp_size(config.initial_concurrency, config)),
      stable_size_(size_) {}

std::uint32_t ThroughputProbe::step_up(std::uint32_t size) const {
  const auto step = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(static_cast<double>(size) * config_.step));
  return clamp_size(size + step, config_);
}

std::uint32_t ThroughputProbe::step_down(std::uint32_t size) const {
  const auto step = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(static_cast<double>(size) * config_.step));
  return clamp_size(size > step ? size - step : config_.min_concurrency, config_);
}

ThroughputProbe::Outcome ThroughputProbe::on_interval(std::uint64_t goodput, bool saturated) {
  const auto sample = static_cast<double>(goodput);
  if (!seeded_) {
    ewma_ = sample;
    seeded_ = true;
  } else {
    ewma_ = config_.ewma_weight * sample + (1.0 - config_.ewma_weight) * ewma_;
  }

  Outcome out;
  switch (state_) {
    case State::kStable: {
      best_goodput_ = ewma_;
      if (saturated && size_ < clamp_size(config_.max_concurrency, config_)) {
        size_ = step_up(size_);
        state_ = State::kProbingUp;
        out.decision = ProbeDecision::kProbeUp;
      } else if (!saturated && size_ > config_.min_concurrency) {
        size_ = step_down(size_);
        state_ = State::kProbingDown;
        out.decision = ProbeDecision::kProbeDown;
      } else {
        out.decision = ProbeDecision::kHold;
      }
      break;
    }
    case State::kProbingUp: {
      if (ewma_ > best_goodput_) {
        // More concurrency bought more goodput: commit, and keep
        // climbing next interval if the larger pool still saturates.
        stable_size_ = size_;
        best_goodput_ = ewma_;
        state_ = State::kStable;
        out.decision = ProbeDecision::kAccept;
      } else {
        size_ = stable_size_;
        state_ = State::kStable;
        out.decision = ProbeDecision::kBackoff;
      }
      break;
    }
    case State::kProbingDown: {
      if (ewma_ >= best_goodput_ * config_.backoff_ratio) {
        // The smaller pool serves (nearly) the same goodput: keep it —
        // fewer tickets means less downstream queueing for free.
        stable_size_ = size_;
        best_goodput_ = std::max(best_goodput_, ewma_);
        state_ = State::kStable;
        out.decision = ProbeDecision::kAccept;
      } else {
        size_ = stable_size_;
        state_ = State::kStable;
        out.decision = ProbeDecision::kBackoff;
      }
      break;
    }
  }
  out.size = size_;
  out.ewma = ewma_;
  return out;
}

// ---------------------------------------------------------------------------
// AdmissionGate

AdmissionGate::AdmissionGate(AdmissionConfig config)
    : config_(config),
      data_(clamp_size(config.probe.initial_concurrency, config.probe)),
      probe_(config.probe),
      next_deadline_(util::SimTime::zero() + config.probe.interval) {}

AdmissionGate::~AdmissionGate() {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
}

bool AdmissionGate::admit_data(util::SimTime now) {
  if (!config_.enabled) return true;
  advance(now);
  if (data_.try_acquire(now, config_.probe.lease)) {
    ++stats_.data_admitted;
    return true;
  }
  ++stats_.data_rejected;
  return false;
}

void AdmissionGate::advance(util::SimTime now) {
  if (!config_.enabled) return;
  data_.release_expired(now);
  // Deadlines are fixed multiples of the interval from t=0, independent
  // of when callers happen to advance the gate: a bench that polls every
  // message and a shard plane that polls at merge barriers tick at the
  // same virtual instants and journal the same decisions.
  while (next_deadline_ <= now) {
    tick(next_deadline_);
    next_deadline_ = next_deadline_ + config_.probe.interval;
  }
}

void AdmissionGate::tick(util::SimTime at) {
  std::uint64_t delivered = 0;
  std::uint64_t wasted = 0;
  if (goodput_source_) goodput_source_(delivered, wasted);
  const std::uint64_t delivered_delta =
      delivered >= last_delivered_ ? delivered - last_delivered_ : 0;
  const std::uint64_t wasted_delta = wasted >= last_wasted_ ? wasted - last_wasted_ : 0;
  last_delivered_ = delivered;
  last_wasted_ = wasted;
  const std::uint64_t goodput =
      delivered_delta > wasted_delta ? delivered_delta - wasted_delta : 0;
  const bool saturated = data_.take_saturated();

  ++stats_.probes;
  const std::uint32_t before = data_.size();
  ProbeRecord record;
  record.at = at;
  record.from_size = before;
  record.goodput = goodput;

  if (config_.probing) {
    const ThroughputProbe::Outcome outcome = probe_.on_interval(goodput, saturated);
    record.decision = outcome.decision;
    record.to_size = outcome.size;
    record.ewma_milli = static_cast<std::int64_t>(std::llround(outcome.ewma * 1000.0));
    if (outcome.size != before) {
      data_.resize(outcome.size);
      ++stats_.resizes;
      if (resize_listener_) resize_listener_(outcome.size);
    }
  } else {
    record.decision = ProbeDecision::kHold;
    record.to_size = before;
    record.ewma_milli = static_cast<std::int64_t>(goodput) * 1000;
  }

  if (journal_.size() < config_.journal_limit) journal_.push_back(record);
}

void AdmissionGate::set_metrics(obs::MetricsRegistry& registry) {
  if (metrics_ != nullptr) metrics_->remove_collector(collector_id_);
  metrics_ = &registry;
  collector_id_ = registry.add_collector([this](obs::SnapshotBuilder& out) { collect(out); });
}

void AdmissionGate::collect(obs::SnapshotBuilder& out) const {
  out.gauge("garnet.admission.tickets", static_cast<double>(data_.size()),
            {{"pool", "data"}});
  out.gauge("garnet.admission.holders", static_cast<double>(data_.holders()),
            {{"pool", "data"}});
  out.gauge("garnet.admission.goodput", probe_.ewma());
  out.counter("garnet.admission.probes", stats_.probes);
  out.counter("garnet.admission.resizes", stats_.resizes);
  out.counter("garnet.admission.admitted", stats_.data_admitted, {{"pool", "data"}});
  out.counter("garnet.admission.rejected", stats_.data_rejected, {{"pool", "data"}});
}

std::string AdmissionGate::journal_text() const {
  std::string out;
  for (const ProbeRecord& record : journal_) {
    out += render_probe_record(record);
  }
  return out;
}

}  // namespace garnet::net
