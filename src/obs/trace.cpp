#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace garnet::obs {

std::string Trace::to_string() const {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "%s %u/%u", key.domain == TraceKey::kActuation ? "act" : "msg",
                key.stream, key.sequence);
  std::string out = buffer;
  for (const Span& span : spans) {
    std::snprintf(buffer, sizeof buffer, " %s(%.3fms)", span.stage,
                  static_cast<double>(span.duration_ns()) / 1e6);
    out += buffer;
  }
  return out;
}

Tracer::Tracer(Config config)
    : config_(config), completed_(config.recorder_capacity > 0 ? config.recorder_capacity : 1) {}

// --- index -----------------------------------------------------------------

std::size_t Tracer::home(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> index_shift_);
}

std::uint32_t Tracer::find(std::uint64_t key) const noexcept {
  if (index_.empty()) return kNoSlot;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const IndexEntry& entry = index_[i];
    if (entry.slot == kNoSlot || entry.key == key) return entry.slot;
  }
}

void Tracer::index_insert(std::uint64_t key, std::uint32_t slot) {
  if (2 * (active_ + 1) > index_.size()) {
    std::vector<IndexEntry> old = std::move(index_);
    const std::size_t size = old.empty() ? 64 : 2 * old.size();
    index_.assign(size, IndexEntry{});
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
    for (const IndexEntry& entry : old) {
      if (entry.slot != kNoSlot) index_insert(entry.key, entry.slot);
    }
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(key);
  while (index_[i].slot != kNoSlot) i = (i + 1) & mask;
  index_[i] = {key, slot};
}

void Tracer::index_erase(std::uint64_t key, std::uint32_t slot) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(key);
  while (index_[hole].slot != slot) hole = (hole + 1) & mask;
  // Backward-shift: pull each later entry of the run into the hole when
  // the hole lies on its probe path, so no tombstones are needed.
  for (std::size_t i = (hole + 1) & mask; index_[i].slot != kNoSlot; i = (i + 1) & mask) {
    if (((i - home(index_[i].key)) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole].slot = kNoSlot;
}

// --- slot pool --------------------------------------------------------------

std::uint32_t Tracer::start(TraceKey key, std::int64_t now_ns) {
  const std::size_t cap = config_.max_active > 0 ? config_.max_active : 1;
  if (active_ >= cap) {
    // Abandon the oldest still-active trace to make room.
    release(oldest_);
    ++stats_.abandoned;
  }
  std::uint32_t slot = free_;
  if (slot != kNoSlot) {
    free_ = slots_[slot].newer;
  } else {
    // Free list empty: every slot is active, so slots_.size() < cap.
    if (slots_.size() == slots_.capacity()) {
      slots_.reserve(std::min(cap, std::max<std::size_t>(8, 2 * slots_.size())));
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& entry = slots_[slot];
  entry.trace = Trace{};
  entry.trace.key = key;
  entry.trace.begin_ns = now_ns;
  entry.older = newest_;
  entry.newer = kNoSlot;
  if (newest_ != kNoSlot) {
    slots_[newest_].newer = slot;
  } else {
    oldest_ = slot;
  }
  newest_ = slot;
  index_insert(key.packed(), slot);
  ++active_;
  ++stats_.started;
  return slot;
}

void Tracer::release(std::uint32_t slot) noexcept {
  Slot& entry = slots_[slot];
  (entry.older != kNoSlot ? slots_[entry.older].newer : oldest_) = entry.newer;
  (entry.newer != kNoSlot ? slots_[entry.newer].older : newest_) = entry.older;
  index_erase(entry.trace.key.packed(), slot);
  --active_;
  entry.older = kNoSlot;
  entry.newer = free_;
  free_ = slot;
}

// --- spans ------------------------------------------------------------------

void Tracer::begin_span(TraceKey key, const char* stage, std::int64_t now_ns) {
  if (!config_.enabled) return;
  std::uint32_t slot = find(key.packed());
  if (slot == kNoSlot) slot = start(key, now_ns);
  ++stats_.spans;
  if (!slots_[slot].trace.spans.push_back(Span{stage, now_ns, -1})) ++stats_.spans_dropped;
}

void Tracer::end_span(TraceKey key, const char* stage, std::int64_t now_ns) {
  if (!config_.enabled) return;
  const std::uint32_t slot = find(key.packed());
  if (slot != kNoSlot) close_span(slots_[slot].trace, stage, now_ns);
}

void Tracer::close_span(Trace& trace, const char* stage, std::int64_t now_ns) {
  for (std::size_t i = trace.spans.size(); i > 0; --i) {
    Span& span = trace.spans[i - 1];
    if (!span.open() || std::strcmp(span.stage, stage) != 0) continue;
    span.end_ns = now_ns;
    if (registry_ != nullptr) {
      stage_histogram(stage).observe(static_cast<double>(span.duration_ns()));
    }
    return;
  }
}

Histogram& Tracer::stage_histogram(const char* stage) {
  for (const StageHistogram& entry : stage_histograms_) {
    if (entry.stage == stage) return *entry.histogram;
  }
  Histogram* histogram = nullptr;
  for (const StageHistogram& entry : stage_histograms_) {
    if (std::strcmp(entry.stage, stage) == 0) histogram = entry.histogram;
  }
  if (histogram == nullptr) {
    histogram = &registry_->histogram(kStageLatencyMetric, Histogram::Layout::latency_ns(),
                                      {{"stage", stage}});
  }
  stage_histograms_.push_back({stage, histogram});
  return *histogram;
}

void Tracer::complete(TraceKey key, std::int64_t now_ns, const char* closing_stage) {
  if (!config_.enabled) return;
  const std::uint32_t slot = find(key.packed());
  if (slot == kNoSlot) return;
  Trace& trace = slots_[slot].trace;
  if (closing_stage != nullptr) close_span(trace, closing_stage, now_ns);
  for (Span& span : trace.spans) {
    if (span.open()) span.end_ns = now_ns;
  }
  trace.end_ns = now_ns;
  completed_.push(trace);
  release(slot);
  ++stats_.completed;
}

void Tracer::discard(TraceKey key) {
  const std::uint32_t slot = find(key.packed());
  if (slot == kNoSlot) return;
  release(slot);
  ++stats_.discarded;
}

std::vector<Trace> Tracer::completed_snapshot() const {
  std::vector<Trace> out;
  out.reserve(completed_.size());
  for (std::size_t i = 0; i < completed_.size(); ++i) out.push_back(completed_.at(i));
  return out;
}

const Trace* Tracer::find_completed(TraceKey key) const {
  for (std::size_t i = completed_.size(); i > 0; --i) {
    const Trace& trace = completed_.at(i - 1);
    if (trace.key == key) return &trace;
  }
  return nullptr;
}

void Tracer::clear() {
  free_ = kNoSlot;
  for (std::uint32_t slot = static_cast<std::uint32_t>(slots_.size()); slot > 0; --slot) {
    slots_[slot - 1].newer = free_;
    free_ = slot - 1;
  }
  oldest_ = newest_ = kNoSlot;
  active_ = 0;
  std::fill(index_.begin(), index_.end(), IndexEntry{});
  completed_.clear();
}

}  // namespace garnet::obs
