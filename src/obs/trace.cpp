#include "obs/trace.hpp"

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

void Tracer::begin_span(TraceKey key, const char* stage, std::int64_t now_ns) {
  if (!config_.enabled) return;
  auto it = active_.find(key.packed());
  if (it == active_.end()) {
    if (active_.size() >= config_.max_active) evict_oldest_active();
    Trace trace;
    trace.key = key;
    trace.begin_ns = now_ns;
    it = active_.emplace(key.packed(), std::move(trace)).first;
    active_order_.push_back(key.packed());
    ++stats_.started;
  }
  it->second.spans.push_back(Span{stage, now_ns, -1});
  ++stats_.spans;
}

void Tracer::end_span(TraceKey key, const char* stage, std::int64_t now_ns) {
  if (!config_.enabled) return;
  const auto it = active_.find(key.packed());
  if (it == active_.end()) return;
  auto& spans = it->second.spans;
  for (auto span = spans.rbegin(); span != spans.rend(); ++span) {
    if (!span->open() || std::strcmp(span->stage, stage) != 0) continue;
    span->end_ns = now_ns;
    if (registry_ != nullptr) {
      stage_histogram(stage).observe(static_cast<double>(span->duration_ns()));
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

void Tracer::complete(TraceKey key, std::int64_t now_ns) {
  if (!config_.enabled) return;
  const auto it = active_.find(key.packed());
  if (it == active_.end()) return;
  Trace trace = std::move(it->second);
  active_.erase(it);
  for (Span& span : trace.spans) {
    if (span.open()) span.end_ns = now_ns;
  }
  trace.end_ns = now_ns;
  completed_.push(std::move(trace));
  ++stats_.completed;
}

void Tracer::discard(TraceKey key) {
  if (active_.erase(key.packed()) > 0) ++stats_.discarded;
}

void Tracer::evict_oldest_active() {
  while (!active_order_.empty()) {
    const std::uint64_t oldest = active_order_.front();
    active_order_.pop_front();
    if (active_.erase(oldest) > 0) {
      ++stats_.abandoned;
      return;
    }
    // Stale entry: that trace already completed or was discarded.
  }
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
  active_.clear();
  active_order_.clear();
  completed_.clear();
}

}  // namespace garnet::obs
