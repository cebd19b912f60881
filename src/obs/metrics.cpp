#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace garnet::obs {

std::string label_string(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

namespace {

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(Layout layout) : layout_(layout) {
  assert(layout.first_bound > 0 && layout.growth > 1.0 && layout.buckets > 0);
  bounds_.reserve(layout.buckets);
  double bound = layout.first_bound;
  for (std::size_t i = 0; i < layout.buckets; ++i) {
    bounds_.push_back(bound);
    bound *= layout.growth;
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);

  // Bounds ascend and are positive, and so are their bit patterns, so the
  // cells between the first and last bound's cover every value that can
  // land in a bucket other than 0 or the overflow. A bound is at or above
  // a cell's lowest value exactly when the bound's cell is at or past it,
  // so each cell gets the first bucket whose bound's cell reaches it.
  const auto cell_of = [](double v) { return std::bit_cast<std::uint64_t>(v) >> kCellShift; };
  first_cell_ = cell_of(bounds_.front());
  cells_.resize(cell_of(bounds_.back()) - first_cell_ + 1);
  std::size_t k = 0;
  for (std::size_t bucket = 0; bucket < bounds_.size(); ++bucket) {
    const std::uint64_t reached = cell_of(bounds_[bucket]) - first_cell_;
    for (; k <= reached; ++k) cells_[k] = static_cast<std::uint32_t>(bucket);
  }
}

std::size_t Histogram::bucket_of(double v) const noexcept {
  if (!(v > bounds_.front())) return 0;  // also ±0, negatives, -inf and NaN
  if (v > bounds_.back()) return bounds_.size();
  // Every bound below cells_[k] is below the cell's lowest value, and the
  // last bound is >= v, so the scan stops inside the array.
  std::size_t i = cells_[(std::bit_cast<std::uint64_t>(v) >> kCellShift) - first_cell_];
  while (bounds_[i] < v) ++i;
  return i;
}

void Histogram::observe(double v) noexcept {
#ifndef NDEBUG
  const bool overlapped = writing_.exchange(true, std::memory_order_acquire);
  assert(!overlapped && "Histogram::observe has one writer thread");
#endif
  // One writer: each field is a relaxed load plus a relaxed store. A
  // concurrent snapshot sees each field untorn, at most one observation
  // behind the others.
  std::atomic<std::uint64_t>& bucket = counts_[bucket_of(v)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  count_.store(count_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  sum_.store(sum_.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  if (v < min_.load(std::memory_order_relaxed)) min_.store(v, std::memory_order_relaxed);
  if (v > max_.load(std::memory_order_relaxed)) max_.store(v, std::memory_order_relaxed);
#ifndef NDEBUG
  writing_.store(false, std::memory_order_release);
#endif
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  // A concurrent first observation may have published its count but not
  // yet its range; then the snapshot keeps the unclamped defaults.
  const double low = min_.load(std::memory_order_relaxed);
  const double high = max_.load(std::memory_order_relaxed);
  if (low <= high) {
    snap.min = low;
    snap.max = high;
  }
  return snap;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  return std::max(min, std::min(max, interpolated_quantile(q)));
}

double HistogramSnapshot::interpolated_quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto before = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();  // overflow bucket
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double fraction = (rank - before) / static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

// --- Samples / snapshot -----------------------------------------------------

double Sample::numeric() const {
  switch (kind) {
    case InstrumentKind::kCounter: return static_cast<double>(counter);
    case InstrumentKind::kGauge: return gauge;
    case InstrumentKind::kHistogram: return static_cast<double>(histogram.count);
  }
  return 0.0;
}

const Sample* MetricsSnapshot::find(std::string_view name, const Labels& labels) const {
  const Labels wanted = canonical(labels);
  for (const Sample& sample : samples) {
    if (sample.name == name && sample.labels == wanted) return &sample;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name, const Labels& labels) const {
  const Sample* sample = find(name, labels);
  return sample && sample->kind == InstrumentKind::kCounter ? sample->counter : 0;
}

double MetricsSnapshot::gauge(std::string_view name, const Labels& labels) const {
  const Sample* sample = find(name, labels);
  return sample && sample->kind == InstrumentKind::kGauge ? sample->gauge : 0.0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(std::string_view name,
                                                    const Labels& labels) const {
  const Sample* sample = find(name, labels);
  return sample && sample->kind == InstrumentKind::kHistogram ? &sample->histogram : nullptr;
}

void SnapshotBuilder::counter(std::string name, std::uint64_t value, Labels labels) {
  Sample sample;
  sample.name = std::move(name);
  sample.labels = canonical(std::move(labels));
  sample.kind = InstrumentKind::kCounter;
  sample.counter = value;
  out_.push_back(std::move(sample));
}

void SnapshotBuilder::gauge(std::string name, double value, Labels labels) {
  Sample sample;
  sample.name = std::move(name);
  sample.labels = canonical(std::move(labels));
  sample.kind = InstrumentKind::kGauge;
  sample.gauge = value;
  out_.push_back(std::move(sample));
}

// --- Registry ---------------------------------------------------------------

MetricsRegistry::Entry& MetricsRegistry::entry_for(const std::string& name, Labels labels,
                                                   InstrumentKind kind) {
  labels = canonical(std::move(labels));
  const std::string key = name + label_string(labels);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("metric '" + key + "' already registered as a different kind");
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.name = name;
  entry.labels = std::move(labels);
  return entries_.emplace(key, std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  Entry& entry = entry_for(name, std::move(labels), InstrumentKind::kCounter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  Entry& entry = entry_for(name, std::move(labels), InstrumentKind::kGauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, Histogram::Layout layout,
                                      Labels labels) {
  Entry& entry = entry_for(name, std::move(labels), InstrumentKind::kHistogram);
  if (!entry.histogram) {
    entry.histogram = std::make_unique<Histogram>(layout);
  } else if (!(entry.histogram->layout() == layout)) {
    throw std::logic_error("histogram '" + name + "' already registered with another layout");
  }
  return *entry.histogram;
}

MetricsRegistry::CollectorId MetricsRegistry::add_collector(Collector collector) {
  const CollectorId id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(collector));
  return id;
}

void MetricsRegistry::remove_collector(CollectorId id) {
  std::erase_if(collectors_, [id](const auto& entry) { return entry.first == id; });
}

MetricsSnapshot MetricsRegistry::snapshot(std::uint64_t now_ns) const {
  MetricsSnapshot snap;
  snap.captured_at_ns = now_ns;
  snap.samples.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    Sample sample;
    sample.name = entry.name;
    sample.labels = entry.labels;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case InstrumentKind::kCounter: sample.counter = entry.counter->value(); break;
      case InstrumentKind::kGauge: sample.gauge = entry.gauge->value(); break;
      case InstrumentKind::kHistogram: sample.histogram = entry.histogram->snapshot(); break;
    }
    snap.samples.push_back(std::move(sample));
  }
  SnapshotBuilder builder(snap.samples);
  for (const auto& [id, collector] : collectors_) collector(builder);
  std::sort(snap.samples.begin(), snap.samples.end(), [](const Sample& a, const Sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return snap;
}

}  // namespace garnet::obs
