// The tracer's write path allocates nothing once warm: spans are inline,
// active traces reuse pooled slots, and the flight recorder overwrites
// its oldest entry. Counted with a replaced global operator new, so the
// whole test binary counts; the test reads the difference around the
// measured loop only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/trace.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

/// Out of line, so the compiler never pairs an inlined `new` expression
/// with a bare free() and warns about a mismatch.
[[gnu::noinline]] void plain_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_malloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { plain_free(p); }
void operator delete[](void* p) noexcept { plain_free(p); }
void operator delete(void* p, std::size_t) noexcept { plain_free(p); }
void operator delete[](void* p, std::size_t) noexcept { plain_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { plain_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { plain_free(p); }

namespace garnet::obs {
namespace {

/// One data-path journey: radio -> filter -> dispatch -> deliver.
void journey(Tracer& tracer, TraceKey key, std::int64_t t) {
  tracer.begin_span(key, "radio", t);
  tracer.end_span(key, "radio", t + 10);
  tracer.begin_span(key, "filter", t + 10);
  tracer.end_span(key, "filter", t + 20);
  tracer.begin_span(key, "dispatch", t + 20);
  tracer.end_span(key, "dispatch", t + 30);
  tracer.begin_span(key, "deliver", t + 30);
  tracer.complete(key, t + 40, "deliver");
}

TraceKey data_key(std::uint32_t i) {
  return {1 + (i >> 16), static_cast<std::uint16_t>(i & 0xFFFF)};
}

TEST(TracerAllocations, WarmTracerAllocatesNothingPerMessage) {
  MetricsRegistry registry;
  Tracer::Config config;
  config.max_active = 64;
  Tracer tracer(config);
  tracer.bind_metrics(&registry);

  // Warm-up: fill the flight recorder, register the stage histograms,
  // and grow the slot pool and index to their high-water mark.
  for (std::uint32_t i = 0; i < 2 * config.recorder_capacity; ++i) journey(tracer, data_key(i), i);
  const auto open_key = [](std::uint32_t i) { return TraceKey{0xF0000 + i, 0}; };
  for (std::uint32_t i = 0; i < config.max_active + 8; ++i) {
    tracer.begin_span(open_key(i), "radio", 0);
  }
  for (std::uint32_t i = 0; i < config.max_active + 8; ++i) tracer.discard(open_key(i));
  ASSERT_EQ(tracer.active_count(), 0u);
  ASSERT_EQ(tracer.stats().abandoned, 8u);

  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t i = 0; i < 100'000; ++i) journey(tracer, data_key(i), i);
  for (std::uint32_t i = 0; i < config.max_active + 1000; ++i) {
    tracer.begin_span(open_key(i), "radio", 0);  // past the cap each abandons the oldest
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);

  EXPECT_EQ(tracer.stats().abandoned, 8u + 1000u);
  EXPECT_EQ(tracer.stats().completed, 2 * config.recorder_capacity + 100'000);
  EXPECT_EQ(tracer.active_count(), config.max_active);
  EXPECT_EQ(tracer.completed().size(), config.recorder_capacity);
}

}  // namespace
}  // namespace garnet::obs
