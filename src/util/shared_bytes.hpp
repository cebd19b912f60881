// Immutable, refcounted byte buffers for the zero-copy payload path.
//
// A SharedBytes is a cheap handle onto one heap allocation: copying the
// handle bumps a refcount, and view(offset, length) produces a sub-view
// sharing the same allocation. Once wrapped, the bytes are immutable —
// every reader (bus fan-out copies, fault-injector duplicates, RPC retry
// frames, dedup-cache replays, consumer-side payload views) aliases the
// same memory safely, for as long as any handle lives.
//
// The payload accounting counters make the discipline observable: every
// buffer entering the shared domain counts one allocation, and every
// escape back to owned bytes (to_owned_copy / copy_of) counts one copy.
// The bus's telemetry collector exposes them as garnet.bus.payload_*;
// tests and benches pin "1 allocation, ~0 copies per dispatched message"
// against them (see docs/PERFORMANCE.md).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/bytes.hpp"

namespace garnet::util {

/// Process-wide payload accounting, read by pull collectors. Relaxed
/// atomics: the counts are exact in the single-threaded simulator and
/// race-free (merely unordered) elsewhere.
struct PayloadStats {
  std::uint64_t allocations = 0;      ///< Buffers that entered the shared domain.
  std::uint64_t allocation_bytes = 0; ///< Total bytes of those buffers.
  std::uint64_t copies = 0;           ///< Byte copies in or out of the domain.
};

[[nodiscard]] PayloadStats payload_stats() noexcept;

class SharedBytes {
 public:
  /// Empty buffer; no allocation.
  SharedBytes() = default;

  /// Adopts an already-built byte vector without copying it — the
  /// canonical entry point ("encode once"). Counts one allocation.
  SharedBytes(Bytes&& bytes);  // NOLINT(google-explicit-constructor)

  /// Allocates a new buffer and copies `data` into it. Counts one
  /// allocation and one copy — use adopt (the Bytes&& constructor) when
  /// the source can be moved instead.
  [[nodiscard]] static SharedBytes copy_of(BytesView data);

  // Handle copies and moves share the allocation; nothing is counted.
  SharedBytes(const SharedBytes&) = default;
  SharedBytes& operator=(const SharedBytes&) = default;
  SharedBytes(SharedBytes&&) noexcept = default;
  SharedBytes& operator=(SharedBytes&&) noexcept = default;

  /// Sub-view [offset, offset + length) sharing this allocation.
  /// Precondition: offset + length <= size().
  [[nodiscard]] SharedBytes view(std::size_t offset, std::size_t length) const {
    assert(offset + length <= length_ && "SharedBytes::view out of range");
    SharedBytes out;
    out.owner_ = owner_;
    out.data_ = data_ + offset;
    out.length_ = length;
    return out;
  }

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return length_; }
  [[nodiscard]] bool empty() const noexcept { return length_ == 0; }

  [[nodiscard]] BytesView span() const noexcept { return {data_, length_}; }
  operator BytesView() const noexcept { return span(); }  // NOLINT

  /// Materialises an owned copy of the bytes (for callers that must
  /// mutate or outlive every handle). Counts one copy.
  [[nodiscard]] Bytes to_owned_copy() const;

  /// Handles (including sub-views) currently sharing the allocation;
  /// 0 for an empty buffer. Test/diagnostic aid.
  [[nodiscard]] long use_count() const noexcept { return owner_.use_count(); }

 private:
  std::shared_ptr<const Bytes> owner_;
  const std::byte* data_ = nullptr;
  std::size_t length_ = 0;
};

/// Appends the writer's bytes as a freshly adopted shared buffer. With an
/// exact-size ByteWriter reservation this is the path's single
/// allocation.
[[nodiscard]] inline SharedBytes take_shared(ByteWriter&& writer) {
  return SharedBytes(std::move(writer).take());
}

/// Copies `data` out of the shared domain into a fresh owned vector,
/// counting one copy (the accounting twin of to_owned_copy for callers
/// that hold a view rather than a handle).
[[nodiscard]] Bytes counted_copy(BytesView data);

}  // namespace garnet::util
