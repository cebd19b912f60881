// Move-only, small-buffer `void()` callable for scheduler events.
//
// std::function heap-allocates any capture larger than two pointers, and
// every radio copy, bus hop and sensor timer is one event. EventFn keeps
// closures up to kInlineBytes in an inline buffer and falls back to the
// heap only beyond that, so the hot events cost no allocation. It is
// move-only, so closures may capture move-only state.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace garnet::sim {

class EventFn {
 public:
  /// Inline capacity; sized for the largest hot closure (a bus envelope
  /// plus its MessageBus pointer).
  static constexpr std::size_t kInlineBytes = 64;

  /// True when a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  EventFn() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> && std::is_invocable_v<D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert implicitly
    if constexpr (std::is_constructible_v<bool, const D&>) {
      if (!static_cast<bool>(f)) return;  // empty std::function / null pointer stays empty
    }
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Destroys the held callable, leaving the EventFn empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Whether the held callable lives on the heap (it exceeded the buffer).
  [[nodiscard]] bool heap_allocated() const noexcept { return ops_ != nullptr && ops_->heap; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `to` and destroys the source.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool heap;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*std::launder(static_cast<D*>(s)))(); },
      [](void* from, void* to) noexcept {
        D* source = std::launder(static_cast<D*>(from));
        ::new (to) D(std::move(*source));
        source->~D();
      },
      [](void* s) noexcept { std::launder(static_cast<D*>(s))->~D(); },
      false,
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s) { (**static_cast<D**>(s))(); },
      [](void* from, void* to) noexcept { ::new (to) D*(*static_cast<D**>(from)); },
      [](void* s) noexcept { delete *static_cast<D**>(s); },
      true,
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace garnet::sim
