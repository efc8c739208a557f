// Small-buffer-optimized, move-only callable: the event queue's callback
// type. `std::function` heap-allocates every capture over ~16 bytes and
// drags in copy machinery the simulator never uses; InlineFn stores up to
// kInlineBytes of captures in place (enough for every hot-path lambda in
// src/os and src/net) and falls back to one heap box only for oversized
// cold-path captures. Moving an InlineFn moves the wrapped callable —
// no refcounts, no atomics, no allocation.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rdmamon::sim {

class InlineFn {
 public:
  /// Inline capture budget. Sized so `[this, &x, a few scalars]` and a
  /// moved-in std::function both fit; measured against the schedulers'
  /// and NICs' actual lambdas (see bench_engine's alloc counter).
  static constexpr std::size_t kInlineBytes = 48;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT: empty, like std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): callback sink
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &boxed_ops<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  /// Destroys the wrapped callable (if any); *this becomes empty.
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Invokes the wrapped callable. Precondition: *this is non-empty.
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst) noexcept;  // move + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); },
      [](void* src, void* dst) noexcept {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }};

  template <typename Fn>
  static constexpr Ops boxed_ops = {
      [](void* p) { (**reinterpret_cast<Fn**>(p))(); },
      [](void* src, void* dst) noexcept {
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      },
      [](void* p) noexcept { delete *reinterpret_cast<Fn**>(p); }};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

}  // namespace rdmamon::sim
