// Typed value carried by a socket message, a READ completion or a memory
// region's reader/writer: request descriptors, load snapshots, inbox
// images, published shard views. Modelled on sim::InlineFn's ops table.
//
// Trivially copyable values up to kInlineBytes live inline, so moving a
// Payload is one fixed-size copy and never touches the heap; larger or
// non-trivially-copyable values (ShardView, AlarmView,
// telemetry::Snapshot, ganglia's MetricPacket) are boxed once, and a move
// hands the box over. The value types live above net (web, monitor,
// cluster), which is why this is type-erased rather than a closed
// std::variant.
//
// Access is checked: get<T>() on a Payload holding another type (or
// nothing) throws BadPayloadCast, exactly like std::any_cast.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <typeinfo>
#include <utility>

namespace rdmamon::net {

/// Thrown by Payload::get<T>() when the payload does not hold a T.
class BadPayloadCast : public std::bad_cast {
 public:
  const char* what() const noexcept override {
    return "net::Payload: wrong type";
  }
};

class Payload {
 public:
  /// Inline capacity: web::Request (64 B), web::Reply (16 B),
  /// os::LoadSnapshot (120 B) and monitor::InboxWrite (160 B) fit; the
  /// users static_assert it next to their types.
  static constexpr std::size_t kInlineBytes = 160;

  /// True when a T is stored inline (no allocation, memcpy moves).
  template <typename T>
  static constexpr bool fits_inline =
      std::is_trivially_copyable_v<T> && sizeof(T) <= kInlineBytes &&
      alignof(T) <= alignof(std::max_align_t);

  Payload() noexcept {}  // NOLINT: buf_ stays unset until a value lands

  template <typename T, typename V = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<V, Payload>>>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor): value sink
    if constexpr (fits_inline<V>) {
      ::new (static_cast<void*>(buf_)) V(std::forward<T>(value));
    } else {
      *reinterpret_cast<V**>(buf_) = new V(std::forward<T>(value));
    }
    ops_ = &kOps<V>;
  }

  Payload(Payload&& o) noexcept : ops_(std::exchange(o.ops_, nullptr)) {
    if (ops_ != nullptr) std::memcpy(buf_, o.buf_, kInlineBytes);
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = std::exchange(o.ops_, nullptr);
      if (ops_ != nullptr) std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    return *this;
  }
  Payload(const Payload& o) { copy_from(o); }
  Payload& operator=(const Payload& o) {
    if (this != &o) {
      reset();
      copy_from(o);
    }
    return *this;
  }
  ~Payload() { reset(); }

  bool has_value() const noexcept { return ops_ != nullptr; }

  template <typename T>
  bool holds() const noexcept {
    return ops_ == &kOps<T> || (ops_ != nullptr && *ops_->type == typeid(T));
  }

  /// The held T; throws BadPayloadCast if the payload holds no T.
  template <typename T>
  const T& get() const {
    if (!holds<T>()) throw BadPayloadCast{};
    if constexpr (fits_inline<T>) {
      return *std::launder(reinterpret_cast<const T*>(buf_));
    } else {
      return **reinterpret_cast<T* const*>(buf_);
    }
  }

  /// Destroys the held value (if any); *this becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    const std::type_info* type;
    /// Boxed values only (null for inline ones, which memcpy and need no
    /// destructor).
    void (*destroy)(void* buf) noexcept;
    void (*clone)(const void* src, void* dst);
  };

  template <typename T>
  static constexpr Ops kOps =
      fits_inline<T>
          ? Ops{&typeid(T), nullptr, nullptr}
          : Ops{&typeid(T),
                [](void* buf) noexcept { delete *static_cast<T**>(buf); },
                [](const void* src, void* dst) {
                  *static_cast<T**>(dst) =
                      new T(**static_cast<T* const*>(src));
                }};

  /// Precondition: *this is empty.
  void copy_from(const Payload& o) {
    if (o.ops_ == nullptr) return;
    if (o.ops_->clone != nullptr) {
      o.ops_->clone(o.buf_, buf_);
    } else {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    ops_ = o.ops_;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace rdmamon::net
