// FIFO queue over a power-of-two circular buffer that keeps its capacity.
// The simulator's hot queues (socket receive queues, run queues, wait
// queues, IRQ and softirq queues, the web server's backlog) fill and drain
// thousands of times per simulated second; std::deque frees and
// reallocates a 512-byte chunk each time the cycle crosses a chunk
// boundary, while a RingQueue allocates only when it grows past its
// largest size so far. An empty, never-used RingQueue holds no storage.
//
// Element order is exactly std::deque's: push_back appends, pop_front
// removes the oldest, erase keeps the relative order of the rest.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace rdmamon::sim {

template <typename T>
class RingQueue {
  template <bool Const>
  class Iter {
    using Q = std::conditional_t<Const, const RingQueue, RingQueue>;

   public:
    using value_type = T;
    using reference = std::conditional_t<Const, const T&, T&>;
    Iter(Q* q, std::size_t i) : q_(q), i_(i) {}
    reference operator*() const { return (*q_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }
    bool operator!=(const Iter& o) const { return i_ != o.i_; }

   private:
    Q* q_;
    std::size_t i_;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  RingQueue() = default;
  RingQueue(RingQueue&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        cap_(std::exchange(o.cap_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  RingQueue& operator=(RingQueue&& o) noexcept {
    if (this != &o) {
      release();
      buf_ = std::exchange(o.buf_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;
  ~RingQueue() { release(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  /// Logical index: 0 is the front (oldest) element.
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (cap_ - 1)]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (cap_ - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(&buf_[(head_ + size_) & (cap_ - 1)]))
        T(std::move(v));
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Removes the element at logical index `i`, shifting the shorter side
  /// over the gap; the remaining elements keep their order.
  void erase(std::size_t i) {
    assert(i < size_);
    if (i < size_ / 2) {
      for (std::size_t j = i; j > 0; --j) {
        (*this)[j] = std::move((*this)[j - 1]);
      }
      pop_front();
      return;
    }
    for (std::size_t j = i; j + 1 < size_; ++j) {
      (*this)[j] = std::move((*this)[j + 1]);
    }
    back().~T();
    --size_;
  }

  /// Destroys every element; the capacity stays.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  void grow() {
    const std::size_t cap = cap_ == 0 ? 8 : 2 * cap_;
    T* buf = std::allocator<T>{}.allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& src = (*this)[i];
      ::new (static_cast<void*>(&buf[i])) T(std::move(src));
      src.~T();
    }
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  void release() {
    if (buf_ == nullptr) return;
    clear();
    std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = nullptr;
    cap_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;  ///< 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rdmamon::sim
