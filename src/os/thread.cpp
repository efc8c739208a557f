#include "os/thread.hpp"

#include <cassert>
#include <new>

#include "os/wait.hpp"

namespace rdmamon::os {

namespace {

#if RDMAMON_POOL_FRAMES
/// Free coroutine frames, one list per 16-byte size class up to 2 KiB.
/// A freed frame's first word links the list. Frames are never returned
/// to the heap: the pool holds the peak number of frames alive at once.
constexpr std::size_t kFrameGranule = 16;
constexpr std::size_t kFrameClasses = 128;
struct FreeFrame {
  FreeFrame* next;
};
thread_local FreeFrame* free_frames[kFrameClasses];
#endif

}  // namespace

void* ProgramPromise::operator new(std::size_t bytes) {
#if RDMAMON_POOL_FRAMES
  const std::size_t cls = (bytes + kFrameGranule - 1) / kFrameGranule;
  if (cls < kFrameClasses) {
    if (FreeFrame* f = free_frames[cls]) {
      free_frames[cls] = f->next;
      return f;
    }
    return ::operator new(cls * kFrameGranule);
  }
#endif
  return ::operator new(bytes);
}

void ProgramPromise::operator delete(void* p, std::size_t bytes) noexcept {
#if RDMAMON_POOL_FRAMES
  const std::size_t cls = (bytes + kFrameGranule - 1) / kFrameGranule;
  if (cls < kFrameClasses) {
    free_frames[cls] = ::new (p) FreeFrame{free_frames[cls]};
    return;
  }
#endif
  ::operator delete(p, bytes);
}

SimThread::SimThread(ThreadId tid, std::string name, Node& node,
                     Scheduler& sched)
    : tid_(tid), name_(std::move(name)), node_(node), sched_(sched) {}

void SimThread::attach_factory(std::function<Program(SimThread&)> factory) {
  assert(!root_.valid());
  factory_ = std::move(factory);
  root_ = factory_(*this);
  root_.promise().thread = this;
  stack_.push_back(root_.handle());
}

Action SimThread::advance() {
  // Guard against runaway zero-time loops in thread bodies.
  for (int hops = 0; hops < 1'000'000; ++hops) {
    if (stack_.empty()) return ExitThread{};
    Program::Handle top = stack_.back();
    top.resume();
    if (top.done()) {
      // Subprogram (or root) finished. Pop it; its frame is destroyed by
      // the parent awaiter when the parent resumes (or by root_'s dtor).
      stack_.pop_back();
      if (stack_.empty()) return ExitThread{};
      continue;  // resume the parent next iteration
    }
    auto& p = top.promise();
    if (p.has_pending) {
      p.has_pending = false;
      return p.pending;
    }
    // No action pending: the coroutine suspended to push a child program;
    // the child is now on top of the stack. Loop to resume it.
    assert(stack_.back() != top);
  }
  assert(false && "thread body made no progress (infinite subprogram loop?)");
  return ExitThread{};
}

void ProgramPromise::ProgramAwaiter::await_suspend(
    std::coroutine_handle<>) noexcept {
  SimThread* t = parent->thread;
  child.promise().thread = t;
  t->push_frame(child.handle());
}

void WaitQueue::remove(SimThread* t) {
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    if (waiters_[i] == t) {
      waiters_.erase(i);
      return;
    }
  }
}

}  // namespace rdmamon::os
