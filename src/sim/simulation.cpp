#include "sim/simulation.hpp"

namespace rdmamon::sim {

void Simulation::run() {
  stop_requested_ = false;
  // The queue advances the clock BEFORE running each callback, so event
  // bodies observe now() == their own timestamp.
  while (!stop_requested_ &&
         queue_.run_next_until(EventQueue::kNoDeadline, &now_)) {
  }
}

void Simulation::run_until(TimePoint deadline) {
  stop_requested_ = false;
  while (!stop_requested_ && queue_.run_next_until(deadline, &now_)) {
  }
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
}

}  // namespace rdmamon::sim
