#include "telemetry/span.hpp"

namespace rdmamon::telemetry {

void SpanTracer::set_capacity(std::size_t cap) {
  capacity_ = cap;
  while (finished_.size() > capacity_) {
    finished_.pop_front();
    ++dropped_;
  }
}

SpanId SpanTracer::begin(std::string_view component, std::string_view name,
                         SpanId cause) {
  Span s;
  s.id = next_id_++;
  s.cause = cause.id;
  s.component = component;
  s.name = name;
  s.begin = now();
  ++started_;
  const std::uint64_t id = s.id;
  open_.emplace(id, std::move(s));
  return SpanId{id};
}

void SpanTracer::note(SpanId id, std::string text) {
  auto it = open_.find(id.id);
  if (it != open_.end()) it->second.notes.push_back(std::move(text));
}

void SpanTracer::end(SpanId id, std::string_view outcome) {
  auto it = open_.find(id.id);
  if (it == open_.end()) return;
  Span s = std::move(it->second);
  open_.erase(it);
  s.end = now();
  s.outcome = outcome;
  finished_.push_back(std::move(s));
  if (finished_.size() > capacity_) {
    finished_.pop_front();
    ++dropped_;
  }
}

SpanId SpanTracer::event(std::string_view component, std::string_view name,
                         std::string note_text, SpanId cause) {
  const SpanId id = begin(component, name, cause);
  if (!note_text.empty()) note(id, std::move(note_text));
  end(id, "event");
  return id;
}

const Span* SpanTracer::find_finished(SpanId id) const {
  for (const Span& s : finished_) {
    if (s.id == id.id) return &s;
  }
  return nullptr;
}

void SpanTracer::clear() {
  open_.clear();
  finished_.clear();
  started_ = 0;
  dropped_ = 0;
}

}  // namespace rdmamon::telemetry
