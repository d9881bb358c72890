#include "sim/event_queue.h"

#include <memory>
#include <stdexcept>

namespace verdict::sim {

void EventQueue::schedule_at(double time, Callback fn) {
  if (time < now_) throw std::invalid_argument("EventQueue: scheduling into the past");
  queue_.push(Event{time, next_seq_++, std::move(fn)});
}

void EventQueue::schedule_in(double delay, Callback fn) {
  schedule_at(now_ + delay, std::move(fn));
}

namespace {

/// Re-arming wrapper: each firing schedules a copy of itself. The queued
/// copy is its only owner, so a wrapper that captured itself (a reference
/// cycle) is not needed and nothing outlives the queue.
struct Rearm {
  EventQueue* queue;
  double period;
  std::shared_ptr<const EventQueue::Callback> fn;

  void operator()() const {
    (*fn)();
    queue->schedule_in(period, *this);
  }
};

}  // namespace

void EventQueue::schedule_every(double period, Callback fn) {
  if (period <= 0) throw std::invalid_argument("EventQueue: non-positive period");
  schedule_in(period, Rearm{this, period, std::make_shared<const Callback>(std::move(fn))});
}

std::size_t EventQueue::run_until(double t_end) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.top().time <= t_end) {
    Event event = queue_.top();
    queue_.pop();
    now_ = event.time;
    event.fn();
    ++executed;
  }
  if (now_ < t_end) now_ = t_end;
  return executed;
}

}  // namespace verdict::sim
