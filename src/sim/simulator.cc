// Copyright (c) 2026 madnet authors. All rights reserved.

#include "sim/simulator.h"

#include "util/logging.h"


namespace madnet::sim {

EventId Simulator::Schedule(Time delay, EventQueue::Callback callback) {
  if (delay < 0.0) delay = 0.0;
  return queue_.Push(now_ + delay, std::move(callback));
}

EventId Simulator::ScheduleAt(Time when, EventQueue::Callback callback) {
  if (when < now_) when = now_;
  return queue_.Push(when, std::move(callback));
}

EventId Simulator::Reschedule(EventId id, Time when) {
  if (when < now_) when = now_;
  return queue_.Reschedule(id, when);
}

EventId Simulator::ScheduleRunAt(std::span<Time> when,
                                 EventQueue::RunCallback fire) {
  for (Time& t : when) {
    if (t < now_) t = now_;
  }
  return queue_.PushRun(when.data(), static_cast<uint32_t>(when.size()),
                        std::move(fire));
}

bool Simulator::Step() {
  if (queue_.Empty()) return false;
  auto [when, firing] = queue_.Pop();
  MADNET_DCHECK(when >= now_ && "event queue went backwards in time");
  now_ = when;
  ++executed_;
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceEvent)) {
    trace_->Event(now_, executed_);
  }
  firing();
  return true;
}

uint64_t Simulator::RunUntil(Time until) {
  uint64_t count = 0;
  while (!queue_.Empty() && queue_.NextTime() <= until) {
    Step();
    ++count;
  }
  // Advance the clock to the horizon so successive RunUntil calls compose.
  if (until > now_ && until != std::numeric_limits<Time>::infinity()) {
    now_ = until;
  }
  return count;
}

void Simulator::Reset() {
  queue_.Clear();
  now_ = 0.0;
  executed_ = 0;
}

}  // namespace madnet::sim
