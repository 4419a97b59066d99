// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The discrete-event simulator driving every madnet scenario: a virtual
// clock plus an event queue. This is the repo's substitute for ns-2's
// scheduler — protocols only ever observe Now(), Schedule*() and event
// delivery, so the semantics they need are fully provided here.

#ifndef MADNET_SIM_SIMULATOR_H_
#define MADNET_SIM_SIMULATOR_H_

#include <cstdint>
#include <limits>
#include <span>

#include "obs/trace.h"
#include "sim/event_queue.h"
#include "util/status.h"

namespace madnet::sim {

/// Virtual-time event loop. Single-threaded; all callbacks run inline from
/// Run()/Step() in timestamp order (FIFO among equal timestamps).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time, seconds. Starts at 0.
  Time Now() const { return now_; }

  /// Schedules `callback` to run `delay` seconds from now. Negative delays
  /// are clamped to zero (the event runs "now", after already-queued
  /// same-time events).
  EventId Schedule(Time delay, EventQueue::Callback callback);

  /// Schedules `callback` at absolute virtual time `when`. Times in the past
  /// are clamped to Now().
  EventId ScheduleAt(Time when, EventQueue::Callback callback);

  /// Schedules `fire(i)` at absolute time `when[i]` for each i, as
  /// ScheduleAt calls in index order would (same ids, same run order),
  /// behind one queue entry (EventQueue::PushRun). Times in the past are
  /// clamped to Now() in place. The items cannot be cancelled. Returns
  /// the first item's id, or kInvalidEventId for an empty span.
  EventId ScheduleRunAt(std::span<Time> when, EventQueue::RunCallback fire);

  /// Cancels a pending event; false if it already ran or was cancelled,
  /// or if Reschedule replaced `id`.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  /// Moves a pending plain event to absolute time `when` (clamped to
  /// Now()), which must not be earlier than its current time. Same as
  /// Cancel plus ScheduleAt of the same callback, including the new id's
  /// place among same-time events, but the callback stays where it is
  /// (EventQueue::Reschedule). Returns the new id, or kInvalidEventId if
  /// `id` was not pending.
  EventId Reschedule(EventId id, Time when);

  /// Executes the single earliest pending event. Returns false if none.
  bool Step();

  /// Runs until the queue empties or virtual time would exceed `until`
  /// (events at exactly `until` still run). Returns the number of events
  /// executed.
  uint64_t RunUntil(Time until);

  /// Runs until the queue is empty. Returns the number of events executed.
  uint64_t Run() { return RunUntil(std::numeric_limits<Time>::infinity()); }

  /// Number of pending events.
  size_t PendingEvents() const { return queue_.Size(); }

  /// Total events executed so far.
  uint64_t ExecutedEvents() const { return executed_; }

  /// Drops all pending events and resets the clock to zero. The trace sink
  /// installed via SetTrace (if any) stays installed.
  void Reset();

  /// Installs (or clears, with nullptr) the trace sink receiving one
  /// kTraceEvent record per executed event. The sink must outlive the
  /// simulator or be cleared before it dies.
  void SetTrace(obs::Trace* trace) { trace_ = trace; }

  /// Stable pointer to the virtual clock, for read-only observers that
  /// must not depend on sim (e.g. util::ScopedLogClock). Valid for the
  /// simulator's lifetime.
  const Time* NowHandle() const { return &now_; }

 private:
  EventQueue queue_;
  Time now_ = 0.0;
  uint64_t executed_ = 0;
  obs::Trace* trace_ = nullptr;
};

}  // namespace madnet::sim

#endif  // MADNET_SIM_SIMULATOR_H_
