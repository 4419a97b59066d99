// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The pending-event set of the discrete-event simulator. Events at the same
// timestamp pop in scheduling order (FIFO), which makes whole runs
// deterministic: the (time, sequence) key is a strict total order, so
// extraction order does not depend on the container's internal arrangement.
//
// Layout is a calendar-style two-level structure tuned for the simulation's
// push pattern (most events are scheduled a few seconds ahead, popped in
// near-monotonic time order):
//  - `near_`: a small 4-ary implicit heap holding only the current epoch's
//    entries (an epoch is a fixed slice of simulated time). It stays a few
//    hundred entries, so sifts touch L1-resident memory.
//  - `ring_`: a power-of-two ring of unsorted buckets, one per upcoming
//    epoch; pushing into a future epoch is an O(1) append with no sift.
//  - `overflow_`: entries beyond the ring horizon, redistributed lazily.
// When the near heap drains, the next non-empty bucket is migrated into it
// (tombstones are dropped there instead of being sifted; see Lifecycle).
// Every entry still pops in exact (time, sequence) order: the near heap
// always contains every pending entry of the earliest non-empty epoch.
//
// A *run* is n events pushed together (one broadcast's deliveries, one
// per receiver): PushRun takes the n consecutive sequences that n Push
// calls would take, sorts its items by (time, sequence) once, and keeps a
// single near/ring/overflow entry keyed by its earliest unpopped item plus
// a single callback. Popping an item re-keys that entry with the next
// item (a sift-down from the root that usually stops at once, or a move
// to the item's later epoch). Every item keeps the (time, sequence) key a
// plain Push would have given it, so pop order is the same as if each had
// been pushed alone. Run items cannot be cancelled; an item's id is its
// bare sequence.
//
// Lifecycle. Entries are 16-byte trivially-copyable keys, so sifts are
// memcpys. A plain event's callback lives in a recycled slot record that
// also holds the sequence of the event that currently owns the slot; an
// EventId is that slot's index (high 32 bits) and the event's sequence
// (low 32 bits). An id is live iff its slot's owner is its sequence, so
// Cancel frees the slot (and the callback) at once and a queued entry
// whose sequence no longer owns its slot is a tombstone, dropped when it
// reaches the top or is migrated. Reschedule writes the next sequence
// and a time no earlier than the event's own into its slot record only;
// the entry already queued is re-filed under that key when it reaches the
// top or is migrated, which happens no later than the new key would pop.
// Nothing is kept per issued id, so the queue's memory is proportional to
// its pending entries, not to the length of the run.
//
// Sequences are 32 bits wide and never reused, so one queue issues at
// most kMaxSequence events (plain pushes, run items and reschedules
// together, over its whole life, Clear included); the next one aborts
// in every build mode.

#ifndef MADNET_SIM_EVENT_QUEUE_H_
#define MADNET_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace madnet::sim {

/// Simulated time, in seconds.
using Time = double;

/// Handle to a scheduled event; used to cancel or reschedule it. Its low
/// 32 bits are the event's sequence (its FIFO tie-break); the rest is
/// opaque.
using EventId = uint64_t;

/// Sentinel returned for operations that could not produce an event.
inline constexpr EventId kInvalidEventId = 0;

/// A time-ordered queue of callbacks.
class EventQueue {
 public:
  using Callback = std::function<void()>;
  /// A run's callback; fires item `i` (its index in PushRun's `when`).
  using RunCallback = std::function<void(uint32_t i)>;

  /// What Pop hands back to run: a plain event's callback, or one item of
  /// a run. An item's Firing borrows the run's callback, so it must be
  /// invoked before the next Pop or Clear.
  class Firing {
   public:
    void operator()() const {
      if (run_ != nullptr) {
        (*run_)(item_);
      } else {
        callback_();
      }
    }

   private:
    friend class EventQueue;
    explicit Firing(Callback callback) : callback_(std::move(callback)) {}
    Firing(const RunCallback* run, uint32_t item) : run_(run), item_(item) {}

    Callback callback_;
    const RunCallback* run_ = nullptr;
    uint32_t item_ = 0;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `callback` at absolute time `when`. Returns a handle that can
  /// cancel the event while it is still pending.
  EventId Push(Time when, Callback callback);

  /// Re-queues a plain event's callback, as Pop returned it, at `when`
  /// without wrapping it in a new Callback. Not for a run item's Firing.
  EventId Push(Time when, Firing&& firing);

  /// Schedules `fire(i)` at `when[i]` for each i < n, exactly as n Push
  /// calls in index order would (same sequences, same pop order), behind
  /// one queue entry. Returns the first item's id (item i has id first +
  /// i), or kInvalidEventId when n == 0. Run items cannot be cancelled.
  EventId PushRun(const Time* when, uint32_t n, RunCallback fire);

  /// Cancels a pending event and destroys its callback. Returns false if
  /// the event already ran, was already cancelled or rescheduled, never
  /// existed, or is a run item.
  bool Cancel(EventId id);

  /// Moves a pending plain event to `when`, no earlier than its current
  /// time: exactly Cancel(id) followed by a Push of the same callback (it
  /// takes the next sequence), but without moving the callback or touching
  /// the calendar now. Returns the event's new id, or kInvalidEventId if
  /// `id` is not a pending plain event (as Cancel would return false).
  EventId Reschedule(EventId id, Time when);

  /// True iff no runnable event is pending.
  bool Empty() const { return live_count_ == 0; }

  /// Number of runnable (non-cancelled) pending events.
  size_t Size() const { return live_count_; }

  /// Timestamp of the earliest runnable event. Requires !Empty().
  Time NextTime();

  /// Removes and returns the earliest runnable event. Requires !Empty().
  /// The returned pair is (time, firing).
  std::pair<Time, Firing> Pop();

  /// Drops every pending event. Not to be called from inside a run's
  /// callback (it destroys run callbacks). Ids issued before stay dead.
  void Clear();

  /// The largest sequence a queue issues (2^32 - 1); see the header
  /// comment.
  static constexpr uint64_t kMaxSequence = 0xFFFFFFFFu;

 private:
  struct Entry {
    Time when;
    // Tie-break: FIFO among same-time events. 32 bits (kMaxSequence) so
    // an entry is 16 bytes and a 4-ary node's children share one cache
    // line.
    uint32_t seq;
    uint32_t slot;  // Index into slots_, or kRunBit | index into run_pool_.
  };
  /// A plain event's callback and key. The slot is free while seq is 0.
  struct Slot {
    Callback callback;
    Time when = 0.0;    // Current key: (when, seq).
    uint32_t seq = 0;   // Sequence of the event that owns the slot.
    uint32_t filed = 0;  // Sequence of the queue entry that carries it,
                         // older than seq after a Reschedule.
  };
  static constexpr uint32_t kRunBit = 0x80000000u;
  static constexpr uint32_t kNoRun = 0xFFFFFFFFu;

  /// One item of a run: its time and its index in PushRun's `when`.
  struct RunItem {
    Time when;
    uint32_t index;
  };
  /// A run's items, sorted by (when, index), and its callback. Records
  /// and their item vectors are recycled, so steady state allocates
  /// nothing.
  struct Run {
    std::vector<RunItem> items;
    uint32_t next = 0;       // First unpopped item.
    uint32_t first_seq = 0;  // Id of item index 0.
    RunCallback fire;
  };
  /// Strict total order: (when, seq) lexicographic. seq values are unique,
  /// so no two entries compare equal.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  // Simulated-time width of one calendar epoch. Purely a performance knob:
  // epoch assignment never affects pop order, only which container an entry
  // waits in.
  static constexpr double kEpochWidth = 0.5;
  // Ring capacity in epochs; must be a power of two. Entries further ahead
  // than the ring horizon go to overflow_.
  static constexpr int64_t kRingSize = 64;

  /// Epoch index of a timestamp, saturated so the ring arithmetic below
  /// never overflows.
  static int64_t EpochOf(Time when) {
    const double q = when / kEpochWidth;
    if (!(q < 9.0e18)) return std::numeric_limits<int64_t>::max();
    if (!(q > -9.0e18)) return std::numeric_limits<int64_t>::min() / 2;
    int64_t k = static_cast<int64_t>(q);
    k -= static_cast<int64_t>(q < static_cast<double>(k));
    return k;
  }

  /// Sift `entry` up from the back of the near heap.
  void HeapPush(const Entry& entry);

  /// Removes the minimum (near_[0]) from the near heap.
  void HeapPop();

  /// Replaces near_[0] (non-empty heap) with `entry` and sifts it down.
  void SiftDownFromRoot(const Entry& entry);

  /// Files `entry` by epoch: near heap, ring bucket or overflow.
  void Place(const Entry& entry);

  /// Re-keys the near-heap top, run `run`, after its next item popped:
  /// the next item's key sifts down from the root (or moves to its later
  /// epoch); after the last item the entry leaves and the record retires.
  void AdvanceRun(uint32_t run);

  /// Brings a queued entry up to date with its slot: true if it is live
  /// (re-keyed first if its event was rescheduled), false if it is a
  /// tombstone to drop. Run entries are always live.
  bool Refresh(Entry* entry);

  /// Ensures near_[0] is the earliest live entry: drops tombstones,
  /// re-files rescheduled entries and migrates epochs forward as the near
  /// heap drains. Returns false when no runnable entry exists anywhere.
  bool SettleTop();

  /// Moves the next non-empty epoch's entries into the empty near heap,
  /// dropping tombstones. Requires pending entries in ring/overflow.
  void AdvanceEpoch();

  /// Re-buckets overflow entries against the current window: due entries
  /// move into the ring/near heap, the rest stay in overflow. Updates
  /// min_overflow_epoch_.
  void RedistributeOverflow();

  /// Takes the next `n` sequences; aborts past kMaxSequence.
  uint32_t NextSequences(uint32_t n);

  /// The slot `id` names if `id` is a pending plain event, else nullptr.
  Slot* LiveSlot(EventId id);

  /// Frees slot `slot`, returning its callback.
  Callback TakeSlot(uint32_t slot);

  std::vector<Entry> near_;  // Current epoch: 4-ary min-heap on Before().
  std::array<std::vector<Entry>, kRingSize> ring_;  // Future epochs, unsorted.
  size_t ring_count_ = 0;       // Total entries across ring buckets.
  std::vector<Entry> overflow_;  // Beyond the ring horizon, unsorted.
  int64_t cur_epoch_ = 0;       // Epoch the near heap represents.
  // Smallest epoch of any overflow entry (max() when overflow_ is empty).
  // AdvanceEpoch must pull overflow back in before advancing past it.
  int64_t min_overflow_epoch_ = std::numeric_limits<int64_t>::max();
  std::vector<Entry> overflow_scratch_;  // RedistributeOverflow's input.
  std::vector<Slot> slots_;           // Plain events' callbacks and keys.
  std::vector<uint32_t> free_slots_;  // Recyclable indices into slots_.
  std::deque<Run> run_pool_;  // Run records; a deque so a record stays
                              // put while its callback runs.
  std::vector<uint32_t> free_runs_;  // Recyclable indices into run_pool_.
  // The run whose last item popped most recently. Its callback may still
  // be running, so the record is recycled at the next Pop, not at once.
  uint32_t retired_run_ = kNoRun;
  uint64_t next_seq_ = 1;  // 0 is never a live sequence.
  size_t live_count_ = 0;
  // Timestamp of the most recent Pop; Pop DCHECKs that extraction times
  // never move backwards (heap-integrity invariant).
  Time last_pop_time_ = std::numeric_limits<Time>::lowest();
};

}  // namespace madnet::sim

#endif  // MADNET_SIM_EVENT_QUEUE_H_
