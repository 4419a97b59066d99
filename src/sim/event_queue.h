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
// (cancelled entries are dropped during migration instead of being sifted).
// Every entry still pops in exact (time, sequence) order: the near heap
// always contains every pending entry of the earliest non-empty epoch.
//
// A *run* is n events pushed together (one broadcast's deliveries, one
// per receiver): PushRun takes the n consecutive ids that n Push calls
// would take, sorts its items by (time, id) once, and keeps a single
// near/ring/overflow entry keyed by its earliest unpopped item plus a
// single callback. Popping an item re-keys that entry with the next
// item (a sift-down from the root that usually stops at once, or a move
// to the item's later epoch). Every item keeps the (time, id) key a plain
// Push would have given it, so pop order is the same as if each had been
// pushed alone. Run items cannot be cancelled.
//
// Entries are 16-byte trivially-copyable keys so sift operations are
// memcpys, callbacks live in a recycled slot pool (plain events) or a
// recycled run pool rather than inside the heap, and event lifecycle
// (pending / ran / cancelled) is a flat byte-per-id vector indexed by the
// monotonically increasing sequence number — no hash-set insert+erase per
// event.

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

/// Opaque handle to a scheduled event; used to cancel it.
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
  /// calls in index order would (same ids, same pop order), behind one
  /// queue entry. Returns the first id (item i has id first + i), or
  /// kInvalidEventId when n == 0. Run items cannot be cancelled.
  EventId PushRun(const Time* when, uint32_t n, RunCallback fire);

  /// Cancels a pending event. Returns false if the event already ran, was
  /// already cancelled, never existed, or is a run item.
  bool Cancel(EventId id);

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
  /// callback (it destroys run callbacks).
  void Clear();

 private:
  struct Entry {
    Time when;
    // Tie-break: FIFO among same-time events; doubles as id. Narrowed to 32
    // bits so an entry is 16 bytes and a 4-ary node's children share one
    // cache line. Safe: state_ grows one byte per id, so a queue would need
    // > 4 GiB of lifecycle bytes before ids could wrap (DCHECKed in Push).
    uint32_t seq;
    uint32_t slot;  // Index into slots_, or kRunBit | index into run_pool_.
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

  /// Ensures near_[0] is the earliest live entry: reaps tombstones and
  /// migrates epochs forward as the near heap drains. Returns false when no
  /// runnable entry exists anywhere.
  bool SettleTop();

  /// Moves the next non-empty epoch's entries into the empty near heap,
  /// dropping cancelled entries. Requires pending entries in ring/overflow.
  void AdvanceEpoch();

  /// Re-buckets overflow entries against the current window: due entries
  /// move into the ring/near heap, the rest stay in overflow. Updates
  /// min_overflow_epoch_.
  void RedistributeOverflow();

  // Lifecycle of an event id (state_[id - 1]).
  enum : uint8_t { kPending = 0, kDone = 1 };  // Done = ran, cancelled+
                                               // reaped, or cleared.
  enum : uint8_t { kCancelled = 2 };           // Cancelled, still in heap.
  enum : uint8_t { kRunItem = 3 };  // Pending run item (not cancellable).

  /// Returns the callback slot `slot` to the free pool.
  Callback TakeSlot(uint32_t slot);

  std::vector<Entry> near_;  // Current epoch: 4-ary min-heap on Before().
  std::array<std::vector<Entry>, kRingSize> ring_;  // Future epochs, unsorted.
  size_t ring_count_ = 0;       // Total entries across ring buckets.
  std::vector<Entry> overflow_;  // Beyond the ring horizon, unsorted.
  int64_t cur_epoch_ = 0;       // Epoch the near heap represents.
  // Smallest epoch of any overflow entry (max() when overflow_ is empty).
  // AdvanceEpoch must pull overflow back in before advancing past it.
  int64_t min_overflow_epoch_ = std::numeric_limits<int64_t>::max();
  std::vector<Callback> slots_;       // Callback storage, heap-independent.
  std::vector<uint32_t> free_slots_;  // Recyclable indices into slots_.
  std::vector<uint8_t> state_;        // Per-id lifecycle, indexed by id - 1.
  std::deque<Run> run_pool_;  // Run records; a deque so a record stays
                              // put while its callback runs.
  std::vector<uint32_t> free_runs_;  // Recyclable indices into run_pool_.
  // The run whose last item popped most recently. Its callback may still
  // be running, so the record is recycled at the next Pop, not at once.
  uint32_t retired_run_ = kNoRun;
  uint64_t next_seq_ = 1;  // 0 is kInvalidEventId.
  size_t live_count_ = 0;
  // Timestamp of the most recent Pop; Pop DCHECKs that extraction times
  // never move backwards (heap-integrity invariant).
  Time last_pop_time_ = std::numeric_limits<Time>::lowest();
};

}  // namespace madnet::sim

#endif  // MADNET_SIM_EVENT_QUEUE_H_
