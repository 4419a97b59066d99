// Copyright (c) 2026 madnet authors. All rights reserved.

#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/logging.h"

namespace madnet::sim {

void EventQueue::HeapPush(const Entry& entry) {
  // Hole-based sift-up: move parents down until `entry` fits, then write it
  // once (entries are trivially copyable 16-byte keys, so each step is a
  // memcpy).
  near_.push_back(entry);
  size_t i = near_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Before(entry, near_[parent])) break;
    near_[i] = near_[parent];
    i = parent;
  }
  near_[i] = entry;
}

void EventQueue::HeapPop() {
  const Entry last = near_.back();
  near_.pop_back();
  if (!near_.empty()) SiftDownFromRoot(last);
}

void EventQueue::SiftDownFromRoot(const Entry& entry) {
  // Hole-based sift-down from the root: promote the smallest child until
  // `entry` fits.
  const size_t n = near_.size();
  size_t i = 0;
  for (;;) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    size_t best = first_child;
    const size_t end_child = first_child + 4 < n ? first_child + 4 : n;
    for (size_t c = first_child + 1; c < end_child; ++c) {
      if (Before(near_[c], near_[best])) best = c;
    }
    if (!Before(near_[best], entry)) break;
    near_[i] = near_[best];
    i = best;
  }
  near_[i] = entry;
}

void EventQueue::Place(const Entry& entry) {
  const int64_t e = EpochOf(entry.when);
  if (e <= cur_epoch_) {
    // Current (or past — a zero-delay reschedule) epoch: straight into the
    // near heap so SettleTop sees it.
    HeapPush(entry);
  } else if (static_cast<uint64_t>(e) - static_cast<uint64_t>(cur_epoch_) <
             static_cast<uint64_t>(kRingSize)) {
    ring_[static_cast<uint64_t>(e) & (kRingSize - 1)].push_back(entry);
    ++ring_count_;
  } else {
    overflow_.push_back(entry);
    min_overflow_epoch_ = std::min(min_overflow_epoch_, e);
  }
}

void EventQueue::RedistributeOverflow() {
  std::vector<Entry> keep;
  int64_t new_min = std::numeric_limits<int64_t>::max();
  for (const Entry& entry : overflow_) {
    if (state_[entry.seq - 1] == kCancelled) {
      state_[entry.seq - 1] = kDone;
      TakeSlot(entry.slot);
      continue;
    }
    const int64_t e = EpochOf(entry.when);
    if (e <= cur_epoch_) {
      HeapPush(entry);  // Defensive; the window never passes overflow.
    } else if (static_cast<uint64_t>(e) - static_cast<uint64_t>(cur_epoch_) <
               static_cast<uint64_t>(kRingSize)) {
      ring_[static_cast<uint64_t>(e) & (kRingSize - 1)].push_back(entry);
      ++ring_count_;
    } else {
      // Only events scheduled beyond the ring window land here, and the
      // epoch advance that triggers redistribution is rare by construction.
      keep.push_back(entry);
      new_min = std::min(new_min, e);
    }
  }
  overflow_.swap(keep);
  min_overflow_epoch_ = new_min;
}

void EventQueue::AdvanceEpoch() {
  for (;;) {
    // Epoch of the next non-empty ring bucket. The window invariant (ring
    // buckets hold exactly the epochs in (cur_epoch_, cur_epoch_ +
    // kRingSize]) guarantees the scan terminates within kRingSize steps.
    int64_t ring_epoch = std::numeric_limits<int64_t>::max();
    if (ring_count_ > 0) {
      for (int64_t e = cur_epoch_ + 1;; ++e) {
        if (!ring_[static_cast<uint64_t>(e) & (kRingSize - 1)].empty()) {
          ring_epoch = e;
          break;
        }
      }
    }
    // Overflow entries may have become due as the window advanced; they
    // must be pulled back in before the window moves past them.
    if (!overflow_.empty() && min_overflow_epoch_ <= ring_epoch) {
      if (ring_count_ == 0) {
        // Nothing nearer anywhere: jump the window to just before the
        // earliest overflow entry so redistribution lands it in the ring.
        cur_epoch_ = std::max(cur_epoch_, min_overflow_epoch_ - 1);
      }
      RedistributeOverflow();
      if (!near_.empty()) return;
      if (ring_count_ == 0 && overflow_.empty()) return;  // All reaped.
      continue;
    }
    if (ring_epoch == std::numeric_limits<int64_t>::max()) return;
    cur_epoch_ = ring_epoch;
    std::vector<Entry>& bucket =
        ring_[static_cast<uint64_t>(ring_epoch) & (kRingSize - 1)];
    ring_count_ -= bucket.size();
    for (const Entry& entry : bucket) {
      // Cancelled entries are reaped here instead of being sifted through
      // the near heap just to be thrown away at the top.
      if (state_[entry.seq - 1] == kCancelled) {
        state_[entry.seq - 1] = kDone;
        TakeSlot(entry.slot);
      } else {
        HeapPush(entry);
      }
    }
    bucket.clear();
    return;
  }
}

bool EventQueue::SettleTop() {
  for (;;) {
    if (!near_.empty()) {
      const Entry& top = near_.front();
      if (state_[top.seq - 1] != kCancelled) return true;
      state_[top.seq - 1] = kDone;
      TakeSlot(top.slot);  // Frees the cancelled callback now.
      HeapPop();
      continue;
    }
    if (ring_count_ == 0 && overflow_.empty()) return false;
    AdvanceEpoch();
  }
}

EventId EventQueue::Push(Time when, Callback callback) {
  MADNET_DCHECK(when == when);  // NaN keys would corrupt the heap order.
  MADNET_DCHECK(callback != nullptr);
  const EventId id = next_seq_++;
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(callback);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(callback));
  }
  MADNET_DCHECK_LT(slot, kRunBit);
  state_.push_back(kPending);  // state_[id - 1].
  MADNET_DCHECK_LE(id, std::numeric_limits<uint32_t>::max());
  Place(Entry{when, static_cast<uint32_t>(id), slot});
  ++live_count_;
  return id;
}

EventId EventQueue::Push(Time when, Firing&& firing) {
  MADNET_DCHECK(firing.run_ == nullptr);  // A run item cannot be re-pushed.
  return Push(when, std::move(firing.callback_));
}

EventId EventQueue::PushRun(const Time* when, uint32_t n, RunCallback fire) {
  if (n == 0) return kInvalidEventId;
  MADNET_DCHECK(fire != nullptr);
  const EventId first = next_seq_;
  next_seq_ += n;
  MADNET_DCHECK_LE(next_seq_ - 1, std::numeric_limits<uint32_t>::max());
  // Grow to the power-of-two capacity n push_backs would reach: resize
  // alone would seed capacities from run sizes and raise peak memory.
  const size_t needed = state_.size() + n;
  if (needed > state_.capacity()) state_.reserve(std::bit_ceil(needed));
  state_.resize(needed, kRunItem);
  uint32_t index;
  if (!free_runs_.empty()) {
    index = free_runs_.back();
    free_runs_.pop_back();
  } else {
    index = static_cast<uint32_t>(run_pool_.size());
    run_pool_.emplace_back();
  }
  MADNET_DCHECK_LT(index, kRunBit);
  Run& run = run_pool_[index];
  std::vector<RunItem>& items = run.items;
  items.clear();
  for (uint32_t i = 0; i < n; ++i) {
    MADNET_DCHECK(when[i] == when[i]);  // NaN keys would corrupt the order.
    items.push_back(RunItem{when[i], i});
  }
  // (when, index) is a strict total order, so the result is unique.
  std::sort(items.begin(), items.end(),
            [](const RunItem& a, const RunItem& b) {
              return a.when < b.when || (a.when == b.when && a.index < b.index);
            });
  run.next = 0;
  run.first_seq = static_cast<uint32_t>(first);
  run.fire = std::move(fire);
  Place(Entry{items[0].when, run.first_seq + items[0].index, kRunBit | index});
  live_count_ += n;
  return first;
}

void EventQueue::AdvanceRun(uint32_t run) {
  Run& record = run_pool_[run];
  if (++record.next == record.items.size()) {
    HeapPop();
    retired_run_ = run;
    return;
  }
  const RunItem& item = record.items[record.next];
  const Entry next{item.when, record.first_seq + item.index, kRunBit | run};
  if (EpochOf(item.when) <= cur_epoch_) {
    // Items are sorted, so `next` is no earlier than the entry it
    // replaces at the root.
    SiftDownFromRoot(next);
  } else {
    HeapPop();
    Place(next);
  }
}

bool EventQueue::Cancel(EventId id) {
  // Only ids that were pushed and have neither run nor been cancelled are
  // cancellable. The entry stays put as a tombstone; its slot is reclaimed
  // when the entry reaches the top (or is migrated out of its bucket).
  if (id == kInvalidEventId || id >= next_seq_) return false;
  uint8_t& state = state_[id - 1];
  if (state != kPending) return false;
  state = kCancelled;
  --live_count_;
  return true;
}

EventQueue::Callback EventQueue::TakeSlot(uint32_t slot) {
  MADNET_DCHECK_LT(slot, slots_.size());
  MADNET_DCHECK(slots_[slot] != nullptr);  // Double-free of a slot.
  Callback callback = std::move(slots_[slot]);
  slots_[slot] = nullptr;
  free_slots_.push_back(slot);
  return callback;
}

Time EventQueue::NextTime() {
  const bool live = SettleTop();
  MADNET_DCHECK(live);  // NextTime() on an empty queue.
  (void)live;
  return near_.front().when;
}

std::pair<Time, EventQueue::Firing> EventQueue::Pop() {
  if (retired_run_ != kNoRun) {
    // Its last item's callback has returned by now.
    run_pool_[retired_run_].fire = nullptr;
    free_runs_.push_back(retired_run_);
    retired_run_ = kNoRun;
  }
  const bool live = SettleTop();
  MADNET_DCHECK(live);  // Pop() on an empty queue.
  (void)live;
  const Entry top = near_.front();  // Trivially copyable.
  // Heap integrity: extraction order is non-decreasing in time, and the
  // entry leaving the heap must still be pending (tombstones were reaped by
  // SettleTop above, and ids never re-enter the queue).
  MADNET_DCHECK_GE(top.when, last_pop_time_);
  last_pop_time_ = top.when;
  --live_count_;
  if ((top.slot & kRunBit) != 0) {
    MADNET_DCHECK_EQ(state_[top.seq - 1], kRunItem);
    state_[top.seq - 1] = kDone;
    const uint32_t run = top.slot & ~kRunBit;
    const Run& record = run_pool_[run];
    const uint32_t item = record.items[record.next].index;
    AdvanceRun(run);
    return {top.when, Firing(&record.fire, item)};
  }
  MADNET_DCHECK_EQ(state_[top.seq - 1], kPending);
  HeapPop();
  state_[top.seq - 1] = kDone;
  return {top.when, Firing(TakeSlot(top.slot))};
}

void EventQueue::Clear() {
  near_.clear();
  for (std::vector<Entry>& bucket : ring_) bucket.clear();
  ring_count_ = 0;
  overflow_.clear();
  min_overflow_epoch_ = std::numeric_limits<int64_t>::max();
  cur_epoch_ = 0;
  slots_.clear();
  free_slots_.clear();
  // Run records stay allocated for reuse; only their callbacks go.
  free_runs_.clear();
  for (uint32_t i = 0; i < run_pool_.size(); ++i) {
    run_pool_[i].fire = nullptr;
    free_runs_.push_back(i);
  }
  retired_run_ = kNoRun;
  // Outstanding ids become permanently non-cancellable (they neither run
  // nor linger); ids keep growing across Clear so old handles stay dead.
  std::fill(state_.begin(), state_.end(), kDone);
  live_count_ = 0;
  last_pop_time_ = std::numeric_limits<Time>::lowest();
}

}  // namespace madnet::sim
