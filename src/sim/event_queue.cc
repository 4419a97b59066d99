// Copyright (c) 2026 madnet authors. All rights reserved.

#include "sim/event_queue.h"

#include <algorithm>
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

bool EventQueue::Refresh(Entry* entry) {
  if ((entry->slot & kRunBit) != 0) return true;
  Slot& slot = slots_[entry->slot];
  if (slot.seq == entry->seq) return true;
  // Cancelled (the slot is free or has a new owner), or rescheduled.
  if (slot.filed != entry->seq) return false;
  slot.filed = slot.seq;
  entry->when = slot.when;
  entry->seq = slot.seq;
  return true;
}

void EventQueue::RedistributeOverflow() {
  // Place may append to overflow_, so walk the entries from the scratch
  // vector; both keep their capacity.
  overflow_scratch_.swap(overflow_);
  min_overflow_epoch_ = std::numeric_limits<int64_t>::max();
  for (Entry entry : overflow_scratch_) {
    // Entries that stay beyond the ring window go back to overflow; the
    // epoch advance that triggers redistribution is rare by construction.
    if (Refresh(&entry)) Place(entry);
  }
  overflow_scratch_.clear();
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
    for (Entry entry : bucket) {
      // Tombstones are dropped here instead of being sifted through the
      // near heap just to be thrown away at the top. A rescheduled entry
      // moves on to its current key's epoch (never into this bucket: the
      // ring holds epochs up to cur_epoch_ + kRingSize - 1).
      const uint32_t seq = entry.seq;
      if (!Refresh(&entry)) continue;
      if (entry.seq == seq) {
        HeapPush(entry);
      } else {
        Place(entry);
      }
    }
    bucket.clear();
    return;
  }
}

bool EventQueue::SettleTop() {
  for (;;) {
    if (!near_.empty()) {
      Entry top = near_.front();
      const uint32_t seq = top.seq;
      if (!Refresh(&top)) {
        HeapPop();  // A tombstone; Cancel already freed its slot.
      } else if (top.seq == seq) {
        return true;
      } else if (EpochOf(top.when) <= cur_epoch_) {
        // Rescheduled within this epoch: its key is no earlier than the
        // root it replaces.
        SiftDownFromRoot(top);
      } else {
        HeapPop();
        Place(top);
      }
      continue;
    }
    if (ring_count_ == 0 && overflow_.empty()) return false;
    AdvanceEpoch();
  }
}

uint32_t EventQueue::NextSequences(uint32_t n) {
  // Checked in every build mode: a wrapped sequence would break FIFO ties
  // and could make a dead id live again.
  if (next_seq_ + n - 1 > kMaxSequence) [[unlikely]] {
    internal::DcheckFail(__FILE__, __LINE__,
                         "EventQueue issued more than kMaxSequence "
                         "(2^32 - 1) events");
  }
  const uint32_t first = static_cast<uint32_t>(next_seq_);
  next_seq_ += n;
  return first;
}

EventId EventQueue::Push(Time when, Callback callback) {
  MADNET_DCHECK(when == when);  // NaN keys would corrupt the heap order.
  MADNET_DCHECK(callback != nullptr);
  const uint32_t seq = NextSequences(1);
  uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  MADNET_DCHECK_LT(index, kRunBit);
  Slot& slot = slots_[index];
  slot.callback = std::move(callback);
  slot.when = when;
  slot.seq = seq;
  slot.filed = seq;
  Place(Entry{when, seq, index});
  ++live_count_;
  return uint64_t{index} << 32 | seq;
}

EventId EventQueue::Push(Time when, Firing&& firing) {
  MADNET_DCHECK(firing.run_ == nullptr);  // A run item cannot be re-pushed.
  return Push(when, std::move(firing.callback_));
}

EventId EventQueue::PushRun(const Time* when, uint32_t n, RunCallback fire) {
  if (n == 0) return kInvalidEventId;
  MADNET_DCHECK(fire != nullptr);
  const uint32_t first = NextSequences(n);
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
  run.first_seq = first;
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

EventQueue::Slot* EventQueue::LiveSlot(EventId id) {
  // A run item's id is its bare sequence, which names slot 0 but never
  // matches its owner: sequences are unique.
  const uint32_t seq = static_cast<uint32_t>(id);
  const uint64_t index = id >> 32;
  if (seq == 0 || index >= slots_.size()) return nullptr;
  Slot& slot = slots_[index];
  return slot.seq == seq ? &slot : nullptr;
}

bool EventQueue::Cancel(EventId id) {
  if (LiveSlot(id) == nullptr) return false;
  // The queued entry stays put as a tombstone until it surfaces.
  TakeSlot(static_cast<uint32_t>(id >> 32));
  --live_count_;
  return true;
}

EventId EventQueue::Reschedule(EventId id, Time when) {
  Slot* slot = LiveSlot(id);
  if (slot == nullptr) return kInvalidEventId;
  // An earlier key could pop before the entry that carries it surfaces.
  MADNET_DCHECK(when >= slot->when);
  slot->when = when;
  slot->seq = NextSequences(1);
  return (id >> 32) << 32 | slot->seq;
}

EventQueue::Callback EventQueue::TakeSlot(uint32_t index) {
  MADNET_DCHECK_LT(index, slots_.size());
  Slot& slot = slots_[index];
  MADNET_DCHECK_NE(slot.seq, 0u);  // Double-free of a slot.
  Callback callback = std::move(slot.callback);
  slot.callback = nullptr;
  slot.seq = 0;
  slot.filed = 0;
  free_slots_.push_back(index);
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
  // entry leaving the heap must still be pending (SettleTop dropped the
  // tombstones and re-filed the rescheduled entries above).
  MADNET_DCHECK_GE(top.when, last_pop_time_);
  last_pop_time_ = top.when;
  --live_count_;
  if ((top.slot & kRunBit) != 0) {
    const uint32_t run = top.slot & ~kRunBit;
    const Run& record = run_pool_[run];
    const uint32_t item = record.items[record.next].index;
    AdvanceRun(run);
    return {top.when, Firing(&record.fire, item)};
  }
  MADNET_DCHECK_EQ(slots_[top.slot].seq, top.seq);
  HeapPop();
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
  // Sequences keep growing across Clear, so old ids never match a slot's
  // owner again.
  live_count_ = 0;
  last_pop_time_ = std::numeric_limits<Time>::lowest();
}

}  // namespace madnet::sim
