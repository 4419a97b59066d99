// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Per-peer advertisement cache (paper, Section III-A and Algorithms 1/3):
// received advertisements are kept sorted by forwarding probability and the
// cache retains only the top-k; the lowest-probability entry is dropped on
// overflow. Each entry also carries the per-advertisement gossip scheduling
// state used by Optimization 2 (independent time handler per entry).
//
// Entries live in two parallel vectors in ascending key order: the keys,
// which Find scans, and the entries. Most receipts are duplicates whose only
// work is a Find, so this beats tree nodes; the price is that Insert and
// Erase shift the entries behind them.

#ifndef MADNET_CORE_AD_CACHE_H_
#define MADNET_CORE_AD_CACHE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/advertisement.h"
#include "sim/event_queue.h"

namespace madnet::core {

/// One cached advertisement plus its scheduling state.
struct CacheEntry {
  Advertisement ad;
  double probability = 0.0;       ///< Last refreshed forwarding probability.
  sim::Time next_gossip_time = 0; ///< Scheduled broadcast time (Opt-2 path).
  sim::EventId timer = sim::kInvalidEventId;  ///< Pending per-entry event.
};

/// A bounded AdKey -> CacheEntry table with probability-ordered eviction.
class AdCache {
 public:
  /// Creates a cache holding at most `capacity` advertisements (k >= 1).
  explicit AdCache(size_t capacity);

  /// Looks up an entry; nullptr if absent. The pointer stays valid until
  /// the next Insert, Erase or RemoveIf on this cache.
  // MADNET_HOT
  CacheEntry* Find(uint64_t key) {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == key) return &entries_[i];
    }
    return nullptr;
  }
  const CacheEntry* Find(uint64_t key) const {
    return const_cast<AdCache*>(this)->Find(key);
  }

  /// Inserts a new entry (Algorithm 1). If the cache is full, callers must
  /// refresh probabilities first, then the lowest-probability entry —
  /// possibly the incoming one — is dropped. Returns the inserted entry, or
  /// nullptr if the incoming entry itself was the drop victim. If an
  /// *existing* entry was evicted, its pending timer id is written to
  /// `evicted_timer` (sim::kInvalidEventId otherwise) so the caller can
  /// cancel it. Requires the key not to be present (asserts in debug
  /// builds).
  CacheEntry* Insert(CacheEntry entry, sim::EventId* evicted_timer);

  /// Removes an entry. Returns the removed entry's timer id (so the caller
  /// can cancel it), or sim::kInvalidEventId if the key was absent.
  sim::EventId Erase(uint64_t key);

  /// Applies `fn` to every entry in ascending key order, which feeds RNG
  /// draws and so is part of the determinism contract. Mutation of entries
  /// is allowed; erasure is not.
  void ForEach(const std::function<void(uint64_t, CacheEntry&)>& fn);

  /// ForEach that drops the entries for which `remove` returns true (the
  /// caller cancels their timers).
  void RemoveIf(const std::function<bool(uint64_t, CacheEntry&)>& remove);

  /// Keys of all entries, in ascending key order. Safe to erase while
  /// iterating the returned snapshot.
  std::vector<uint64_t> Keys() const { return keys_; }

  size_t Size() const { return keys_.size(); }
  size_t Capacity() const { return capacity_; }
  bool Full() const { return keys_.size() >= capacity_; }

 private:
  size_t capacity_;
  std::vector<uint64_t> keys_;        // Ascending.
  std::vector<CacheEntry> entries_;   // entries_[i] belongs to keys_[i].
};

}  // namespace madnet::core

#endif  // MADNET_CORE_AD_CACHE_H_
