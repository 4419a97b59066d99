// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/ad_cache.h"

#include <algorithm>
#include <cassert>

namespace madnet::core {

AdCache::AdCache(size_t capacity) : capacity_(capacity) {
  assert(capacity >= 1);
}

CacheEntry* AdCache::Insert(CacheEntry entry, sim::EventId* evicted_timer) {
  assert(evicted_timer != nullptr);
  *evicted_timer = sim::kInvalidEventId;
  const uint64_t key = entry.ad.id.Key();
  assert(Find(key) == nullptr && "Insert of a key already cached");
  if (Full()) {
    // Algorithm 1: drop the least-probability entry, counting the incoming
    // one as a candidate victim. Keys ascend, so `<=` hands a tie between
    // cached entries to the larger key (deterministic).
    size_t victim = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].probability <= entries_[victim].probability) victim = i;
    }
    if (entries_[victim].probability >= entry.probability) {
      return nullptr;  // The newcomer loses; nothing changes.
    }
    *evicted_timer = Erase(keys_[victim]);
  }
  const size_t index =
      std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin();
  keys_.insert(keys_.begin() + index, key);
  return &*entries_.insert(entries_.begin() + index, std::move(entry));
}

sim::EventId AdCache::Erase(uint64_t key) {
  const CacheEntry* entry = Find(key);
  if (entry == nullptr) return sim::kInvalidEventId;
  const sim::EventId timer = entry->timer;
  const size_t index = entry - entries_.data();
  keys_.erase(keys_.begin() + index);
  entries_.erase(entries_.begin() + index);
  return timer;
}

void AdCache::ForEach(const std::function<void(uint64_t, CacheEntry&)>& fn) {
  for (size_t i = 0; i < keys_.size(); ++i) fn(keys_[i], entries_[i]);
}

void AdCache::RemoveIf(
    const std::function<bool(uint64_t, CacheEntry&)>& remove) {
  size_t kept = 0;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (remove(keys_[i], entries_[i])) continue;
    if (kept != i) {
      keys_[kept] = keys_[i];
      entries_[kept] = std::move(entries_[i]);
    }
    ++kept;
  }
  keys_.resize(kept);
  entries_.erase(entries_.begin() + kept, entries_.end());
}

}  // namespace madnet::core
