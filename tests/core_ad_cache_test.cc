// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/ad_cache.h"

#include <algorithm>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

namespace madnet::core {
namespace {

CacheEntry MakeEntry(uint32_t seq, double probability,
                     sim::EventId timer = sim::kInvalidEventId) {
  CacheEntry entry;
  entry.ad.id = AdId{1, seq};
  entry.probability = probability;
  entry.timer = timer;
  return entry;
}

TEST(AdCacheTest, InsertAndFind) {
  AdCache cache(3);
  sim::EventId evicted;
  CacheEntry* inserted = cache.Insert(MakeEntry(1, 0.5), &evicted);
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(evicted, sim::kInvalidEventId);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_NE(cache.Find(AdId{1, 1}.Key()), nullptr);
  EXPECT_EQ(cache.Find(AdId{1, 2}.Key()), nullptr);
}

TEST(AdCacheTest, EvictsLowestProbability) {
  AdCache cache(2);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.9, 101), &evicted);
  cache.Insert(MakeEntry(2, 0.2, 102), &evicted);
  // Full; inserting a better entry evicts seq 2 (probability 0.2).
  CacheEntry* inserted = cache.Insert(MakeEntry(3, 0.5, 103), &evicted);
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(evicted, 102u);
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.Find(AdId{1, 2}.Key()), nullptr);
  EXPECT_NE(cache.Find(AdId{1, 1}.Key()), nullptr);
  EXPECT_NE(cache.Find(AdId{1, 3}.Key()), nullptr);
}

TEST(AdCacheTest, IncomingEntryCanLose) {
  AdCache cache(2);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.9), &evicted);
  cache.Insert(MakeEntry(2, 0.8), &evicted);
  CacheEntry* inserted = cache.Insert(MakeEntry(3, 0.1), &evicted);
  EXPECT_EQ(inserted, nullptr);
  EXPECT_EQ(evicted, sim::kInvalidEventId);
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.Find(AdId{1, 3}.Key()), nullptr);
}

TEST(AdCacheTest, TieGoesAgainstIncoming) {
  AdCache cache(1);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.5), &evicted);
  EXPECT_EQ(cache.Insert(MakeEntry(2, 0.5), &evicted), nullptr);
  EXPECT_NE(cache.Find(AdId{1, 1}.Key()), nullptr);
}

TEST(AdCacheTest, EraseReturnsTimer) {
  AdCache cache(2);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.5, 77), &evicted);
  EXPECT_EQ(cache.Erase(AdId{1, 1}.Key()), 77u);
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.Erase(AdId{1, 1}.Key()), sim::kInvalidEventId);
}

TEST(AdCacheTest, ForEachVisitsAllAndMutates) {
  AdCache cache(5);
  sim::EventId evicted;
  for (uint32_t i = 1; i <= 4; ++i) {
    cache.Insert(MakeEntry(i, 0.1 * i), &evicted);
  }
  cache.ForEach([](uint64_t, CacheEntry& entry) { entry.probability = 0.99; });
  int count = 0;
  cache.ForEach([&](uint64_t, CacheEntry& entry) {
    EXPECT_DOUBLE_EQ(entry.probability, 0.99);
    ++count;
  });
  EXPECT_EQ(count, 4);
}

TEST(AdCacheTest, KeysSnapshot) {
  AdCache cache(5);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.1), &evicted);
  cache.Insert(MakeEntry(2, 0.2), &evicted);
  auto keys = cache.Keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys,
            (std::vector<uint64_t>{AdId{1, 1}.Key(), AdId{1, 2}.Key()}));
}

TEST(AdCacheTest, CapacityOne) {
  AdCache cache(1);
  EXPECT_EQ(cache.Capacity(), 1u);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.2, 11), &evicted);
  EXPECT_TRUE(cache.Full());
  CacheEntry* inserted = cache.Insert(MakeEntry(2, 0.7, 22), &evicted);
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(evicted, 11u);
  EXPECT_EQ(cache.Size(), 1u);
}

// A pointer from Insert or Find is valid until the next Insert, Erase or
// RemoveIf: it writes through to the cached entry and survives lookups and
// walks.
TEST(AdCacheTest, PointerValidAcrossFindAndForEach) {
  AdCache cache(10);
  sim::EventId evicted;
  cache.Insert(MakeEntry(2, 0.6), &evicted);
  cache.Insert(MakeEntry(3, 0.7), &evicted);
  CacheEntry* a = cache.Insert(MakeEntry(1, 0.5), &evicted);
  ASSERT_NE(a, nullptr);
  CacheEntry* b = cache.Find(AdId{1, 3}.Key());
  ASSERT_NE(b, nullptr);
  a->probability = 0.42;
  b->probability = 0.24;
  EXPECT_EQ(cache.Find(AdId{1, 1}.Key()), a);
  EXPECT_EQ(cache.Find(AdId{1, 2}.Key())->probability, 0.6);
  cache.ForEach([](uint64_t, CacheEntry& entry) { entry.timer = 5; });
  EXPECT_EQ(cache.Find(AdId{1, 1}.Key()), a);
  EXPECT_EQ(cache.Find(AdId{1, 3}.Key()), b);
  EXPECT_DOUBLE_EQ(a->probability, 0.42);
  EXPECT_DOUBLE_EQ(b->probability, 0.24);
  EXPECT_EQ(a->timer, 5u);
  EXPECT_EQ(b->timer, 5u);
}

// Visits in ascending key order are part of the determinism contract:
// ForEach feeds RNG draws, so its order must not depend on insertion order.
std::vector<uint64_t> ForEachKeys(AdCache& cache) {
  std::vector<uint64_t> keys;
  cache.ForEach([&](uint64_t key, CacheEntry& entry) {
    EXPECT_EQ(entry.ad.id.Key(), key);
    keys.push_back(key);
  });
  return keys;
}

std::vector<uint64_t> KeysOf(std::initializer_list<uint32_t> seqs) {
  std::vector<uint64_t> keys;
  for (uint32_t seq : seqs) keys.push_back(AdId{1, seq}.Key());
  return keys;
}

TEST(AdCacheTest, VisitsInAscendingKeyOrder) {
  AdCache cache(5);
  sim::EventId evicted;
  for (uint32_t seq : {4u, 1u, 5u, 3u, 2u}) {
    cache.Insert(MakeEntry(seq, 0.1 * seq), &evicted);
  }
  EXPECT_EQ(cache.Keys(), KeysOf({1, 2, 3, 4, 5}));
  EXPECT_EQ(ForEachKeys(cache), KeysOf({1, 2, 3, 4, 5}));

  // Seq 6 evicts seq 1 (lowest probability) and lands at the end.
  cache.Insert(MakeEntry(6, 0.9), &evicted);
  EXPECT_EQ(cache.Keys(), KeysOf({2, 3, 4, 5, 6}));
  EXPECT_EQ(ForEachKeys(cache), KeysOf({2, 3, 4, 5, 6}));

  cache.Erase(AdId{1, 4}.Key());
  cache.Insert(MakeEntry(1, 0.8), &evicted);
  EXPECT_EQ(cache.Keys(), KeysOf({1, 2, 3, 5, 6}));
  EXPECT_EQ(ForEachKeys(cache), KeysOf({1, 2, 3, 5, 6}));
}

TEST(AdCacheTest, EvictionTieGoesToLargerKey) {
  AdCache cache(3);
  sim::EventId evicted;
  cache.Insert(MakeEntry(2, 0.3, 12), &evicted);
  cache.Insert(MakeEntry(3, 0.3, 13), &evicted);
  cache.Insert(MakeEntry(1, 0.3, 11), &evicted);
  ASSERT_NE(cache.Insert(MakeEntry(9, 0.5, 19), &evicted), nullptr);
  EXPECT_EQ(evicted, 13u);
  EXPECT_EQ(cache.Keys(), KeysOf({1, 2, 9}));
}

TEST(AdCacheTest, RemoveIfKeepsOrderAndMutatesSurvivors) {
  AdCache cache(6);
  sim::EventId evicted;
  for (uint32_t seq : {5u, 2u, 6u, 1u, 4u, 3u}) {
    cache.Insert(MakeEntry(seq, 0.1), &evicted);
  }
  std::vector<uint64_t> visited;
  cache.RemoveIf([&](uint64_t key, CacheEntry& entry) {
    visited.push_back(key);
    entry.probability = 0.7;
    return entry.ad.id.sequence % 2 == 0;
  });
  EXPECT_EQ(visited, KeysOf({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(cache.Keys(), KeysOf({1, 3, 5}));
  cache.ForEach([](uint64_t, CacheEntry& entry) {
    EXPECT_DOUBLE_EQ(entry.probability, 0.7);
  });
  cache.RemoveIf([](uint64_t, CacheEntry&) { return true; });
  EXPECT_EQ(cache.Size(), 0u);
}

}  // namespace
}  // namespace madnet::core
