// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Golden checks guarding the Medium dense-storage / scratch-buffer
// refactor: NeighborsOf must return exactly the set a brute-force O(N)
// scan over live positions finds — across time (stale spatial index +
// slack), offline toggles, and many randomized query points on a
// 500-node moving layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mobility/random_waypoint.h"
#include "net/medium.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace madnet::net {
namespace {

using mobility::RandomWaypoint;

class MediumPerfTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 500;
  static constexpr double kArea = 2000.0;

  void SetUp() override {
    Medium::Options options;
    options.range_m = 250.0;
    options.max_speed_mps = 15.0;
    medium_ = std::make_unique<Medium>(options, &simulator_, Rng(99));
    RandomWaypoint::Options waypoint;
    waypoint.area = Rect{{0.0, 0.0}, {kArea, kArea}};
    Rng rng(42);
    for (NodeId id = 0; id < kNodes; ++id) {
      models_.push_back(
          std::make_unique<RandomWaypoint>(waypoint, rng.Fork(id)));
      ASSERT_TRUE(medium_->AddNode(id, models_.back().get()).ok());
    }
  }

  /// Ground truth: O(N) scan over exact live positions and online flags.
  std::vector<NodeId> BruteForceNeighbors(const Vec2& center,
                                          double radius) const {
    std::vector<NodeId> result;
    const double r2 = radius * radius;
    for (NodeId id = 0; id < medium_->node_count(); ++id) {
      if (!medium_->IsOnline(id)) continue;
      if (DistanceSquared(medium_->PositionOf(id), center) <= r2) {
        result.push_back(id);
      }
    }
    return result;
  }

  /// Order-insensitive comparison (the index may enumerate cells in any
  /// order; the contract is about the *set*).
  void ExpectMatchesBruteForce(const Vec2& center, double radius) {
    std::vector<NodeId> fast = medium_->NeighborsOf(center, radius);
    std::vector<NodeId> golden = BruteForceNeighbors(center, radius);
    std::sort(fast.begin(), fast.end());
    std::sort(golden.begin(), golden.end());
    EXPECT_EQ(fast, golden) << "center=(" << center.x << "," << center.y
                            << ") r=" << radius << " t=" << simulator_.Now();
  }

  sim::Simulator simulator_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<RandomWaypoint>> models_;
};

TEST_F(MediumPerfTest, NeighborsMatchBruteForceAcrossRandomQueries) {
  Rng rng(7);
  for (int q = 0; q < 60; ++q) {
    const Vec2 center = rng.UniformInRect(Rect{{0.0, 0.0}, {kArea, kArea}});
    const double radius = rng.Uniform(10.0, 400.0);
    ExpectMatchesBruteForce(center, radius);
  }
}

TEST_F(MediumPerfTest, NeighborsMatchBruteForceAsTimeAdvances) {
  // Advance virtual time so indexed positions go stale between reindex
  // intervals; the slack logic must still yield the exact live set.
  Rng rng(11);
  for (int step = 0; step < 25; ++step) {
    simulator_.Schedule(3.7, [] {});
    simulator_.Run();
    const Vec2 center = rng.UniformInRect(Rect{{0.0, 0.0}, {kArea, kArea}});
    ExpectMatchesBruteForce(center, 250.0);
  }
}

TEST_F(MediumPerfTest, OfflineNodesAreExcludedEverywhere) {
  // Knock out every third node and verify both paths agree (and that the
  // offline nodes really are gone from the results).
  for (NodeId id = 0; id < kNodes; id += 3) {
    ASSERT_TRUE(medium_->SetOnline(id, false).ok());
  }
  Rng rng(13);
  for (int q = 0; q < 30; ++q) {
    const Vec2 center = rng.UniformInRect(Rect{{0.0, 0.0}, {kArea, kArea}});
    const std::vector<NodeId> neighbors = medium_->NeighborsOf(center, 300.0);
    for (NodeId id : neighbors) EXPECT_NE(id % 3, 0u);
    ExpectMatchesBruteForce(center, 300.0);
  }
  // Bring them back: they must reappear.
  for (NodeId id = 0; id < kNodes; id += 3) {
    ASSERT_TRUE(medium_->SetOnline(id, true).ok());
  }
  ExpectMatchesBruteForce({kArea / 2, kArea / 2}, 500.0);
}

TEST_F(MediumPerfTest, RebuiltIndexSkipsOfflineNodesAndFlipBackIsVisible) {
  // Force a reindex while half the fleet is offline: offline nodes must
  // not be inserted (they are dead weight for every query), yet flipping
  // one back online must make it visible IMMEDIATELY — before the next
  // periodic rebuild — because SetOnline(true) invalidates the index.
  for (NodeId id = 0; id < kNodes; id += 2) {
    ASSERT_TRUE(medium_->SetOnline(id, false).ok());
  }
  // Advance virtual time past the reindex interval so the next query
  // rebuilds from scratch with the offline set in effect.
  simulator_.Schedule(5.0, [] {});
  simulator_.Run();
  Rng rng(17);
  for (int q = 0; q < 20; ++q) {
    const Vec2 center = rng.UniformInRect(Rect{{0.0, 0.0}, {kArea, kArea}});
    const std::vector<NodeId> neighbors = medium_->NeighborsOf(center, 400.0);
    for (NodeId id : neighbors) EXPECT_EQ(id % 2, 1u);
    ExpectMatchesBruteForce(center, 400.0);
  }
  // Flip everyone back and query at the same instant (no time advance, no
  // periodic rebuild in between): the full fleet must reappear.
  for (NodeId id = 0; id < kNodes; id += 2) {
    ASSERT_TRUE(medium_->SetOnline(id, true).ok());
  }
  const std::vector<NodeId> all =
      medium_->NeighborsOf({kArea / 2, kArea / 2}, kArea * 2.0);
  EXPECT_EQ(all.size(), static_cast<size_t>(kNodes));
  ExpectMatchesBruteForce({kArea / 2, kArea / 2}, kArea * 2.0);
}

TEST_F(MediumPerfTest, RepeatedQueriesReuseScratchWithoutCorruption) {
  // Back-to-back queries exercise the reused scratch buffers; each result
  // must be self-consistent and match a fresh brute-force scan.
  const Vec2 a{300.0, 300.0};
  const Vec2 b{1700.0, 1600.0};
  const std::vector<NodeId> first = medium_->NeighborsOf(a, 250.0);
  const std::vector<NodeId> second = medium_->NeighborsOf(b, 250.0);
  const std::vector<NodeId> first_again = medium_->NeighborsOf(a, 250.0);
  EXPECT_EQ(first, first_again);
  ExpectMatchesBruteForce(a, 250.0);
  ExpectMatchesBruteForce(b, 250.0);
  EXPECT_NE(first, second);  // Distinct regions of a 500-node layout.
}

}  // namespace
}  // namespace madnet::net
