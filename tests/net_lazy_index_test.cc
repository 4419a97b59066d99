// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Exactness of the medium's lazy grid rebuilds. The medium answers
// neighbour queries from a grid built at some earlier snapshot and
// restores, per query, the enumeration order a grid built at the current
// snapshot would give (Medium::RefreshIndex). Neighbour order feeds the
// per-receiver RNG draws, so it must match element for element. The
// reference here is the plain rule the lazy path replaces: twin mobility
// models with the same seeds, a fresh SpatialIndex built at every snapshot
// over the online nodes, QueryRange with the snapshot's slack, then the
// online and live-distance filter.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mobility/random_waypoint.h"
#include "net/medium.h"
#include "net/spatial_index.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace madnet::net {
namespace {

using mobility::RandomWaypoint;
using sim::Simulator;
using sim::Time;

constexpr double kRange = 250.0;
constexpr double kMaxSpeed = 15.0;

/// One medium plus the reference it is checked against.
class LazyIndexWorld {
 public:
  LazyIndexWorld(double reindex_interval_s, double area_m, uint64_t seed)
      : interval_(reindex_interval_s), reference_(kRange), rng_(seed) {
    Medium::Options options;
    options.range_m = kRange;
    options.max_speed_mps = kMaxSpeed;
    options.reindex_interval_s = reindex_interval_s;
    medium_ = std::make_unique<Medium>(options, &sim_, Rng(seed));
    waypoint_.area = Rect{{0.0, 0.0}, {area_m, area_m}};
    waypoint_.max_speed_mps = kMaxSpeed;
  }

  void AddNode() {
    const NodeId id = static_cast<NodeId>(models_.size());
    models_.push_back(
        std::make_unique<RandomWaypoint>(waypoint_, rng_.Fork(id)));
    twins_.push_back(
        std::make_unique<RandomWaypoint>(waypoint_, rng_.Fork(id)));
    online_.push_back(true);
    ASSERT_TRUE(medium_->AddNode(id, models_.back().get()).ok());
    forced_ = true;
  }

  void SetOnline(NodeId id, bool online) {
    ASSERT_TRUE(medium_->SetOnline(id, online).ok());
    if (online && !online_[id]) forced_ = true;
    online_[id] = online;
  }

  size_t size() const { return models_.size(); }
  Simulator& sim() { return sim_; }
  const Medium& medium() const { return *medium_; }
  int snapshots() const { return snapshots_; }

  /// Position of node `id` now, from its twin.
  Vec2 TwinPosition(NodeId id) { return twins_[id]->PositionAt(sim_.Now()); }

  /// NeighborsOf must equal the reference element-wise.
  void ExpectQueryMatches(const Vec2& center, double radius) {
    const std::vector<NodeId> expected = Reference(center, radius);
    const std::vector<NodeId> got = medium_->NeighborsOf(center, radius);
    ASSERT_EQ(got.size(), expected.size())
        << "t=" << sim_.Now() << " interval=" << interval_;
    for (size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(got[k], expected[k]) << "t=" << sim_.Now() << " element " << k
                                     << " interval=" << interval_;
    }
  }

 private:
  /// The fixed snapshot rule with a full rebuild at every snapshot.
  std::vector<NodeId> Reference(const Vec2& center, double radius) {
    const Time now = sim_.Now();
    if (forced_ || now - snapshot_time_ > interval_) {
      std::vector<std::pair<NodeId, Vec2>> points;
      for (NodeId id = 0; id < twins_.size(); ++id) {
        if (online_[id]) points.emplace_back(id, twins_[id]->PositionAt(now));
      }
      reference_.Rebuild(points);
      snapshot_time_ = now;
      forced_ = false;
      ++snapshots_;
    }
    const double slack = 2.0 * kMaxSpeed * (now - snapshot_time_);
    std::vector<NodeId> candidates;
    reference_.QueryRange(center, radius + slack, &candidates);
    std::vector<NodeId> result;
    for (NodeId id : candidates) {
      if (!online_[id]) continue;
      if (DistanceSquared(twins_[id]->PositionAt(now), center) <=
          radius * radius) {
        result.push_back(id);
      }
    }
    return result;
  }

  double interval_;
  Simulator sim_;
  std::unique_ptr<Medium> medium_;
  RandomWaypoint::Options waypoint_;
  std::vector<std::unique_ptr<RandomWaypoint>> models_;
  std::vector<std::unique_ptr<RandomWaypoint>> twins_;
  std::vector<bool> online_;
  SpatialIndex reference_;
  Time snapshot_time_ = -1.0;
  bool forced_ = true;
  int snapshots_ = 0;
  Rng rng_;
};

/// Advances `world` in irregular steps from `from` to `horizon`, querying
/// around random nodes and random points with the radio range and with a
/// wide radius (results of a dozen or more nodes, so order matters). Every
/// `churn_every` steps (0: never) one random node flips online state.
void Drive(LazyIndexWorld* world, double area_m, Time from, Time horizon,
           int churn_every, uint64_t seed) {
  Rng rng(seed);
  int step = 0;
  for (Time t = from; t <= horizon; t += rng.Uniform(0.05, 0.8), ++step) {
    world->sim().RunUntil(t);
    if (churn_every > 0 && step % churn_every == churn_every - 1) {
      const NodeId id = static_cast<NodeId>(rng.NextUint64(world->size()));
      world->SetOnline(id, !world->medium().IsOnline(id));
    }
    for (int q = 0; q < 3; ++q) {
      const Vec2 center =
          q == 0 ? Vec2{rng.Uniform(0.0, area_m), rng.Uniform(0.0, area_m)}
                 : world->TwinPosition(
                       static_cast<NodeId>(rng.NextUint64(world->size())));
      const double radius = q == 2 ? 4.0 * kRange : kRange;
      world->ExpectQueryMatches(center, radius);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

constexpr double kIntervals[] = {0.25, 1.0, 4.0};

TEST(MediumLazyIndexTest, MatchesFreshSnapshotGridAtEveryInterval) {
  // 1000 nodes on 20 km: sparse enough that queries scan few candidates,
  // so most snapshots reuse an older grid.
  constexpr double kArea = 20000.0;
  for (double interval : kIntervals) {
    LazyIndexWorld world(interval, kArea, 17);
    for (int i = 0; i < 1000; ++i) world.AddNode();
    Drive(&world, kArea, 0.0, 300.0, 0, 5);
    if (HasFatalFailure()) return;
    // The lazy path really ran: far fewer builds than snapshots.
    EXPECT_GT(world.medium().stats().index_rebuilds, 0u);
    EXPECT_LT(world.medium().stats().index_rebuilds,
              static_cast<uint64_t>(world.snapshots()) / 2)
        << "interval " << interval;
  }
}

TEST(MediumLazyIndexTest, MatchesFreshSnapshotGridUnderChurn) {
  constexpr double kArea = 20000.0;
  for (double interval : kIntervals) {
    LazyIndexWorld world(interval, kArea, 29);
    for (int i = 0; i < 800; ++i) world.AddNode();
    Drive(&world, kArea, 0.0, 150.0, 4, 7);
    if (HasFatalFailure()) return;
    // Late joiners force a snapshot and a build, like a node coming back.
    for (int i = 0; i < 200; ++i) world.AddNode();
    Drive(&world, kArea, 151.0, 300.0, 4, 8);
    if (HasFatalFailure()) return;
    EXPECT_LT(world.medium().stats().index_rebuilds,
              static_cast<uint64_t>(world.snapshots()))
        << "interval " << interval;
  }
}

TEST(MediumLazyIndexTest, CoarsenedGridRebuildsAtEverySnapshot) {
  // 100 nodes on 14 km or 1000 km: a grid at the configured 250 m cell
  // would have 56 x 56 or 4000 x 4000 cells, over the cap of 1024, so
  // every build coarsens, and the order of a later build cannot be
  // recreated from the configured cell. On 14 km the coarsened grid (500 m
  // cells, 28 wide) has room to grow, so only the coarsening check forces
  // these builds.
  for (double area : {14000.0, 1.0e6}) {
    for (double interval : kIntervals) {
      LazyIndexWorld world(interval, area, 31);
      for (int i = 0; i < 100; ++i) world.AddNode();
      Drive(&world, area, 0.0, 100.0, 0, 9);
      if (HasFatalFailure()) return;
      EXPECT_EQ(world.medium().stats().index_rebuilds,
                static_cast<uint64_t>(world.snapshots()))
          << "area " << area << " interval " << interval;
    }
  }
}

TEST(MediumLazyIndexTest, MatchesNearTheCoarseningCap) {
  // 128 nodes on 7.9 km: the grid is 32 cells wide, right at the cap of
  // 1024 cells, so a snapshot may only reuse a grid while the nodes'
  // possible drift cannot widen it.
  constexpr double kArea = 7900.0;
  for (double interval : kIntervals) {
    LazyIndexWorld world(interval, kArea, 37);
    for (int i = 0; i < 128; ++i) world.AddNode();
    Drive(&world, kArea, 0.0, 200.0, 6, 11);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace madnet::net
