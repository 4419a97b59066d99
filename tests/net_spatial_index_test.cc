// Copyright (c) 2026 madnet authors. All rights reserved.

#include "net/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace madnet::net {
namespace {

TEST(SpatialIndexTest, EmptyIndexReturnsNothing) {
  SpatialIndex index(100.0);
  std::vector<NodeId> out;
  index.QueryRange({0.0, 0.0}, 1000.0, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.Size(), 0u);
}

TEST(SpatialIndexTest, FindsPointsWithinRadius) {
  SpatialIndex index(100.0);
  index.Rebuild({{1, {0.0, 0.0}}, {2, {50.0, 0.0}}, {3, {150.0, 0.0}}});
  std::vector<NodeId> out;
  index.QueryRange({0.0, 0.0}, 100.0, &out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<NodeId>{1, 2}));
}

TEST(SpatialIndexTest, BoundaryIsInclusive) {
  SpatialIndex index(100.0);
  index.Rebuild({{1, {100.0, 0.0}}});
  std::vector<NodeId> out;
  index.QueryRange({0.0, 0.0}, 100.0, &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(SpatialIndexTest, RebuildReplacesContents) {
  SpatialIndex index(100.0);
  index.Rebuild({{1, {0.0, 0.0}}});
  index.Rebuild({{2, {0.0, 0.0}}});
  EXPECT_EQ(index.Size(), 1u);
  std::vector<NodeId> out;
  index.QueryRange({0.0, 0.0}, 10.0, &out);
  EXPECT_EQ(out, (std::vector<NodeId>{2}));
}

TEST(SpatialIndexTest, NegativeCoordinates) {
  SpatialIndex index(50.0);
  index.Rebuild({{1, {-120.0, -80.0}}, {2, {-10.0, -10.0}}});
  std::vector<NodeId> out;
  index.QueryRange({-100.0, -100.0}, 40.0, &out);
  EXPECT_EQ(out, (std::vector<NodeId>{1}));
}

TEST(SpatialIndexTest, RandomizedAgainstBruteForce) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const double cell = rng.Uniform(20.0, 300.0);
    SpatialIndex index(cell);
    std::vector<std::pair<NodeId, Vec2>> points;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
      points.emplace_back(static_cast<NodeId>(i),
                          Vec2{rng.Uniform(-1000.0, 1000.0),
                               rng.Uniform(-1000.0, 1000.0)});
    }
    index.Rebuild(points);
    ASSERT_EQ(index.Size(), static_cast<size_t>(n));

    for (int q = 0; q < 10; ++q) {
      const Vec2 center{rng.Uniform(-1200.0, 1200.0),
                        rng.Uniform(-1200.0, 1200.0)};
      const double radius = rng.Uniform(0.0, 500.0);
      std::vector<NodeId> got;
      index.QueryRange(center, radius, &got);
      std::vector<NodeId> expected;
      for (const auto& [id, p] : points) {
        if (DistanceSquared(p, center) <= radius * radius) {
          expected.push_back(id);
        }
      }
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(got, expected) << "trial=" << trial << " q=" << q;
    }
  }
}

TEST(SpatialIndexTest, QueryOrderIsCellThenInputOrder) {
  // The in-place build must be a stable counting sort: a query lists its
  // points by (cell x, cell y) and, within a cell, in input order. Ids run
  // against input order, so an unstable grouping would show.
  Rng rng(29);
  const double cell = 100.0;
  SpatialIndex index(cell);
  std::vector<std::pair<NodeId, Vec2>> points;
  index.BeginBuild(300);
  for (int i = 0; i < 300; ++i) {
    const NodeId id = static_cast<NodeId>(1000 - i);
    const Vec2 p{rng.Uniform(-500.0, 500.0), rng.Uniform(-500.0, 500.0)};
    points.emplace_back(id, p);
    index.Add(id, p);
  }
  index.EndBuild();
  ASSERT_EQ(index.Size(), points.size());
  std::stable_sort(points.begin(), points.end(),
                   [cell](const auto& a, const auto& b) {
                     const auto key = [cell](const Vec2& v) {
                       return std::make_pair(std::floor(v.x / cell),
                                             std::floor(v.y / cell));
                     };
                     return key(a.second) < key(b.second);
                   });
  std::vector<NodeId> expected;
  for (const auto& [id, p] : points) expected.push_back(id);
  std::vector<NodeId> got;
  index.QueryRange({0.0, 0.0}, 1000.0, &got);
  EXPECT_EQ(got, expected);
}

TEST(SpatialIndexTest, AppendsWithoutClearing) {
  SpatialIndex index(100.0);
  index.Rebuild({{1, {0.0, 0.0}}});
  std::vector<NodeId> out = {99};
  index.QueryRange({0.0, 0.0}, 10.0, &out);
  EXPECT_EQ(out, (std::vector<NodeId>{99, 1}));
}

}  // namespace
}  // namespace madnet::net
