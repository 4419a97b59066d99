// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Uniform-grid spatial index over node positions. The broadcast medium
// range-queries it on every transmission and rebuilds it only when the
// queries have paid for a rebuild (see Medium::RefreshIndex); exact
// distance filtering happens on live positions, so the index only needs
// to return a superset (see Medium for the slack logic).
//
// Layout: each Rebuild counting-sorts the points into a dense grid over
// their bounding box — `cell_start_` holds prefix offsets per cell and
// `ids_`/`xs_`/`ys_` are parallel arrays grouped by cell — so a range
// query is two clamped loops over contiguous memory with zero hashing.
// The sort is stable and queries walk cells in (cx, cy) lexicographic
// order, so a query's result order is (cell x, cell y, input order). The
// medium feeds points in dense-index order and relies on that order (a
// determinism requirement: neighbour enumeration order feeds the
// per-receiver RNG draw sequence). CellCoord and RebuildKeepsCellSize let
// it recreate the order a rebuild at a later instant would give without
// performing that rebuild.

#ifndef MADNET_NET_SPATIAL_INDEX_H_
#define MADNET_NET_SPATIAL_INDEX_H_

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "util/geometry.h"

namespace madnet::net {

/// Dense counting-sort grid over 2-D points keyed by NodeId.
class SpatialIndex {
 public:
  /// Creates an index with the given cell edge length (metres, > 0).
  /// A cell size near the query radius keeps candidate sets tight.
  explicit SpatialIndex(double cell_size);

  /// Replaces the whole index contents with the given (id, position) set.
  /// Compatibility overload for external/test callers; the hot path uses
  /// the SoA overload below.
  void Rebuild(const std::vector<std::pair<NodeId, Vec2>>& positions);

  /// SoA overload: replaces the contents with ids[i] at (xs[i], ys[i]).
  /// All three arrays must have equal length.
  void Rebuild(const std::vector<NodeId>& ids, const std::vector<double>& xs,
               const std::vector<double>& ys);

  /// Appends every id whose indexed position lies within `radius` of
  /// `center` to `out` (also returns ids *near* the ring; callers must
  /// distance-filter against live positions). `out` is not cleared.
  void QueryRange(const Vec2& center, double radius,
                  std::vector<NodeId>* out) const;

  /// Number of indexed points.
  size_t Size() const { return ids_.size(); }

  /// Cell coordinate of `v` (either axis) in this build's grid: floor of
  /// `v` over the effective cell edge.
  int64_t CellCoord(double v) const;

  /// True iff this build kept the configured cell edge, and a rebuild over
  /// `points` points, each within `grow_m` of some point of this build,
  /// would keep it too. The grown grid is then no wider than the cap, so
  /// the rebuild's cells are CellCoord's cells at the same edge.
  bool RebuildKeepsCellSize(double grow_m, size_t points) const;

 private:
  double cell_size_;       // Configured cell edge.
  double grid_cell_size_;  // Effective edge this rebuild (doubled from
                           // cell_size_ only when the points' bounding box
                           // would otherwise explode the dense grid).
  int64_t min_cx_ = 0;
  int64_t min_cy_ = 0;
  int64_t width_ = 0;
  int64_t height_ = 0;
  std::vector<uint32_t> cell_start_;  // width_*height_ + 1 prefix offsets.
  std::vector<NodeId> ids_;           // Grouped by cell, insertion-stable.
  std::vector<double> xs_;            // Parallel to ids_.
  std::vector<double> ys_;            // Parallel to ids_.

  // Rebuild scratch, reused across rebuilds instead of reallocating.
  mutable std::vector<int64_t> cx_scratch_;  // Pass-1 cell coords, reused by
  mutable std::vector<int64_t> cy_scratch_;  // the counting-sort pass.
  mutable std::vector<uint32_t> cell_of_scratch_;
  mutable std::vector<uint32_t> fill_scratch_;
  mutable std::vector<NodeId> compat_ids_scratch_;
  mutable std::vector<double> compat_xs_scratch_;
  mutable std::vector<double> compat_ys_scratch_;
};

}  // namespace madnet::net

#endif  // MADNET_NET_SPATIAL_INDEX_H_
